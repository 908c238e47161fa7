"""Batch prediction containers: the matrix is the unit of work.

:class:`ClaimBatchPredictions` holds, for every property, one probability
matrix over the classifier's label space, with one row per claim.  The
planner scores whole batches from these arrays (entropies, top-k option
probabilities) without ever materializing per-claim dictionaries; ranked
:class:`~repro.ml.base.Prediction` objects are built lazily, only for the
claims actually selected into a batch.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.claims.model import ClaimProperty
from repro.errors import ConfigurationError
from repro.ml.base import Prediction

__all__ = ["ClaimBatchPredictions", "PropertyBatch"]


@dataclass(frozen=True)
class PropertyBatch:
    """One property's predictions for a batch of claims.

    ``probabilities[i, j]`` is the probability of ``labels[j]`` for the
    ``i``-th claim of the batch, in the classifier's native label order
    (not ranked).
    """

    labels: tuple[str, ...]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        if self.probabilities.ndim != 2:
            raise ConfigurationError("probabilities must be a (claims x labels) matrix")
        if self.probabilities.shape[1] != len(self.labels):
            raise ConfigurationError("probabilities and labels must be aligned")

    def prediction(self, index: int) -> Prediction:
        """The ranked distribution for one claim: its row, sorted.

        This is the only place ranked predictions come from; a single
        claim's predictions are row 0 of a one-claim batch.
        """
        return Prediction.from_distribution(self.labels, self.probabilities[index])

    def entropies(self) -> np.ndarray:
        """Shannon entropy of every row (matches ``Prediction.entropy``)."""
        probabilities = self.probabilities
        contributions = np.where(
            probabilities > 0,
            -probabilities * np.log(np.where(probabilities > 0, probabilities, 1.0)),
            0.0,
        )
        return contributions.sum(axis=1)

    def top_probabilities(self, count: int) -> np.ndarray:
        """Per row, the ``count`` largest probabilities in descending order.

        Matches the probability sequence of ``Prediction.top_k(count)``:
        label-order tie-breaking differs, but the sorted probability values —
        all the cost model consumes — are identical.
        """
        width = min(count, self.probabilities.shape[1])
        if width <= 0:
            return np.zeros((self.probabilities.shape[0], 0))
        return -np.sort(-self.probabilities, axis=1)[:, :width]


class ClaimBatchPredictions:
    """Predictions for a batch of claims across all four properties.

    Every property carries a prediction for every claim of the batch.
    """

    def __init__(
        self,
        claim_ids: Sequence[str],
        by_property: Mapping[ClaimProperty, PropertyBatch],
    ) -> None:
        self.claim_ids = tuple(claim_ids)
        self.by_property = dict(by_property)
        self._index_of = {claim_id: index for index, claim_id in enumerate(self.claim_ids)}
        self._entropy_matrix: np.ndarray | None = None
        for claim_property, batch in self.by_property.items():
            if batch.probabilities.shape[0] != len(self.claim_ids):
                raise ConfigurationError(
                    f"{claim_property.value}: row count does not match claim_ids"
                )

    def __len__(self) -> int:
        return len(self.claim_ids)

    def __contains__(self, claim_id: object) -> bool:
        return claim_id in self._index_of

    # ------------------------------------------------------------------ #
    # array access (planning hot path)
    # ------------------------------------------------------------------ #
    def entropy_matrix(self) -> np.ndarray:
        """(claims x properties) entropy matrix, properties in batch order.

        Computed once and cached: cost and utility scoring both consume it
        on every planning pass.
        """
        if self._entropy_matrix is None:
            if not self.by_property:
                self._entropy_matrix = np.zeros((len(self.claim_ids), 0))
            else:
                self._entropy_matrix = np.column_stack(
                    [batch.entropies() for batch in self.by_property.values()]
                )
        return self._entropy_matrix

    # ------------------------------------------------------------------ #
    # per-claim materialization (selected claims only)
    # ------------------------------------------------------------------ #
    def predictions_at(self, index: int) -> dict[ClaimProperty, Prediction]:
        """Ranked per-property predictions for the ``index``-th claim."""
        return {
            claim_property: batch.prediction(index)
            for claim_property, batch in self.by_property.items()
        }

    def predictions_for(self, claim_id: str) -> dict[ClaimProperty, Prediction]:
        """Ranked per-property predictions for one claim of the batch."""
        return self.predictions_at(self._index_of[claim_id])
