"""Common classifier interface and prediction container."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Prediction:
    """A ranked probability distribution over string labels."""

    labels: tuple[str, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.probabilities):
            raise ConfigurationError("labels and probabilities must be aligned")

    @property
    def top_label(self) -> str | None:
        return self.labels[0] if self.labels else None

    def top_k(self, k: int) -> list[tuple[str, float]]:
        """The ``k`` most probable labels with their probabilities."""
        return list(zip(self.labels[:k], self.probabilities[:k]))

    def entropy(self) -> float:
        """Shannon entropy of the distribution (used by Definition 7)."""
        probabilities = np.asarray(self.probabilities, dtype=float)
        positive = probabilities[probabilities > 0]
        if positive.size == 0:
            return 0.0
        return float(-np.sum(positive * np.log(positive)))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.labels, self.probabilities))

    @staticmethod
    def from_distribution(labels: Sequence[str], probabilities: Sequence[float]) -> "Prediction":
        """Build a prediction sorted by decreasing probability."""
        pairs = sorted(zip(labels, probabilities), key=lambda pair: (-pair[1], pair[0]))
        return Prediction(
            labels=tuple(label for label, _ in pairs),
            probabilities=tuple(float(probability) for _, probability in pairs),
        )


@runtime_checkable
class Classifier(Protocol):
    """Protocol implemented by every property classifier.

    Prediction is batch-only: the verification loop scores every pending
    claim after every batch, so a classifier maps a whole feature matrix
    to one probability matrix.  A single claim is a one-row batch, and
    ranked :class:`Prediction` objects are built from rows of that matrix
    (:meth:`~repro.pipeline.batch.PropertyBatch.prediction`).
    """

    def fit(self, features: np.ndarray, labels: Sequence[str]) -> "Classifier":
        """Train on the given samples."""

    def predict_proba_batch(self, features: np.ndarray) -> np.ndarray:
        """(rows x classes) probability matrix, aligned with :attr:`classes`."""

    @property
    def is_fitted(self) -> bool:
        """Whether the classifier has been trained."""

    @property
    def classes(self) -> tuple[str, ...]:
        """Labels the classifier can currently predict."""
