"""k-nearest-neighbour classifier used as a cold-start fallback.

With only a handful of labelled claims (the cold-start scenario of
Section 6.2) parametric models barely beat chance; a cosine-similarity k-NN
over the same feature vectors provides usable rankings from the very first
labels and is therefore the default model while the training set is tiny.

Prediction is batched: one ``queries @ training.T`` matrix multiplication
scores every query against every training row, and the top-k neighbours are
found with :func:`numpy.argpartition` instead of a full per-query sort.
Tie-breaking at the k-th similarity is deterministic — the lowest training
indices win — so a query's neighbourhood does not depend on the other rows
of its batch: a one-row batch ranks labels like that row of a larger batch,
and probabilities match to within the last-ulp reordering BLAS applies to
differently shaped matrix products.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.ml.encoding import LabelEncoder
from repro.ml.state import decode_array, encode_array, register_model_kind


@register_model_kind("knn")
class KNearestNeighborsClassifier:
    """Cosine-similarity k-NN with similarity-weighted voting."""

    def __init__(self, k: int = 5) -> None:
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        self.k = k
        self._encoder = LabelEncoder()
        self._features: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._targets: np.ndarray | None = None
        self._target_one_hot: np.ndarray | None = None

    def fit(self, features: np.ndarray, labels: Sequence[str]) -> "KNearestNeighborsClassifier":
        # Keep the training matrix in C order, the layout a restored model
        # decodes to: row norms and similarities of a strided copy can
        # differ in the last bits.
        features = np.ascontiguousarray(features, dtype=float)
        if features.ndim != 2:
            raise ConfigurationError("features must be a 2-D matrix")
        if features.shape[0] != len(labels):
            raise ConfigurationError("features and labels must have the same length")
        if features.shape[0] == 0:
            raise ConfigurationError("cannot fit on an empty training set")
        self._encoder = LabelEncoder().fit(labels)
        self._features = features
        self._norms = np.linalg.norm(features, axis=1)
        self._targets = self._encoder.encode(labels)
        one_hot = np.zeros((features.shape[0], self._encoder.class_count))
        one_hot[np.arange(features.shape[0]), self._targets] = 1.0
        self._target_one_hot = one_hot
        return self

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def predict_proba_batch(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities for every query row, in one matrix pass."""
        if (
            self._features is None
            or self._targets is None
            or self._norms is None
            or self._target_one_hot is None
        ):
            raise NotFittedError("KNearestNeighborsClassifier used before fit")
        queries = np.asarray(features, dtype=float)
        if queries.ndim != 2:
            raise ConfigurationError("predict_proba_batch expects a 2-D matrix")
        if queries.shape[1] != self._features.shape[1]:
            raise ConfigurationError(
                f"feature dimension mismatch: got {queries.shape[1]}, "
                f"expected {self._features.shape[1]}"
            )
        sample_count = self._features.shape[0]
        query_norms = np.linalg.norm(queries, axis=1)
        denominators = np.outer(query_norms, self._norms)
        denominators[denominators == 0] = 1.0
        similarities = (queries @ self._features.T) / denominators

        neighbour_count = min(self.k, sample_count)
        if neighbour_count >= sample_count:
            selected = np.ones_like(similarities, dtype=bool)
        else:
            # argpartition finds the k-th largest similarity per row without a
            # full sort; membership of the top-k set is then decided
            # deterministically — everything strictly above the boundary, and
            # boundary ties resolved in favour of the lowest training index.
            partition = np.argpartition(-similarities, neighbour_count - 1, axis=1)
            boundary = np.take_along_axis(
                similarities, partition[:, :neighbour_count], axis=1
            ).min(axis=1)
            strict = similarities > boundary[:, None]
            tied = similarities == boundary[:, None]
            remaining = neighbour_count - strict.sum(axis=1)
            tie_rank = np.cumsum(tied, axis=1)
            selected = strict | (tied & (tie_rank <= remaining[:, None]))

        # Shift similarities into [0, 2] so negative cosine still counts a
        # little, then accumulate per-class votes with one matmul.
        weights = np.where(selected, similarities + 1.0, 0.0)
        scores = weights @ self._target_one_hot
        totals = scores.sum(axis=1, keepdims=True)
        class_count = self._encoder.class_count
        uniform = np.full_like(scores, 1.0 / class_count)
        safe_totals = np.where(totals > 0, totals, 1.0)
        return np.where(totals > 0, scores / safe_totals, uniform)

    @property
    def is_fitted(self) -> bool:
        return self._features is not None

    @property
    def classes(self) -> tuple[str, ...]:
        return self._encoder.classes

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict[str, object]:
        """JSON-compatible state: training matrix, targets and class order."""
        return {
            "kind": "knn",
            "k": self.k,
            "encoder": self._encoder.to_state(),
            "features": None if self._features is None else encode_array(self._features),
            "targets": None if self._targets is None else encode_array(self._targets),
        }

    @classmethod
    def from_state(cls, state: dict[str, object]) -> "KNearestNeighborsClassifier":
        """Rebuild a classifier whose predictions match byte for byte.

        Norms and the one-hot target matrix are derived quantities; they are
        recomputed with the same operations :meth:`fit` uses, so the restored
        model shares every instruction with the original.
        """
        model = cls(k=int(state["k"]))  # type: ignore[arg-type]
        model._encoder = LabelEncoder.from_state(state["encoder"])  # type: ignore[arg-type]
        features = state.get("features")
        targets = state.get("targets")
        if features is not None and targets is not None:
            model._features = decode_array(features, "knn.features")
            model._norms = np.linalg.norm(model._features, axis=1)
            model._targets = decode_array(targets, "knn.targets")
            one_hot = np.zeros((model._features.shape[0], model._encoder.class_count))
            one_hot[np.arange(model._features.shape[0]), model._targets] = 1.0
            model._target_one_hot = one_hot
        return model
