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

    def probability_of(self, label: str) -> float:
        for candidate, probability in zip(self.labels, self.probabilities):
            if candidate == label:
                return probability
        return 0.0

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

    Batch prediction is part of the contract: the verification loop scores
    every pending claim after every batch, so classifiers must accept a
    whole feature matrix at once.  ``predict`` is the single-row
    convenience wrapper over the same path.
    """

    def fit(self, features: np.ndarray, labels: Sequence[str]) -> "Classifier":
        """Train on the given samples."""

    def predict(self, features: np.ndarray) -> Prediction:
        """Predict the ranked label distribution for one feature vector."""

    def predict_batch(self, features: np.ndarray) -> list[Prediction]:
        """Ranked label distributions for every row of a feature matrix."""

    def predict_proba_batch(self, features: np.ndarray) -> np.ndarray:
        """(rows x classes) probability matrix, aligned with :attr:`classes`."""

    @property
    def is_fitted(self) -> bool:
        """Whether the classifier has been trained."""

    @property
    def classes(self) -> tuple[str, ...]:
        """Labels the classifier can currently predict."""


def as_single_row(features: np.ndarray) -> np.ndarray:
    """Validate a single feature vector and shape it as a one-row batch.

    Routing single predictions through the batch path keeps the two bit for
    bit identical: there is only one implementation to agree with.
    """
    vector = np.asarray(features, dtype=float)
    if vector.ndim == 2 and vector.shape[0] == 1:
        vector = vector[0]
    if vector.ndim != 1:
        raise ConfigurationError("predict expects a single feature vector")
    return vector[None, :]
