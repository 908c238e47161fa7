"""Multinomial naive Bayes over non-negative feature weights.

TF-IDF features are non-negative, which makes multinomial naive Bayes a
cheap and surprisingly strong baseline classifier for the property
prediction tasks.  It is used in the reproduction both as an alternative to
the softmax model and as a fast warm-start classifier in cold-start runs
where only a handful of labels are available.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import NotFittedError
from repro.ml.base import Prediction, as_single_row
from repro.ml.encoding import LabelEncoder
from repro.ml.state import decode_array, encode_array, register_model_kind


@register_model_kind("naive_bayes")
class MultinomialNaiveBayesClassifier:
    """Multinomial naive Bayes with Lidstone smoothing."""

    def __init__(self, alpha: float = 0.1) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self._encoder = LabelEncoder()
        self._log_prior: np.ndarray | None = None
        self._log_likelihood: np.ndarray | None = None

    def fit(
        self, features: np.ndarray, labels: Sequence[str]
    ) -> "MultinomialNaiveBayesClassifier":
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if features.shape[0] != len(labels):
            raise ValueError("features and labels must have the same length")
        if features.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        if np.any(features < 0):
            # Embedding coordinates can be negative; shift the matrix so the
            # multinomial counts stay valid.
            features = features - features.min()
        self._encoder = LabelEncoder().fit(labels)
        targets = self._encoder.encode(labels)
        class_count = self._encoder.class_count
        feature_count = features.shape[1]
        class_totals = np.zeros(class_count)
        feature_totals = np.zeros((class_count, feature_count))
        for row, target in zip(features, targets):
            class_totals[target] += 1
            feature_totals[target] += row
        self._log_prior = np.log(class_totals + self.alpha) - np.log(
            class_totals.sum() + self.alpha * class_count
        )
        smoothed = feature_totals + self.alpha
        self._log_likelihood = np.log(smoothed) - np.log(
            smoothed.sum(axis=1, keepdims=True)
        )
        return self

    def predict(self, features: np.ndarray) -> Prediction:
        return Prediction.from_distribution(
            self._encoder.classes, self.predict_proba_batch(as_single_row(features))[0]
        )

    def predict_batch(self, features: np.ndarray) -> list[Prediction]:
        probabilities = self.predict_proba_batch(features)
        classes = self._encoder.classes
        return [Prediction.from_distribution(classes, row) for row in probabilities]

    def predict_proba_batch(self, features: np.ndarray) -> np.ndarray:
        """(rows x classes) posterior matrix in one matrix multiplication."""
        if self._log_prior is None or self._log_likelihood is None:
            raise NotFittedError("MultinomialNaiveBayesClassifier used before fit")
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("predict_proba_batch expects a 2-D matrix")
        row_minima = matrix.min(axis=1, keepdims=True)
        matrix = np.where(row_minima < 0, matrix - row_minima, matrix)
        log_posterior = self._log_prior[None, :] + matrix @ self._log_likelihood.T
        log_posterior -= log_posterior.max(axis=1, keepdims=True)
        posterior = np.exp(log_posterior)
        return posterior / posterior.sum(axis=1, keepdims=True)

    @property
    def is_fitted(self) -> bool:
        return self._log_prior is not None

    @property
    def classes(self) -> tuple[str, ...]:
        return self._encoder.classes

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict[str, object]:
        """JSON-compatible state: priors, likelihoods and class order."""
        return {
            "kind": "naive_bayes",
            "alpha": self.alpha,
            "encoder": self._encoder.to_state(),
            "log_prior": None if self._log_prior is None else encode_array(self._log_prior),
            "log_likelihood": (
                None
                if self._log_likelihood is None
                else encode_array(self._log_likelihood)
            ),
        }

    @classmethod
    def from_state(cls, state: dict[str, object]) -> "MultinomialNaiveBayesClassifier":
        """Rebuild a classifier whose predictions match byte for byte."""
        model = cls(alpha=float(state["alpha"]))  # type: ignore[arg-type]
        model._encoder = LabelEncoder.from_state(state["encoder"])  # type: ignore[arg-type]
        log_prior = state.get("log_prior")
        log_likelihood = state.get("log_likelihood")
        if log_prior is not None and log_likelihood is not None:
            model._log_prior = decode_array(log_prior, "naive_bayes.log_prior")
            model._log_likelihood = decode_array(
                log_likelihood, "naive_bayes.log_likelihood"
            )
        return model
