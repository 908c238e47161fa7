"""Multinomial (softmax) logistic regression on numpy.

This is the workhorse property classifier: a linear model over the Figure 4
features with a softmax output, trained by full-batch gradient descent with
L2 regularisation.  It returns calibrated probability distributions, which
the question planner consumes directly (expected verification cost and
pruning power are both defined over answer-option probabilities).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.ml.encoding import LabelEncoder
from repro.ml.state import decode_array, encode_array, register_model_kind


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / np.sum(exponentials, axis=-1, keepdims=True)


@register_model_kind("softmax")
class SoftmaxRegressionClassifier:
    """Multinomial logistic regression with gradient-descent training.

    Parameters
    ----------
    learning_rate:
        Step size of the gradient descent.
    epochs:
        Number of full passes over the training data.
    l2:
        L2 regularisation strength applied to the weights (not the bias).
    seed:
        Seed for the (small) random weight initialisation.

    The first :meth:`fit` starts from small random weights; every later
    one continues the gradient descent from the previous weights — the
    incremental-retraining mode of Algorithm 1, where each batch adds a
    few dozen samples to an already-fitted model.  Label indices stay
    stable; columns for newly seen labels are appended.  A later fit on
    another feature dimension raises
    :class:`~repro.errors.ConfigurationError`: the featurizer is fitted
    once, and a caller that wants a cold fit fits a new instance.
    """

    def __init__(
        self,
        learning_rate: float = 0.5,
        epochs: int = 150,
        l2: float = 1e-3,
        seed: int = 0,
    ) -> None:
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if epochs < 1:
            raise ConfigurationError("epochs must be at least 1")
        if l2 < 0:
            raise ConfigurationError("l2 must be non-negative")
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed
        self._encoder = LabelEncoder()
        self._weights: np.ndarray | None = None
        self._bias: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit(self, features: np.ndarray, labels: Sequence[str]) -> "SoftmaxRegressionClassifier":
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ConfigurationError("features must be a 2-D matrix")
        if features.shape[0] != len(labels):
            raise ConfigurationError("features and labels must have the same length")
        if features.shape[0] == 0:
            raise ConfigurationError("cannot fit on an empty training set")
        sample_count, feature_count = features.shape
        if self._weights is not None and self._bias is not None:
            if self._weights.shape[0] != feature_count:
                raise ConfigurationError(
                    f"feature dimension changed from {self._weights.shape[0]} to "
                    f"{feature_count}; a cold fit is a new instance"
                )
            # Continue from the previous fit: existing label columns keep
            # their weights, new labels get fresh small-noise columns.
            self._encoder.partial_fit(labels)
            class_count = self._encoder.class_count
            if class_count > self._weights.shape[1]:
                generator = np.random.default_rng(self.seed)
                grown = class_count - self._weights.shape[1]
                self._weights = np.hstack(
                    [self._weights, generator.normal(scale=0.01, size=(feature_count, grown))]
                )
                self._bias = np.concatenate([self._bias, np.zeros(grown)])
        else:
            self._encoder = LabelEncoder().fit(labels)
            class_count = self._encoder.class_count
            generator = np.random.default_rng(self.seed)
            self._weights = generator.normal(scale=0.01, size=(feature_count, class_count))
            self._bias = np.zeros(class_count)
        targets = self._encoder.encode(labels)
        one_hot = np.zeros((sample_count, class_count))
        one_hot[np.arange(sample_count), targets] = 1.0
        for _ in range(self.epochs):
            logits = features @ self._weights + self._bias
            probabilities = _softmax(logits)
            error = (probabilities - one_hot) / sample_count
            gradient_weights = features.T @ error + self.l2 * self._weights
            gradient_bias = np.sum(error, axis=0)
            self._weights -= self.learning_rate * gradient_weights
            self._bias -= self.learning_rate * gradient_bias
        return self

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def predict_proba_batch(self, features: np.ndarray) -> np.ndarray:
        """(rows x classes) probability matrix: one ``X @ W + b`` matmul."""
        if self._weights is None or self._bias is None:
            raise NotFittedError("SoftmaxRegressionClassifier used before fit")
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim != 2:
            raise ConfigurationError("predict_proba_batch expects a 2-D matrix")
        if matrix.shape[1] != self._weights.shape[0]:
            raise ConfigurationError(
                f"feature dimension mismatch: got {matrix.shape[1]}, "
                f"expected {self._weights.shape[0]}"
            )
        return _softmax(matrix @ self._weights + self._bias)

    # ------------------------------------------------------------------ #
    # metadata
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self._weights is not None

    @property
    def classes(self) -> tuple[str, ...]:
        return self._encoder.classes

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict[str, object]:
        """JSON-compatible state capturing the fitted weights exactly.

        The weights are path-dependent (each retrain continues gradient
        descent from the last fit), so unlike the non-parametric k-NN
        this state cannot be reconstructed by refitting — it must carry
        the matrices themselves.
        """
        return {
            "kind": "softmax",
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "l2": self.l2,
            "seed": self.seed,
            "encoder": self._encoder.to_state(),
            "weights": None if self._weights is None else encode_array(self._weights),
            "bias": None if self._bias is None else encode_array(self._bias),
        }

    @classmethod
    def from_state(cls, state: dict[str, object]) -> "SoftmaxRegressionClassifier":
        """Rebuild a classifier whose predictions match byte for byte."""
        model = cls(
            learning_rate=float(state["learning_rate"]),  # type: ignore[arg-type]
            epochs=int(state["epochs"]),  # type: ignore[arg-type]
            l2=float(state["l2"]),  # type: ignore[arg-type]
            seed=int(state["seed"]),  # type: ignore[arg-type]
        )
        model._encoder = LabelEncoder.from_state(state["encoder"])  # type: ignore[arg-type]
        weights = state.get("weights")
        bias = state.get("bias")
        if weights is not None and bias is not None:
            model._weights = decode_array(weights, "softmax.weights")
            model._bias = decode_array(bias, "softmax.bias")
        return model
