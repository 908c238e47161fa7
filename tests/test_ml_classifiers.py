"""Tests for the ML substrate: encoders and classifiers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.ml.base import Prediction
from repro.ml.encoding import LabelEncoder
from repro.ml.knn import KNearestNeighborsClassifier
from repro.ml.logistic import SoftmaxRegressionClassifier


def _blobs(seed: int = 0, samples_per_class: int = 30, dimension: int = 10):
    """Three well-separated Gaussian blobs with string labels."""
    rng = np.random.default_rng(seed)
    features, labels = [], []
    for index, label in enumerate(["alpha", "beta", "gamma"]):
        center = np.zeros(dimension)
        center[index] = 5.0
        features.append(rng.normal(loc=center, scale=0.5, size=(samples_per_class, dimension)))
        labels.extend([label] * samples_per_class)
    return np.vstack(features), labels


class TestLabelEncoder:
    def test_round_trip(self):
        encoder = LabelEncoder().fit(["a", "b", "a", "c"])
        assert encoder.class_count == 3
        assert encoder.decode(encoder.encode(["c", "a"])) == ["c", "a"]

    def test_partial_fit_keeps_indices_stable(self):
        encoder = LabelEncoder().fit(["a", "b"])
        index_of_a = encoder.index_of("a")
        encoder.partial_fit(["c"])
        assert encoder.index_of("a") == index_of_a
        assert "c" in encoder

    def test_unknown_label_raises(self):
        with pytest.raises(NotFittedError):
            LabelEncoder().fit(["a"]).index_of("z")

    def test_bad_index_raises(self):
        with pytest.raises(NotFittedError):
            LabelEncoder().fit(["a"]).label_of(5)


class TestPrediction:
    def test_sorted_by_probability(self):
        prediction = Prediction.from_distribution(["x", "y", "z"], [0.1, 0.7, 0.2])
        assert prediction.top_label == "y"
        assert prediction.probabilities[0] == pytest.approx(0.7)

    def test_top_k(self):
        prediction = Prediction.from_distribution(["x", "y", "z"], [0.1, 0.7, 0.2])
        assert [label for label, _ in prediction.top_k(2)] == ["y", "z"]

    def test_probability_of_missing_label(self):
        prediction = Prediction.from_distribution(["x"], [1.0])
        assert prediction.as_dict().get("q", 0.0) == 0.0

    def test_entropy_uniform_greater_than_peaked(self):
        uniform = Prediction.from_distribution(["a", "b"], [0.5, 0.5])
        peaked = Prediction.from_distribution(["a", "b"], [0.99, 0.01])
        assert uniform.entropy() > peaked.entropy()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            Prediction(labels=("a",), probabilities=(0.5, 0.5))


@pytest.mark.parametrize(
    "model_factory",
    [
        lambda: SoftmaxRegressionClassifier(epochs=200, learning_rate=0.5),
        lambda: KNearestNeighborsClassifier(k=3),
    ],
    ids=["softmax", "knn"],
)
class TestClassifiersOnBlobs:
    def test_high_training_accuracy(self, model_factory):
        features, labels = _blobs()
        model = model_factory().fit(features, labels)
        probabilities = model.predict_proba_batch(features)
        predicted = [model.classes[index] for index in probabilities.argmax(axis=1)]
        hits = sum(top == label for top, label in zip(predicted, labels))
        assert hits / len(labels) > 0.9

    def test_probabilities_sum_to_one(self, model_factory):
        features, labels = _blobs()
        model = model_factory().fit(features, labels)
        probabilities = model.predict_proba_batch(features[:5])
        assert probabilities.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-6)

    def test_predict_before_fit_raises(self, model_factory):
        with pytest.raises(NotFittedError):
            model_factory().predict_proba_batch(np.zeros((1, 4)))

    def test_classes_exposed(self, model_factory):
        features, labels = _blobs()
        model = model_factory().fit(features, labels)
        assert set(model.classes) == {"alpha", "beta", "gamma"}

    def test_empty_training_rejected(self, model_factory):
        with pytest.raises(ConfigurationError):
            model_factory().fit(np.zeros((0, 3)), [])

    def test_mismatched_lengths_rejected(self, model_factory):
        with pytest.raises(ConfigurationError):
            model_factory().fit(np.zeros((3, 2)), ["a", "b"])


class TestSoftmaxSpecifics:
    def test_feature_dimension_mismatch(self):
        features, labels = _blobs(dimension=6)
        model = SoftmaxRegressionClassifier(epochs=20).fit(features, labels)
        with pytest.raises(ConfigurationError):
            model.predict_proba_batch(np.zeros((1, 3)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigurationError):
            SoftmaxRegressionClassifier(learning_rate=0)
        with pytest.raises(ConfigurationError):
            SoftmaxRegressionClassifier(epochs=0)

    def test_predict_batch(self):
        features, labels = _blobs()
        model = SoftmaxRegressionClassifier(epochs=50).fit(features, labels)
        assert model.predict_proba_batch(features[:5]).shape == (5, len(model.classes))
