"""Evaluation metrics for the property classifiers.

Figures 8–10 of the paper report classifier accuracy, its evolution over the
verification period and top-k accuracy per classifier; these helpers compute
exactly those quantities.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import Prediction


def accuracy(predictions: Sequence[Prediction], truths: Sequence[str]) -> float:
    """Fraction of predictions whose top label matches the ground truth."""
    return top_k_accuracy(predictions, truths, k=1)


def top_k_accuracy(predictions: Sequence[Prediction], truths: Sequence[str], k: int) -> float:
    """Fraction of samples whose truth appears within the top-``k`` labels."""
    if k < 1:
        raise ConfigurationError("k must be at least 1")
    if len(predictions) != len(truths):
        raise ConfigurationError("predictions and truths must be aligned")
    if not predictions:
        return 0.0
    hits = 0
    for prediction, truth in zip(predictions, truths):
        top_labels = [label for label, _ in prediction.top_k(k)]
        if truth in top_labels:
            hits += 1
    return hits / len(predictions)


def entropy(probabilities: Sequence[float]) -> float:
    """Shannon entropy (nats) of a probability vector."""
    array = np.asarray(probabilities, dtype=float)
    if array.size == 0:
        return 0.0
    total = array.sum()
    if total <= 0:
        return 0.0
    normalised = array / total
    positive = normalised[normalised > 0]
    return float(-np.sum(positive * np.log(positive)))


def top_k_curve(
    predictions: Sequence[Prediction], truths: Sequence[str], max_k: int
) -> list[tuple[int, float]]:
    """Top-k accuracy for every ``k`` in ``1..max_k`` (Figure 10 series)."""
    return [(k, top_k_accuracy(predictions, truths, k)) for k in range(1, max_k + 1)]
