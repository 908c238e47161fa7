"""Answer options shown on question screens (Theorem 2 / Corollary 2)."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.ml.base import Prediction
from repro.planning.costmodel import expected_reading_cost


@dataclass(frozen=True)
class AnswerOption:
    """One displayed answer option with its classifier probability."""

    label: str
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("option probability must be within [0, 1]")


def order_options(options: Sequence[AnswerOption]) -> list[AnswerOption]:
    """Sort options by decreasing probability (Corollary 2).

    Presenting higher-probability options first minimises the expected
    verification cost of Theorem 2.
    """
    return sorted(options, key=lambda option: (-option.probability, option.label))


def options_from_prediction(prediction: Prediction, count: int) -> list[AnswerOption]:
    """Build the top-``count`` answer options from a classifier prediction."""
    if count < 1:
        raise ConfigurationError("count must be at least 1")
    return [
        AnswerOption(label=label, probability=probability)
        for label, probability in prediction.top_k(count)
    ]


def expected_option_cost(options: Sequence[AnswerOption], per_option_cost: float) -> float:
    """Expected verification cost of an ordered option list (Theorem 2)."""
    return expected_reading_cost([option.probability for option in options], per_option_cost)


def hit_probability(options: Sequence[AnswerOption]) -> float:
    """Probability that the correct answer is among the displayed options."""
    return min(1.0, sum(option.probability for option in options))
