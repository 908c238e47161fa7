"""The verification cost model of Section 5.1.

Constants ``vp``/``vf`` (verifying a property option / a full query option)
and ``sp``/``sf`` (suggesting a property answer / suggesting the full query)
drive every planning decision.  Theorem 1 bounds the relative verification
overhead of Scrutinizer by ``(nop * vf + nsc * (vp + sp)) / sf`` and
Corollary 1 picks ``nop`` and ``nsc`` so the bound equals three.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.config import CostModelConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ScreenBudget:
    """Number of screens and options chosen for a claim."""

    screen_count: int
    option_count: int


class VerificationCostModel:
    """Evaluates verification costs for question plans."""

    def __init__(self, config: CostModelConfig | None = None) -> None:
        self.config = config if config is not None else CostModelConfig()

    # ------------------------------------------------------------------ #
    # constants
    # ------------------------------------------------------------------ #
    @property
    def property_verify_cost(self) -> float:
        return self.config.property_verify_cost

    @property
    def query_verify_cost(self) -> float:
        return self.config.query_verify_cost

    @property
    def property_suggest_cost(self) -> float:
        return self.config.property_suggest_cost

    @property
    def query_suggest_cost(self) -> float:
        return self.config.query_suggest_cost

    @property
    def manual_cost(self) -> float:
        """Cost of verifying a claim without Scrutinizer (suggesting the query)."""
        return self.config.query_suggest_cost

    # ------------------------------------------------------------------ #
    # Theorem 1 / Corollary 1
    # ------------------------------------------------------------------ #
    def worst_case_overhead(self, option_count: int, screen_count: int) -> float:
        """Relative verification overhead bound of Theorem 1."""
        return self.config.worst_case_overhead_factor(option_count, screen_count)

    def corollary_budget(self) -> ScreenBudget:
        """The ``nop = sf/vf``, ``nsc = sf/(vp+sp)`` setting of Corollary 1."""
        return ScreenBudget(
            screen_count=self.config.default_screen_count,
            option_count=self.config.default_option_count,
        )

    # ------------------------------------------------------------------ #
    # expected costs (Theorem 2 and derived quantities)
    # ------------------------------------------------------------------ #
    def expected_property_screen_cost(self, option_probabilities: Sequence[float]) -> float:
        """Expected cost of one property screen.

        Reading cost follows Theorem 2 (``vp * sum_i (1 - sum_{j<i} p_j)``)
        and, with probability that no displayed option is correct, the
        worker additionally suggests an answer at cost ``sp``.
        """
        reading = expected_reading_cost(option_probabilities, self.property_verify_cost)
        miss_probability = max(0.0, 1.0 - min(1.0, sum(option_probabilities)))
        return reading + miss_probability * self.property_suggest_cost

    def expected_final_screen_cost(self, option_probabilities: Sequence[float]) -> float:
        """Expected cost of the final screen showing full candidate queries."""
        reading = expected_reading_cost(option_probabilities, self.query_verify_cost)
        miss_probability = max(0.0, 1.0 - min(1.0, sum(option_probabilities)))
        return reading + miss_probability * self.query_suggest_cost


def expected_reading_cost(option_probabilities: Sequence[float], per_option_cost: float) -> float:
    """Expected reading cost of an ordered option list (Theorem 2).

    ``vp * sum_{i=1..m} (1 - sum_{j<i} p_j)``: the ``i``-th option is read
    only if none of the previous options was the correct one.
    """
    if per_option_cost < 0:
        raise ConfigurationError("per-option cost must be non-negative")
    total = 0.0
    cumulative = 0.0
    for probability in option_probabilities:
        total += per_option_cost * max(0.0, 1.0 - cumulative)
        cumulative += max(0.0, probability)
    return total
