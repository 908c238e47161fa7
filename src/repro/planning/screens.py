"""Question screens presented to fact checkers.

Each claim is verified through a series of screens (Section 5.1): every
screen but the last asks about one query property and shows ranked answer
options; the final screen shows full candidate queries with their tentative
results (Figure 3).  The screens here are plain data structures — the paper's
web UI is out of scope — consumed by the simulated crowd.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.claims.model import ClaimProperty
from repro.planning.options import AnswerOption


@dataclass(frozen=True)
class Screen:
    """One question screen about a single query property."""

    claim_property: ClaimProperty
    options: tuple[AnswerOption, ...]
    allow_suggestion: bool = True

    @property
    def option_count(self) -> int:
        return len(self.options)


@dataclass(frozen=True)
class QueryOption:
    """A full candidate query shown on the final screen."""

    sql: str
    value: float | None
    probability: float
    matches_parameter: bool = False


@dataclass(frozen=True)
class QuestionPlan:
    """The optimal question sequence chosen for one claim."""

    claim_id: str
    screens: tuple[Screen, ...]
    query_options: tuple[QueryOption, ...] = field(default_factory=tuple)
    expected_cost: float = 0.0
    pruning_power: float = 0.0

    @property
    def screen_count(self) -> int:
        return len(self.screens)
