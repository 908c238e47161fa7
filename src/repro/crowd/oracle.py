"""Ground-truth oracle answering planner questions.

The oracle plays the role of a perfectly informed domain expert: it answers
property screens with the claim's ground-truth labels and judges final
screens by comparing candidate query values against the reference value.
Simulated checkers wrap the oracle with human behaviour (reading time,
skipping, occasional mistakes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.claims.corpus import ClaimCorpus
from repro.claims.model import ClaimProperty
from repro.dataset.types import values_close
from repro.planning.screens import QueryOption, Screen


@dataclass(frozen=True)
class ScreenAnswer:
    """The oracle's answer to one property screen."""

    claim_property: ClaimProperty
    selected_labels: tuple[str, ...]
    #: Position (0-based) of the first correct option that was displayed,
    #: ``None`` when the checker had to suggest the answer instead.
    selected_position: int | None
    suggested: bool

    @property
    def displayed_hit(self) -> bool:
        return self.selected_position is not None


@dataclass(frozen=True)
class FinalAnswer:
    """The oracle's judgement of the final (full query) screen."""

    verdict: bool
    chosen_sql: str | None
    chosen_position: int | None
    suggested_value: float | None
    suggested: bool


class GroundTruthOracle:
    """Answers questions from the corpus ground truth."""

    def __init__(self, corpus: ClaimCorpus, value_tolerance: float = 0.05) -> None:
        self._corpus = corpus
        self._tolerance = value_tolerance

    # ------------------------------------------------------------------ #
    # property screens
    # ------------------------------------------------------------------ #
    def correct_labels(self, claim_id: str, claim_property: ClaimProperty) -> tuple[str, ...]:
        return self._corpus.ground_truth(claim_id).property_labels(claim_property)

    def answer_screen(self, claim_id: str, screen: Screen) -> ScreenAnswer:
        """Pick the correct displayed options, or suggest the right answer."""
        truth = set(self.correct_labels(claim_id, screen.claim_property))
        selected_position: int | None = None
        selected: list[str] = []
        for position, option in enumerate(screen.options):
            if option.label in truth:
                if selected_position is None:
                    selected_position = position
                selected.append(option.label)
        if selected:
            return ScreenAnswer(
                claim_property=screen.claim_property,
                selected_labels=tuple(selected),
                selected_position=selected_position,
                suggested=False,
            )
        return ScreenAnswer(
            claim_property=screen.claim_property,
            selected_labels=tuple(self.correct_labels(claim_id, screen.claim_property)),
            selected_position=None,
            suggested=True,
        )

    # ------------------------------------------------------------------ #
    # final screen
    # ------------------------------------------------------------------ #
    def answer_final(
        self, claim_id: str, query_options: tuple[QueryOption, ...] | list[QueryOption]
    ) -> FinalAnswer:
        """Judge the claim from the displayed candidate queries.

        The checker accepts the first candidate whose value matches the
        reference value of the claim's ground-truth query; the claim's
        verdict is then the ground truth's correctness flag.  When no
        candidate matches, the checker suggests the reference value (which
        still allows a verdict, at a higher cost).
        """
        truth = self._corpus.ground_truth(claim_id)
        reference = truth.expected_value
        chosen_position: int | None = None
        chosen_sql: str | None = None
        if reference is not None:
            for position, option in enumerate(query_options):
                if option.value is None:
                    continue
                if values_close(option.value, reference, self._tolerance):
                    chosen_position = position
                    chosen_sql = option.sql
                    break
        suggested = chosen_position is None
        return FinalAnswer(
            verdict=truth.is_correct,
            chosen_sql=chosen_sql if chosen_sql is not None else truth.sql or None,
            chosen_position=chosen_position,
            suggested_value=reference if suggested else None,
            suggested=suggested,
        )

    # ------------------------------------------------------------------ #
    # direct ground-truth access used by the simulators
    # ------------------------------------------------------------------ #
    def is_claim_correct(self, claim_id: str) -> bool:
        return self._corpus.ground_truth(claim_id).is_correct

    def reference_value(self, claim_id: str) -> float | None:
        return self._corpus.ground_truth(claim_id).expected_value

    def reference_sql(self, claim_id: str) -> str | None:
        return self._corpus.ground_truth(claim_id).sql or None

    def claim_complexity(self, claim_id: str) -> int:
        return self._corpus.ground_truth(claim_id).complexity
