"""The question-planning facade used by the main verification loop.

``QuestionPlanner`` bundles the two planning tasks of Section 5: building
the optimal question sequence for one claim (screens, options, final query
candidates) and selecting the next batch of claims to verify.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.claims.model import Claim, ClaimProperty
from repro.config import ScrutinizerConfig
from repro.ml.base import Prediction
from repro.pipeline.batch import ClaimBatchPredictions
from repro.planning.batching import BatchCandidate, ClaimSelection
from repro.planning.costmodel import VerificationCostModel
from repro.planning.engine import PlannerEngine
from repro.planning.options import options_from_prediction, order_options
from repro.planning.pruning import PruningPowerCalculator
from repro.planning.scoring import estimate_costs, estimate_scores, estimate_utilities
from repro.planning.screens import QueryOption, QuestionPlan, Screen
from repro.planning.utility import claim_training_utility, expected_claim_cost
from repro.translation.querygen import QueryGenerationResult

if TYPE_CHECKING:  # pragma: no cover - the protocols live in repro.api,
    # which sits above planning; only the annotations need them.
    from repro.api.protocols import AnswerSource, TranslationBackend


class QuestionPlanner:
    """Cost-based planner for questions and claim batches."""

    def __init__(
        self,
        config: ScrutinizerConfig | None = None,
        engine: PlannerEngine | None = None,
    ) -> None:
        self.config = config if config is not None else ScrutinizerConfig()
        self.cost_model = VerificationCostModel(self.config.cost_model)
        #: The :class:`~repro.planning.engine.PlannerEngine` every batch is
        #: selected through: the planner's own by default, or one shared
        #: by every session of a server (assign it here).
        self.engine = engine if engine is not None else PlannerEngine()

    # ------------------------------------------------------------------ #
    # single-claim question planning (Section 5.1)
    # ------------------------------------------------------------------ #
    def plan_questions(
        self,
        claim: Claim,
        predictions: Mapping[ClaimProperty, Prediction],
        generation: QueryGenerationResult | None = None,
        screen_count: int | None = None,
        option_count: int | None = None,
    ) -> QuestionPlan:
        """Build the question sequence for one claim.

        Screens are chosen greedily by pruning power over the candidate
        queries produced by tentative execution; when no candidates are
        available yet (e.g. before the context is validated) every property
        is a potential screen and selection falls back to uncertainty order.
        """
        if screen_count is None:
            screen_count = min(
                self.config.resolved_screen_count(), len(ClaimProperty.ordered())
            )
        if option_count is None:
            option_count = self.config.resolved_option_count()

        candidate_descriptions = (
            _describe_candidates(generation) if generation is not None else []
        )
        answer_probabilities = {
            claim_property: prediction.as_dict()
            for claim_property, prediction in predictions.items()
        }
        pruning_power = 0.0
        if candidate_descriptions:
            calculator = PruningPowerCalculator(candidate_descriptions, answer_probabilities)
            selected_properties = calculator.greedy_select(
                list(ClaimProperty.ordered()), screen_count
            )
            pruning_power = calculator.pruning_power(selected_properties)
            if not selected_properties:
                selected_properties = self._uncertainty_order(predictions)[:screen_count]
        else:
            selected_properties = self._uncertainty_order(predictions)[:screen_count]

        screens = []
        expected_cost = 0.0
        for claim_property in selected_properties:
            prediction = predictions[claim_property]
            options = order_options(options_from_prediction(prediction, option_count))
            screens.append(Screen(claim_property=claim_property, options=tuple(options)))
            expected_cost += self.cost_model.expected_property_screen_cost(
                [option.probability for option in options]
            )

        query_options = self._query_options(generation, option_count)
        expected_cost += self.cost_model.expected_final_screen_cost(
            [option.probability for option in query_options]
        )
        return QuestionPlan(
            claim_id=claim.claim_id,
            screens=tuple(screens),
            query_options=tuple(query_options),
            expected_cost=expected_cost,
            pruning_power=pruning_power,
        )

    def plan_claim(
        self,
        claim: Claim,
        predictions: Mapping[ClaimProperty, Prediction],
        translator: TranslationBackend,
        answer_source: AnswerSource,
    ) -> QuestionPlan:
        """Two-phase planning: context screens first, then the final screen.

        ``predictions`` is the claim's row of the batch predictions.  The
        crowd validates the context (relations, keys, attributes) on the
        first plan's screens; query generation runs on that context, and its
        candidates populate the final screen — the workflow of Sections
        3.1 and 4.3.
        """
        context_plan = self.plan_questions(claim, predictions)
        validated_context = {
            screen.claim_property: answer_source.answer_screen(
                claim.claim_id, screen
            ).selected_labels
            for screen in context_plan.screens
            if screen.claim_property is not ClaimProperty.FORMULA
        }
        translation = translator.translate(claim, predictions, validated_context)
        return self.plan_questions(claim, predictions, translation.generation)

    @staticmethod
    def _uncertainty_order(
        predictions: Mapping[ClaimProperty, Prediction]
    ) -> list[ClaimProperty]:
        """Properties ordered from most to least uncertain prediction."""
        return [
            claim_property
            for claim_property, _ in sorted(
                predictions.items(), key=lambda item: -item[1].entropy()
            )
        ]

    def _query_options(
        self, generation: QueryGenerationResult | None, option_count: int
    ) -> list[QueryOption]:
        if generation is None:
            return []
        ranked = list(generation.candidates) + list(generation.alternatives)
        # Candidates whose tentative results coincide carry no extra
        # information for the checker; keep the first of each distinct value
        # so the displayed list covers more alternatives.
        deduplicated = []
        seen_values: set[float] = set()
        for candidate in ranked:
            rounded = round(candidate.value, 9) if candidate.value is not None else None
            if rounded is not None and rounded in seen_values:
                continue
            if rounded is not None:
                seen_values.add(rounded)
            deduplicated.append(candidate)
        ranked = deduplicated[:option_count]
        if not ranked:
            return []
        # Matching candidates are far more likely to be the intended query;
        # weight them three times higher before normalising.
        weights = [3.0 if candidate.matches_parameter else 1.0 for candidate in ranked]
        total = sum(weights)
        return [
            QueryOption(
                sql=candidate.sql,
                value=candidate.value,
                probability=weight / total if total > 0 else 0.0,
                matches_parameter=candidate.matches_parameter,
            )
            for candidate, weight in zip(ranked, weights)
        ]

    # ------------------------------------------------------------------ #
    # per-claim estimates used by batching
    # ------------------------------------------------------------------ #
    def estimate_cost(self, predictions: Mapping[ClaimProperty, Prediction]) -> float:
        """Expected verification cost ``v(c)`` for one claim."""
        return expected_claim_cost(
            predictions,
            option_count=self.config.resolved_option_count(),
            screen_count=min(
                self.config.resolved_screen_count(), len(ClaimProperty.ordered())
            ),
            cost_model=self.cost_model,
        )

    def estimate_utility(self, predictions: Mapping[ClaimProperty, Prediction]) -> float:
        """Training utility ``u(c)`` for one claim."""
        return claim_training_utility(predictions)

    def estimate_costs_batch(self, batch: ClaimBatchPredictions) -> np.ndarray:
        """Expected verification cost for every claim of a batch at once.

        Vectorized equivalent of calling :meth:`estimate_cost` per claim:
        the per-batch planning hot path scores all pending claims from the
        batch's probability matrices instead of dicts-of-dicts.
        """
        return estimate_costs(
            batch,
            option_count=self.config.resolved_option_count(),
            screen_count=min(
                self.config.resolved_screen_count(), len(ClaimProperty.ordered())
            ),
            cost_model=self.cost_model,
        )

    def estimate_utilities_batch(self, batch: ClaimBatchPredictions) -> np.ndarray:
        """Training utility for every claim of a batch at once."""
        return estimate_utilities(batch)

    def estimate_scores_batch(
        self, batch: ClaimBatchPredictions
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(costs, utilities)`` for every claim of a batch in one pass."""
        return estimate_scores(
            batch,
            option_count=self.config.resolved_option_count(),
            screen_count=min(
                self.config.resolved_screen_count(), len(ClaimProperty.ordered())
            ),
            cost_model=self.cost_model,
        )

    # ------------------------------------------------------------------ #
    # claim ordering (Section 5.2)
    # ------------------------------------------------------------------ #
    def plan_batch(
        self,
        candidates: Sequence[BatchCandidate],
        section_read_costs: Mapping[str, float],
        document_order: Sequence[str] | None = None,
    ) -> ClaimSelection:
        """Select the next batch of claims to verify.

        With claim ordering disabled (the *Sequential* baseline) the first
        ``max_batch_size`` claims in document order are returned instead of
        solving for the batch.
        """
        if not self.config.claim_ordering:
            ordered = list(candidates)
            if document_order is not None:
                position = {claim_id: index for index, claim_id in enumerate(document_order)}
                ordered.sort(key=lambda candidate: position.get(candidate.claim_id, 1 << 30))
            return ClaimSelection.from_candidates(
                ordered[: self.config.batching.max_batch_size],
                section_read_costs,
                "sequential",
            )
        return self.engine.plan(
            candidates, dict(section_read_costs), config=self.config.batching
        )


def _describe_candidates(generation: QueryGenerationResult) -> list[dict[ClaimProperty, str]]:
    """Property-wise description of each candidate query for pruning power."""
    descriptions: list[dict[ClaimProperty, str]] = []
    for candidate in list(generation.candidates) + list(generation.alternatives):
        instantiated = candidate.instantiated
        references = list(instantiated.value_assignment.values())
        description: dict[ClaimProperty, str] = {
            ClaimProperty.FORMULA: instantiated.formula.render(),
        }
        if references:
            description[ClaimProperty.RELATION] = references[0].relation
            description[ClaimProperty.KEY] = references[0].key
            description[ClaimProperty.ATTRIBUTE] = references[0].attribute
        descriptions.append(description)
    return descriptions
