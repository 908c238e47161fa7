"""Per-claim training utility and expected verification cost.

Claim ordering (Section 5.2) weighs two quantities for every unverified
claim: its value as a training sample — the summed entropy of the property
classifiers' predicted distributions (Definition 7) — and its expected
verification cost under the question-planning cost model.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.claims.model import ClaimProperty
from repro.config import CostModelConfig
from repro.ml.base import Prediction
from repro.planning.costmodel import VerificationCostModel


def claim_training_utility(predictions: Mapping[ClaimProperty, Prediction]) -> float:
    """Training utility ``u(c)``: summed prediction entropy over the models."""
    return sum(prediction.entropy() for prediction in predictions.values())


def expected_claim_cost(
    predictions: Mapping[ClaimProperty, Prediction],
    option_count: int,
    screen_count: int | None = None,
    cost_model: VerificationCostModel | None = None,
    query_option_count: int | None = None,
) -> float:
    """Expected verification cost ``v(c)`` of one claim.

    The claim is verified through up to ``screen_count`` property screens
    (the most uncertain properties are asked first, mirroring the planner)
    followed by a final screen whose hit probability is approximated by the
    product of the per-property hit probabilities — if every property was
    confirmed among the displayed options, the generated query is very
    likely among the displayed candidates.
    """
    model = cost_model if cost_model is not None else VerificationCostModel(CostModelConfig())
    if screen_count is None:
        screen_count = model.corollary_budget().screen_count
    if query_option_count is None:
        query_option_count = option_count
    ordered = sorted(
        predictions.items(), key=lambda item: -item[1].entropy()
    )[: max(0, screen_count)]
    total = 0.0
    joint_hit = 1.0
    for _, prediction in ordered:
        probabilities = [probability for _, probability in prediction.top_k(option_count)]
        total += model.expected_property_screen_cost(probabilities)
        joint_hit *= min(1.0, sum(probabilities))
    # Final screen: assume the correct query appears with the joint hit
    # probability, spread uniformly over the displayed query options.
    if query_option_count > 0:
        final_probabilities = [joint_hit / query_option_count] * query_option_count
    else:
        final_probabilities = []
    total += model.expected_final_screen_cost(final_probabilities)
    return total
