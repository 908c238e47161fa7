"""Vectorized batch scoring for claim ordering (Section 5.2).

Computes, for every pending claim at once, the two quantities batch
selection weighs: expected verification cost ``v(c)`` and training utility
``u(c)``.  The formulas mirror
:func:`repro.planning.utility.expected_claim_cost` and
:func:`repro.planning.utility.claim_training_utility` exactly — same screen
selection (most uncertain properties first, stable on ties), same Theorem 2
reading costs — but evaluated as array expressions over a
:class:`~repro.pipeline.batch.ClaimBatchPredictions` instead of one claim
at a time.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.config import CostModelConfig
from repro.errors import ConfigurationError
from repro.pipeline.batch import ClaimBatchPredictions
from repro.planning.costmodel import VerificationCostModel

if TYPE_CHECKING:  # pragma: no cover - the store is duck-typed at runtime
    from repro.store.outofcore import OutOfCoreClaimStore

__all__ = ["estimate_costs", "estimate_scores", "estimate_utilities"]


def estimate_utilities(batch: ClaimBatchPredictions) -> np.ndarray:
    """Training utility ``u(c)`` for every claim: summed prediction entropy.

    Properties absent for a claim (possible only in adapted batches) are
    zero-probability rows with entropy 0, so they contribute nothing —
    exactly like the scalar sum over a partial prediction dict.
    """
    return batch.entropy_matrix().sum(axis=1)


def estimate_scores(
    batch: ClaimBatchPredictions,
    option_count: int,
    screen_count: int | None = None,
    cost_model: VerificationCostModel | None = None,
    query_option_count: int | None = None,
    *,
    store: "OutOfCoreClaimStore | None" = None,
    generation: int | None = None,
    claim_ids: Sequence[str] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(v(c), u(c))`` for every claim of the batch in one pass.

    Cost and utility scoring both consume the batch's cached entropy
    matrix, so computing them together is what the planning hot path
    wants: one call per round over the pending pool.

    Pushdown-aware variant: pass ``store``/``generation``/``claim_ids`` to
    also upsert the scores into an
    :class:`~repro.store.outofcore.OutOfCoreClaimStore`'s per-generation
    score columns, so subsequent rounds can run the planner's per-section
    aggregates and dominance pre-filter *inside* SQLite
    (:meth:`~repro.planning.engine.PlannerEngine.plan_pushdown`) instead
    of re-materializing the pool in Python.
    """
    costs = estimate_costs(
        batch,
        option_count,
        screen_count=screen_count,
        cost_model=cost_model,
        query_option_count=query_option_count,
    )
    utilities = estimate_utilities(batch)
    if store is not None:
        if generation is None or claim_ids is None:
            raise ConfigurationError(
                "writing scores to a store requires generation and claim_ids"
            )
        if len(claim_ids) != len(batch):
            raise ConfigurationError(
                f"claim_ids has {len(claim_ids)} entries for a batch of "
                f"{len(batch)} claims"
            )
        store.write_scores(generation, claim_ids, costs, utilities)
    return costs, utilities


def estimate_costs(
    batch: ClaimBatchPredictions,
    option_count: int,
    screen_count: int | None = None,
    cost_model: VerificationCostModel | None = None,
    query_option_count: int | None = None,
) -> np.ndarray:
    """Expected verification cost ``v(c)`` for every claim of the batch."""
    model = cost_model if cost_model is not None else VerificationCostModel(CostModelConfig())
    if screen_count is None:
        screen_count = model.corollary_budget().screen_count
    if query_option_count is None:
        query_option_count = option_count

    claim_count = len(batch)
    properties = list(batch.by_property)
    if claim_count == 0:
        return np.zeros(0)
    if not properties:
        # No predictions at all: only the final screen, with no candidates.
        final = model.expected_final_screen_cost(
            [0.0] * query_option_count if query_option_count > 0 else []
        )
        return np.full(claim_count, final)

    # Per property: screen cost and hit probability for every claim.
    screen_costs = np.zeros((claim_count, len(properties)))
    hit_probabilities = np.zeros((claim_count, len(properties)))
    for column, claim_property in enumerate(properties):
        top = batch.by_property[claim_property].top_probabilities(option_count)
        # Theorem 2 reading cost: option i is read if none of the previous
        # options was correct.
        cumulative_before = np.hstack(
            [np.zeros((claim_count, 1)), np.cumsum(top, axis=1)[:, :-1]]
        )
        reading = model.property_verify_cost * np.clip(
            1.0 - cumulative_before, 0.0, None
        ).sum(axis=1)
        row_sums = top.sum(axis=1)
        miss = np.clip(1.0 - np.minimum(1.0, row_sums), 0.0, None)
        screen_costs[:, column] = reading + miss * model.property_suggest_cost
        hit_probabilities[:, column] = np.minimum(1.0, row_sums)

    # Properties a claim has no prediction for (adapted batches only) never
    # appear in the scalar path's dict: make selecting them a no-op (zero
    # cost, hit 1) and push them behind every present property.
    entropy_keys = batch.entropy_matrix()
    if batch.present is not None:
        absent = ~batch.present
        screen_costs[absent] = 0.0
        hit_probabilities[absent] = 1.0
        entropy_keys = np.where(absent, -np.inf, entropy_keys)

    # Select up to screen_count properties per claim, most uncertain first
    # (stable sort keeps the property order on entropy ties, matching the
    # scalar path).
    width = max(0, min(screen_count, len(properties)))
    totals = np.zeros(claim_count)
    joint_hit = np.ones(claim_count)
    if width > 0:
        order = np.argsort(-entropy_keys, axis=1, kind="stable")[:, :width]
        totals += np.take_along_axis(screen_costs, order, axis=1).sum(axis=1)
        joint_hit = np.take_along_axis(hit_probabilities, order, axis=1).prod(axis=1)

    # Final screen: the correct query appears with the joint hit
    # probability, spread uniformly over the displayed query options.
    if query_option_count > 0:
        per_option = joint_hit / query_option_count
        option_index = np.arange(query_option_count)
        reading = model.query_verify_cost * np.clip(
            1.0 - per_option[:, None] * option_index[None, :], 0.0, None
        ).sum(axis=1)
        miss = np.clip(1.0 - np.minimum(1.0, joint_hit), 0.0, None)
        totals += reading + miss * model.query_suggest_cost
    else:
        totals += model.query_suggest_cost
    return totals
