"""The batch planner: claim selection for Algorithm 1 (Definition 9).

Every session selects its next claim batch through :class:`PlannerEngine`.
The default :class:`~repro.planning.planner.QuestionPlanner` owns one, and
the serving layer points every tenant's planner at one shared instance.
Each round hands the engine candidates scored fresh by the current
classifiers, and the engine solves the claim-selection program exactly in
one of two regimes:

* **Pinned batch size** (no cost threshold, the paper's regime) — a pool
  that fits the batch is taken whole, and under the pure-utility objective
  the top ``max_batch_size`` utilities win.  Otherwise, taking ``k`` claims
  from a section always means its ``k`` best by per-claim objective
  weight, so the program collapses to one claim *count* per section and an
  exact dynamic program over sections replaces the MILP outright.
* **Genuine cost threshold** — the instance goes to
  :func:`~repro.planning.batching.select_claim_batch`, the dense MILP of
  Definition 9, whose greedy heuristic is the fallback when the solver
  fails.

Ties are broken deterministically in the pinned regime.  Among batches of
equal objective — always the case at cold start, when every claim scores
the same — the engine takes the lowest-index one: claims from earlier
sections (by section id) first, then lower claim indices within a section.
The dense MILP returns whichever optimum the solver happens to find.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

# The engine never calls a MILP solver itself.  The repository benchmark's
# tracer counts solves by patching a module attribute named ``milp`` here
# and in ``repro.planning.ilp``, and tests/test_perfbench_contract.py
# counts both patches, so the name stays importable from this module.
from scipy.optimize import milp  # noqa: F401

from repro.config import BatchingConfig
from repro.errors import InfeasibleSelectionError
from repro.planning.batching import (
    BatchCandidate,
    ClaimSelection,
    check_batch_feasibility,
    select_claim_batch,
)

__all__ = [
    "EngineStats",
    "FusionRequest",
    "PlannerEngine",
]


# --------------------------------------------------------------------------- #
# the repository benchmark's argument type
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FusionRequest:
    """One batch-selection problem: the argument type of
    :meth:`PlannerEngine.plan_fused`.

    It exists only because the repository benchmark's tracer wraps
    ``plan_fused``; no session plans through it.
    """

    candidates: tuple[BatchCandidate, ...]
    section_read_costs: Mapping[str, float]
    config: BatchingConfig | None = None


# --------------------------------------------------------------------------- #
# the engine
# --------------------------------------------------------------------------- #
@dataclass
class EngineStats:
    """Counters describing the engine's planning work."""

    plans: int = 0
    direct_solves: int = 0
    claims_seen: int = 0
    #: The engine prunes no claims, so ``claims_pruned`` always reads 0;
    #: the repository benchmark reads it.
    claims_pruned: int = 0
    #: Per-claim scores computed for planning by the sessions using this
    #: engine.  Every round scores its whole pending pool fresh, so
    #: ``scores_reused`` always reads 0.
    scores_computed: int = 0
    scores_reused: int = 0


class PlannerEngine:
    """Exact claim-batch planner, shareable across sessions.

    A serving layer points every tenant session at one engine so that its
    statistics aggregate over tenants.  Those statistics are the engine's
    only shared state, and they are lock-protected, because a serving
    scheduler runs tenant sessions concurrently on a thread pool.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self.stats = EngineStats()

    def record(self, **deltas: int) -> None:
        """Apply stat increments atomically (sessions plan concurrently)."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(
        self,
        candidates: Sequence[BatchCandidate],
        section_read_costs: Mapping[str, float],
        config: BatchingConfig | None = None,
    ) -> ClaimSelection:
        """Select the next batch (Definition 9) exactly.

        Semantics match :func:`~repro.planning.batching.select_claim_batch`:
        a ``None`` cost threshold pins the batch size to ``max_batch_size``,
        a positive ``utility_weight`` switches to the combined objective,
        and infeasible instances raise
        :class:`~repro.errors.InfeasibleSelectionError` naming the violated
        constraint.
        """
        config = config if config is not None else BatchingConfig()
        check_batch_feasibility(len(candidates), config)
        self.record(plans=1, claims_seen=len(candidates))
        if config.cost_threshold is not None:
            return select_claim_batch(candidates, section_read_costs, config=config)

        batch = min(config.max_batch_size, len(candidates))
        utilities = np.array([candidate.training_utility for candidate in candidates], dtype=float)
        if batch == len(candidates) or config.utility_weight <= 0:
            # No solver needed: a pool that fits the batch is taken whole;
            # under the pure-utility objective the top utilities win
            # regardless of sections (lowest index on ties).
            top = np.lexsort((np.arange(len(utilities)), -utilities))[:batch]
            chosen = sorted(int(index) for index in top)
            solver = "engine-direct"
        else:
            # The pool as arrays, sections indexed in sorted id order.
            section_ids = sorted({candidate.section_id for candidate in candidates})
            section_index = {section_id: index for index, section_id in enumerate(section_ids)}
            costs = np.array(
                [candidate.verification_cost for candidate in candidates], dtype=float
            )
            sections = np.array(
                [section_index[candidate.section_id] for candidate in candidates],
                dtype=np.int64,
            )
            read_costs = np.array(
                [
                    section_read_costs.get(section_id, config.section_read_cost)
                    for section_id in section_ids
                ],
                dtype=float,
            )
            chosen = self._solve_pinned_dp(
                costs - config.utility_weight * utilities, sections, read_costs, batch
            )
            solver = "engine-dp"
        self.record(direct_solves=1)
        return ClaimSelection.from_candidates(
            [candidates[index] for index in chosen], section_read_costs, solver
        )

    def plan_fused(self, requests: Sequence[FusionRequest]) -> list[ClaimSelection]:
        """:meth:`plan` each request in turn; selections in request order.

        Each session selects from its own scores (Definition 9), so
        planning sessions together cannot change a selection, and no
        session plans through this method.  It stays only because the
        repository benchmark's tracer wraps it by name.
        """
        return [
            self.plan(request.candidates, request.section_read_costs, config=request.config)
            for request in requests
        ]

    # ------------------------------------------------------------------ #
    # exact DP for the pinned-size regime (one count variable per section)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _solve_pinned_dp(
        weights: np.ndarray,
        claim_sections: np.ndarray,
        section_read_costs: np.ndarray,
        batch: int,
    ) -> list[int]:
        """Choose exactly ``batch`` claims minimising ``sum w_i`` plus one
        read cost per opened section; their indices, ascending.

        ``f_j(b)`` is the cheapest way to take ``b`` claims from the first
        ``j`` sections; taking ``k`` from section ``j`` costs the prefix sum
        of its ``k`` smallest weights (ties by lowest claim index) plus the
        section's read cost when ``k > 0``.  Exactly the Definition 9
        optimum because, for a fixed per-section count, the cheapest claims
        of that section are always the right ones.
        """
        infinity = float("inf")
        order = np.lexsort((np.arange(len(weights)), weights))
        best = np.full(batch + 1, infinity)
        best[0] = 0.0
        members_by_section: list[np.ndarray] = []
        choices: list[np.ndarray] = []
        for section in range(len(section_read_costs)):
            members = order[claim_sections[order] == section][:batch]
            members_by_section.append(members)
            prefix = np.concatenate([[0.0], np.cumsum(weights[members])])
            if len(members) >= 1:
                prefix[1:] += section_read_costs[section]
            updated = best.copy()
            choice = np.zeros(batch + 1, dtype=np.int64)
            for take in range(1, len(members) + 1):
                shifted = np.full(batch + 1, infinity)
                shifted[take:] = best[: batch + 1 - take] + prefix[take]
                improves = shifted < updated
                updated[improves] = shifted[improves]
                choice[improves] = take
            best = updated
            choices.append(choice)
        remaining = batch
        chosen: list[int] = []
        for section in range(len(section_read_costs) - 1, -1, -1):
            take = int(choices[section][remaining])
            if take:
                chosen.extend(int(index) for index in members_by_section[section][:take])
                remaining -= take
        if remaining:  # pragma: no cover - sum of caps always covers batch
            raise InfeasibleSelectionError(
                f"cannot fill a batch of {batch} claims", constraint="batch_bounds"
            )
        return sorted(chosen)
