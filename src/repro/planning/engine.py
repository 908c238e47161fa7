"""The batch planner: claim selection for Algorithm 1 (Definition 9).

Every session selects its next claim batch through :class:`PlannerEngine`.
The default :class:`~repro.planning.planner.QuestionPlanner` owns one, and
the serving layer points every tenant's planner at one shared instance.
Each round hands the engine candidates scored fresh by the current
classifiers.  The engine solves the claim-selection program exactly — its
objective equals the dense MILP of
:func:`~repro.planning.batching.select_claim_batch`, which stays only as
the test and benchmark oracle — while shrinking the work:

* **Dominance pruning** — a claim that is no better in utility, verification
  cost and section cost than ``max_batch_size`` already-kept peers of the
  same section can never improve an optimal batch (swap it for an unused
  dominator: the objective does not worsen and no constraint tightens), so
  it never enters the MILP.  Without a cost threshold the per-section
  dominance order is total and each section keeps at most ``max_batch_size``
  claims — the variable count scales with distinct sections, not claims.
* **Per-section aggregation** — in the paper's default regime (no cost
  threshold, so the batch size is pinned) the program decomposes by
  section: taking ``k`` claims from a section always means its ``k`` best
  by per-claim objective weight, so the decision variables collapse to one
  claim *count* per section and an exact dynamic program over sections
  replaces the MILP outright.  Under a genuine cost threshold the MILP
  remains, but over the pruned pool, sparse, and with one aggregated
  linking row per section instead of one per claim.
* **Greedy warm start** — the greedy heuristic runs first on the pruned
  pool; its objective value becomes an incumbent bound row that tightens
  the MILP search, and its solution is the fallback when the MILP solver
  fails.

Ties are broken deterministically in the pinned regime.  Among batches of
equal objective — always the case at cold start, when every claim scores
the same — the engine takes the lowest-index one: claims from earlier
sections (by section id) first, then lower claim indices within a section.
The dense MILP returns whichever optimum the solver happens to find.
"""

from __future__ import annotations

import threading
from bisect import bisect_right, insort
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.config import BatchingConfig
from repro.errors import InfeasibleSelectionError
from repro.planning.batching import (
    BatchCandidate,
    ClaimSelection,
    batch_cost,
    check_batch_feasibility,
)
from repro.planning.ilp import IlpSolution, _solve_greedy

__all__ = [
    "EngineStats",
    "FusionRequest",
    "PlannerEngine",
    "dominance_prune",
]


# --------------------------------------------------------------------------- #
# dominance pruning
# --------------------------------------------------------------------------- #
def dominance_prune(
    utilities: np.ndarray,
    verification_costs: np.ndarray,
    claim_sections: np.ndarray,
    max_batch_size: int,
    *,
    cost_constrained: bool,
    utility_weight: float | None,
) -> np.ndarray:
    """Indices (ascending) of claims that can appear in some optimal batch.

    A claim is pruned when at least ``max_batch_size`` kept claims of the
    *same section* dominate it — are no worse in utility and verification
    cost (ties broken by lowest index).  Any batch containing the pruned
    claim then has a free dominator to swap in: the batch size is unchanged,
    the section is already open, the objective does not worsen and (since
    the dominator is no more expensive) a cost threshold stays satisfied.
    Pruning therefore never changes the optimal objective value.

    Without a cost constraint the dominance order is total — the scalar
    per-claim objective weight decides — so each section keeps exactly its
    best ``max_batch_size`` claims.  With a cost constraint the order is the
    two-dimensional Pareto order (utility up, cost down).
    """
    claim_count = len(utilities)
    keep = np.ones(claim_count, dtype=bool)
    order = np.arange(claim_count)
    for section in np.unique(claim_sections):
        members = order[claim_sections == section]
        if len(members) <= max_batch_size:
            continue
        if not cost_constrained:
            # Total order: the per-claim objective contribution alone decides
            # (pure utility ignores costs; the combined objective weighs
            # w_i = v_i - wu * u_i).  Keep the best max_batch_size claims.
            if utility_weight is None:
                weights = -utilities[members]
            else:
                weights = (
                    verification_costs[members] - utility_weight * utilities[members]
                )
            ranked = members[np.lexsort((members, weights))]
            keep[ranked[max_batch_size:]] = False
            continue
        # Pareto order: sweep by utility descending (cost, index ascending);
        # every earlier kept claim with cost <= ours dominates us.
        ranked = members[
            np.lexsort((members, verification_costs[members], -utilities[members]))
        ]
        kept_costs: list[float] = []
        for index in ranked:
            dominators = bisect_right(kept_costs, float(verification_costs[index]))
            if dominators >= max_batch_size:
                keep[index] = False
            else:
                insort(kept_costs, float(verification_costs[index]))
    return order[keep]


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
    """Counters describing how much work the engine avoided."""

    plans: int = 0
    milp_solves: int = 0
    greedy_fallbacks: int = 0
    direct_solves: int = 0
    claims_seen: int = 0
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
        """Select the next batch (Definition 9), exactly but adaptively.

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

        min_batch = config.min_batch_size
        max_batch = min(config.max_batch_size, len(candidates))
        threshold = config.cost_threshold
        if threshold is None:
            min_batch = max_batch
        weight = config.utility_weight if config.utility_weight > 0 else None
        # The pool as arrays, sections indexed in sorted id order.
        section_ids = sorted({candidate.section_id for candidate in candidates})
        section_index = {section_id: index for index, section_id in enumerate(section_ids)}
        utilities = np.array([candidate.training_utility for candidate in candidates], dtype=float)
        costs = np.array([candidate.verification_cost for candidate in candidates], dtype=float)
        sections = np.array(
            [section_index[candidate.section_id] for candidate in candidates], dtype=np.int64
        )
        read_costs = np.array(
            [
                section_read_costs.get(section_id, config.section_read_cost)
                for section_id in section_ids
            ],
            dtype=float,
        )

        # Pinned-size selections that need no solver: a pool that fits the
        # batch is taken whole; under the pure-utility objective the top
        # max_batch utilities win regardless of sections (lowest index on
        # ties).
        if threshold is None and (max_batch >= len(candidates) or weight is None):
            top = np.lexsort((np.arange(len(utilities)), -utilities))[:max_batch]
            self.record(direct_solves=1)
            return self._selection(
                candidates, sorted(int(index) for index in top), section_read_costs,
                "engine-direct",
            )

        kept = dominance_prune(
            utilities,
            costs,
            sections,
            max_batch,
            cost_constrained=threshold is not None,
            utility_weight=weight,
        )
        self.record(claims_pruned=len(candidates) - len(kept))

        # Compact the section space to sections that survived pruning.
        kept_sections_raw = sections[kept]
        live_sections = np.unique(kept_sections_raw)
        remap = {int(section): position for position, section in enumerate(live_sections)}
        kept_sections = np.array(
            [remap[int(section)] for section in kept_sections_raw], dtype=np.int64
        )
        kept_utilities = utilities[kept]
        kept_costs = costs[kept]
        kept_read_costs = read_costs[live_sections]

        if threshold is None:
            # Pinned batch size, combined objective (the paper's default
            # regime): taking k claims from a section always means its k
            # smallest objective weights, so the program collapses to one
            # count per section — solved exactly by a DP over sections, no
            # MILP at all.
            selected_kept, _ = self._solve_pinned_dp(
                kept_costs - weight * kept_utilities,
                kept_sections,
                kept_read_costs,
                max_batch,
            )
            self.record(direct_solves=1)
            chosen = sorted(int(kept[index]) for index in selected_kept)
            return self._selection(candidates, chosen, section_read_costs, "engine-dp")

        # Greedy warm start: incumbent bound for the MILP, fallback solution
        # when the solver fails.
        incumbent: IlpSolution | None = None
        incumbent_error: InfeasibleSelectionError | None = None
        try:
            incumbent = _solve_greedy(
                kept_utilities,
                kept_costs,
                kept_sections,
                kept_read_costs,
                min_batch,
                max_batch,
                threshold,
                weight,
            )
        except InfeasibleSelectionError as error:
            incumbent_error = error

        solution = self._solve_milp(
            kept_utilities,
            kept_costs,
            kept_sections,
            kept_read_costs,
            min_batch,
            max_batch,
            threshold,
            weight,
            incumbent.objective_value if incumbent is not None else None,
        )
        if solution is not None:
            self.record(milp_solves=1)
            solver = "engine-milp"
        elif incumbent is not None:
            self.record(greedy_fallbacks=1)
            solution = incumbent
            solver = "engine-greedy"
        elif incumbent_error is not None:
            raise incumbent_error
        else:  # pragma: no cover - greedy either solves or raises
            raise InfeasibleSelectionError(
                "no feasible claim batch exists", constraint="cost_threshold"
            )
        # Only the cost-threshold regime reaches this point (the pinned
        # regime returned through a shortcut or the DP above), and there an
        # empty optimum stands: filling the batch anyway could blow the
        # budget.
        chosen = sorted(int(kept[index]) for index in solution.selected_indices)
        return self._selection(candidates, chosen, section_read_costs, solver)

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
    ) -> tuple[list[int], float]:
        """Choose exactly ``batch`` claims minimising ``sum w_i`` plus one
        read cost per opened section.

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
        return sorted(chosen), float(best[batch])

    # ------------------------------------------------------------------ #
    # sparse MILP with aggregated linking and an incumbent bound
    # ------------------------------------------------------------------ #
    def _solve_milp(
        self,
        utilities: np.ndarray,
        verification_costs: np.ndarray,
        claim_sections: np.ndarray,
        section_read_costs: np.ndarray,
        min_batch_size: int,
        max_batch_size: int,
        cost_threshold: float | None,
        utility_weight: float | None,
        incumbent_objective: float | None,
    ) -> IlpSolution | None:
        claim_count = len(utilities)
        section_count = len(section_read_costs)
        variable_count = claim_count + section_count

        objective = np.zeros(variable_count)
        if utility_weight is None:
            objective[:claim_count] = -utilities
        else:
            objective[:claim_count] = verification_costs - utility_weight * utilities
            objective[claim_count:] = section_read_costs

        counts = np.bincount(claim_sections, minlength=section_count)
        # Row 0: batch size over the claim variables.  Rows 1..S: aggregated
        # linking, sum_{i in s} cs_i - n_s * sr_s <= 0 (same integer
        # solutions as the per-claim rows, section-many instead of
        # claim-many).
        rows = np.concatenate(
            [
                np.zeros(claim_count, dtype=np.int64),
                1 + claim_sections,
                1 + np.arange(section_count),
            ]
        )
        columns = np.concatenate(
            [
                np.arange(claim_count),
                np.arange(claim_count),
                claim_count + np.arange(section_count),
            ]
        )
        values = np.concatenate(
            [np.ones(claim_count), np.ones(claim_count), -counts.astype(float)]
        )
        blocks = [
            sparse.csr_matrix(
                (values, (rows, columns)), shape=(1 + section_count, variable_count)
            )
        ]
        lower = [float(min_batch_size)] + [-np.inf] * section_count
        upper = [float(max_batch_size)] + [0.0] * section_count

        if cost_threshold is not None:
            cost_row = np.concatenate([verification_costs, section_read_costs])
            blocks.append(sparse.csr_matrix(cost_row[None, :]))
            lower.append(-np.inf)
            upper.append(float(cost_threshold))
        if incumbent_objective is not None:
            # The greedy incumbent bounds the optimum from above (minimise
            # form); the cut prunes the solver's search tree.  A small slack
            # keeps float noise from cutting off the true optimum.
            blocks.append(sparse.csr_matrix(objective[None, :]))
            lower.append(-np.inf)
            upper.append(
                float(incumbent_objective) + 1e-9 * (1.0 + abs(incumbent_objective))
            )

        constraints = LinearConstraint(
            sparse.vstack(blocks, format="csr"),
            np.asarray(lower),
            np.asarray(upper),
        )
        result = milp(
            c=objective,
            constraints=constraints,
            integrality=np.ones(variable_count),
            bounds=Bounds(0, 1),
        )
        if not result.success or result.x is None:
            return None
        selection = tuple(
            index for index in range(claim_count) if result.x[index] > 0.5
        )
        return IlpSolution(
            selected_indices=selection,
            objective_value=float(result.fun),
            solver="scipy-milp",
            optimal=True,
        )

    # ------------------------------------------------------------------ #
    # result construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _selection(
        candidates: Sequence[BatchCandidate],
        chosen: Iterable[int],
        section_read_costs: Mapping[str, float],
        solver: str,
    ) -> ClaimSelection:
        selected = [candidates[index] for index in chosen]
        sections_read = tuple(
            sorted({candidate.section_id for candidate in selected})
        )
        return ClaimSelection(
            claim_ids=tuple(candidate.claim_id for candidate in selected),
            total_cost=batch_cost(selected, dict(section_read_costs)),
            total_utility=sum(candidate.training_utility for candidate in selected),
            sections_read=sections_read,
            solver=solver,
        )
