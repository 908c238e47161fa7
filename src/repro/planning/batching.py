"""Claim-batch selection (Definitions 8–9, Theorem 7).

A batch of claims costs the sum of their expected verification costs plus
one reading cost per distinct section touched.  Subject to batch-size and
cost-threshold constraints, the selection maximises accumulated training
utility — an NP-hard problem (knapsack reduction, Theorem 7) delegated to
the ILP encoding of :mod:`repro.planning.ilp`.  :func:`select_claim_batch`
is that reference program: the test and benchmark oracle, and the solver
:class:`~repro.planning.engine.PlannerEngine` hands every instance with a
genuine cost threshold.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.config import BatchingConfig
from repro.errors import ConfigurationError, InfeasibleSelectionError
from repro.planning.ilp import solve_claim_selection_ilp


@dataclass(frozen=True)
class BatchCandidate:
    """One unverified claim as seen by the batch selector."""

    claim_id: str
    section_id: str
    verification_cost: float
    training_utility: float

    def __post_init__(self) -> None:
        if self.verification_cost < 0:
            raise ConfigurationError("verification cost must be non-negative")
        if self.training_utility < 0:
            raise ConfigurationError("training utility must be non-negative")


@dataclass(frozen=True)
class ClaimSelection:
    """The outcome of one batch-selection round."""

    claim_ids: tuple[str, ...]
    total_cost: float
    total_utility: float
    sections_read: tuple[str, ...]
    solver: str

    @property
    def batch_size(self) -> int:
        return len(self.claim_ids)

    @classmethod
    def from_candidates(
        cls,
        selected: Sequence[BatchCandidate],
        section_read_costs: Mapping[str, float],
        solver: str,
    ) -> "ClaimSelection":
        """The selection of ``selected``, in order, costed by :func:`batch_cost`."""
        return cls(
            claim_ids=tuple(candidate.claim_id for candidate in selected),
            total_cost=batch_cost(selected, section_read_costs),
            total_utility=sum(candidate.training_utility for candidate in selected),
            sections_read=tuple(sorted({candidate.section_id for candidate in selected})),
            solver=solver,
        )


def check_batch_feasibility(candidate_count: int, config: BatchingConfig) -> None:
    """Shared feasibility preamble of both batch planners.

    The pool must be non-empty, and under a genuine cost threshold the
    configured minimum batch must be fillable — previously the greedy
    fallback silently returned a short batch there.  In the pinned regime
    (no cost threshold) ``min_batch_size`` is replaced by the pin, so a
    final partial batch smaller than the configured minimum stays legal.
    Both :func:`select_claim_batch` and
    :meth:`repro.planning.engine.PlannerEngine.plan` call this, so the
    infeasibility contract lives in exactly one place.
    """
    if candidate_count == 0:
        raise InfeasibleSelectionError("no unverified claims remain", constraint="pool")
    if config.cost_threshold is not None and config.min_batch_size > candidate_count:
        raise InfeasibleSelectionError(
            f"minimum batch size {config.min_batch_size} exceeds the pending "
            f"pool ({candidate_count} claims)",
            constraint="min_batch_size",
        )


def batch_cost(
    candidates: Sequence[BatchCandidate],
    section_read_costs: Mapping[str, float],
) -> float:
    """Total cost ``t(C)`` of a batch (Definition 8)."""
    verification = sum(candidate.verification_cost for candidate in candidates)
    # Sorted, so the float sum does not follow the string hash seed.
    sections = sorted({candidate.section_id for candidate in candidates})
    reading = sum(section_read_costs.get(section, 0.0) for section in sections)
    return verification + reading


def select_claim_batch(
    candidates: Sequence[BatchCandidate],
    section_read_costs: Mapping[str, float],
    config: BatchingConfig | None = None,
) -> ClaimSelection:
    """Select the next batch of claims to verify (Definition 9).

    ``section_read_costs`` maps section ids to their skimming cost ``r(s)``;
    sections not listed default to the config's ``section_read_cost``.
    """
    config = config if config is not None else BatchingConfig()
    check_batch_feasibility(len(candidates), config)

    min_batch_size = config.min_batch_size
    max_batch_size = config.max_batch_size
    if config.cost_threshold is None:
        # Without a cost threshold the combined objective degenerates into
        # "select as few claims as possible"; the paper instead works with
        # fixed-size batches (100 claims per retraining round), so we pin the
        # batch size and let the objective choose *which* claims fill it.
        min_batch_size = min(max_batch_size, len(candidates))

    section_ids = sorted({candidate.section_id for candidate in candidates})
    section_index = {section_id: index for index, section_id in enumerate(section_ids)}
    read_costs = [
        section_read_costs.get(section_id, config.section_read_cost)
        for section_id in section_ids
    ]
    solution = solve_claim_selection_ilp(
        utilities=[candidate.training_utility for candidate in candidates],
        verification_costs=[candidate.verification_cost for candidate in candidates],
        claim_sections=[section_index[candidate.section_id] for candidate in candidates],
        section_read_costs=read_costs,
        min_batch_size=min_batch_size,
        max_batch_size=max_batch_size,
        cost_threshold=config.cost_threshold,
        utility_weight=config.utility_weight if config.utility_weight > 0 else None,
    )
    return ClaimSelection.from_candidates(
        [candidates[index] for index in solution.selected_indices],
        section_read_costs,
        solution.solver,
    )
