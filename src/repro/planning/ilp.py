"""Integer-linear-programming encoding of claim selection (Definition 9).

Binary variables ``cs_i`` select claims and ``sr_j`` mark sections that must
be skimmed.  Constraints bound the batch size, link claims to their
sections (``sr_j >= cs_i``) and optionally cap the accumulated verification
plus reading cost.  The objective maximises training utility, or the
combined form ``t(B) - wu * sum u(c)`` when a utility weight is given.

The paper uses Gurobi; we encode the identical program for
``scipy.optimize.milp`` (HiGHS) and fall back to a greedy knapsack-style
heuristic when ``use_milp`` is off or the MILP solver fails.

``cost_threshold`` semantics: ``None`` (the default) disables the cost
constraint entirely.  Any float — including ``0.0`` — is a genuine budget:
a zero budget with nonzero-cost claims and a positive minimum batch size is
infeasible and raises :class:`~repro.errors.InfeasibleSelectionError`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.errors import ConfigurationError, InfeasibleSelectionError


@dataclass(frozen=True)
class IlpSolution:
    """Solver output: indices of selected claims and solution metadata."""

    selected_indices: tuple[int, ...]
    objective_value: float
    solver: str
    optimal: bool


def solve_claim_selection_ilp(
    utilities: Sequence[float],
    verification_costs: Sequence[float],
    claim_sections: Sequence[int],
    section_read_costs: Sequence[float],
    min_batch_size: int,
    max_batch_size: int,
    cost_threshold: float | None = None,
    utility_weight: float | None = None,
    use_milp: bool = True,
) -> IlpSolution:
    """Solve one claim-selection instance.

    Parameters mirror Definition 9: ``utilities`` are ``u(c_i)``,
    ``verification_costs`` are ``v(c_i)``, ``claim_sections`` maps each claim
    to a section index, ``section_read_costs`` are ``r(s_j)``.  When
    ``utility_weight`` is ``None`` the objective is pure utility
    maximisation subject to the cost threshold; otherwise the combined
    objective ``t(B) - wu * sum u(c)`` is minimised.  ``cost_threshold=None``
    disables the cost constraint; ``0.0`` is a genuine zero budget.
    """
    claim_count = len(utilities)
    if claim_count != len(verification_costs) or claim_count != len(claim_sections):
        raise ConfigurationError("utilities, costs and sections must be aligned")
    if claim_count == 0:
        raise InfeasibleSelectionError(
            "no unverified claims to select from", constraint="pool"
        )
    section_count = len(section_read_costs)
    if any(section < 0 or section >= section_count for section in claim_sections):
        raise ConfigurationError("claim_sections references an unknown section index")
    cost_threshold = _check_cost_threshold(cost_threshold)
    min_batch_size = max(0, min_batch_size)
    if min_batch_size > claim_count:
        raise InfeasibleSelectionError(
            f"minimum batch size {min_batch_size} exceeds the pending pool "
            f"({claim_count} claims)",
            constraint="min_batch_size",
        )
    max_batch_size = min(max_batch_size, claim_count)
    if min_batch_size > max_batch_size:
        raise InfeasibleSelectionError(
            f"batch bounds are infeasible: [{min_batch_size}, {max_batch_size}]",
            constraint="batch_bounds",
        )
    if use_milp:
        solution = _solve_with_milp(
            utilities,
            verification_costs,
            claim_sections,
            section_read_costs,
            min_batch_size,
            max_batch_size,
            cost_threshold,
            utility_weight,
        )
        if solution is not None:
            return solution
    return _solve_greedy(
        utilities,
        verification_costs,
        claim_sections,
        section_read_costs,
        min_batch_size,
        max_batch_size,
        cost_threshold,
        utility_weight,
    )


def _check_cost_threshold(cost_threshold: float | None) -> float | None:
    """Validate the threshold (``None`` disables it, ``0.0`` is a zero budget)."""
    if cost_threshold is None:
        return None
    if cost_threshold < 0:
        raise ConfigurationError("cost_threshold must be non-negative (or None)")
    return float(cost_threshold)


# --------------------------------------------------------------------------- #
# MILP encoding
# --------------------------------------------------------------------------- #
def _solve_with_milp(
    utilities: Sequence[float],
    verification_costs: Sequence[float],
    claim_sections: Sequence[int],
    section_read_costs: Sequence[float],
    min_batch_size: int,
    max_batch_size: int,
    cost_threshold: float | None,
    utility_weight: float | None,
) -> IlpSolution | None:
    claim_count = len(utilities)
    section_count = len(section_read_costs)
    variable_count = claim_count + section_count

    # Objective: minimise either -sum(u_i * cs_i), or the combined
    # t(B) - wu * sum(u_i * cs_i) where t(B) includes section reading costs.
    objective = np.zeros(variable_count)
    if utility_weight is None:
        objective[:claim_count] = -np.asarray(utilities, dtype=float)
    else:
        objective[:claim_count] = (
            np.asarray(verification_costs, dtype=float)
            - utility_weight * np.asarray(utilities, dtype=float)
        )
        objective[claim_count:] = np.asarray(section_read_costs, dtype=float)

    constraint_rows: list[np.ndarray] = []
    lower_bounds: list[float] = []
    upper_bounds: list[float] = []

    # Batch size: bl <= sum cs_i <= bu.
    size_row = np.zeros(variable_count)
    size_row[:claim_count] = 1.0
    constraint_rows.append(size_row)
    lower_bounds.append(float(min_batch_size))
    upper_bounds.append(float(max_batch_size))

    # Linking: cs_i - sr_{s(i)} <= 0.
    for claim_index, section_index in enumerate(claim_sections):
        row = np.zeros(variable_count)
        row[claim_index] = 1.0
        row[claim_count + section_index] = -1.0
        constraint_rows.append(row)
        lower_bounds.append(-np.inf)
        upper_bounds.append(0.0)

    # Cost threshold: sum cs_i v_i + sum sr_j r_j <= tm.
    if cost_threshold is not None:
        cost_row = np.zeros(variable_count)
        cost_row[:claim_count] = np.asarray(verification_costs, dtype=float)
        cost_row[claim_count:] = np.asarray(section_read_costs, dtype=float)
        constraint_rows.append(cost_row)
        lower_bounds.append(-np.inf)
        upper_bounds.append(float(cost_threshold))

    constraints = LinearConstraint(
        np.vstack(constraint_rows), np.asarray(lower_bounds), np.asarray(upper_bounds)
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


# --------------------------------------------------------------------------- #
# greedy fallback
# --------------------------------------------------------------------------- #
def _solve_greedy(
    utilities: Sequence[float],
    verification_costs: Sequence[float],
    claim_sections: Sequence[int],
    section_read_costs: Sequence[float],
    min_batch_size: int,
    max_batch_size: int,
    cost_threshold: float | None,
    utility_weight: float | None,
) -> IlpSolution:
    """Greedy knapsack-style heuristic used when the MILP solver is unavailable.

    Claims are taken best-score first; ties break by lowest claim index so
    equal-score claims select in the same order on every platform (matching
    the batched k-NN convention).  Candidates that would exceed the cost
    threshold are skipped — not stopped at — so a cheaper claim further down
    the ranking can still fill the batch; if the budget cannot accommodate
    ``min_batch_size`` claims the instance is infeasible and raises.
    """
    claim_count = len(utilities)
    selected: list[int] = []
    opened_sections: set[int] = set()
    accumulated_cost = 0.0

    def marginal_cost(index: int) -> float:
        extra = float(verification_costs[index])
        if claim_sections[index] not in opened_sections:
            extra += float(section_read_costs[claim_sections[index]])
        return extra

    def score(index: int) -> float:
        if utility_weight is None:
            cost = marginal_cost(index)
            return utilities[index] / cost if cost > 0 else utilities[index]
        return utility_weight * utilities[index] - marginal_cost(index)

    remaining = list(range(claim_count))
    while remaining and len(selected) < max_batch_size:
        remaining.sort(key=lambda index: (-score(index), index))
        chosen_position: int | None = None
        for position, candidate in enumerate(remaining):
            extra = marginal_cost(candidate)
            if (
                cost_threshold is not None
                and accumulated_cost + extra > cost_threshold
            ):
                continue
            chosen_position = position
            break
        if chosen_position is None:
            break
        candidate = remaining.pop(chosen_position)
        accumulated_cost += marginal_cost(candidate)
        selected.append(candidate)
        opened_sections.add(claim_sections[candidate])
    if len(selected) < min_batch_size:
        raise InfeasibleSelectionError(
            f"greedy selection found only {len(selected)} claims within the "
            f"cost threshold; the minimum batch size is {min_batch_size}",
            constraint="cost_threshold",
        )
    selected.sort()
    objective = _selection_objective(
        selected,
        utilities,
        verification_costs,
        claim_sections,
        section_read_costs,
        utility_weight,
    )
    return IlpSolution(
        selected_indices=tuple(selected),
        objective_value=float(objective),
        solver="greedy",
        optimal=False,
    )


def _selection_objective(
    selected: Sequence[int],
    utilities: Sequence[float],
    verification_costs: Sequence[float],
    claim_sections: Sequence[int],
    section_read_costs: Sequence[float],
    utility_weight: float | None,
) -> float:
    """The MILP objective value of a concrete selection (minimise form)."""
    if utility_weight is None:
        return -sum(utilities[index] for index in selected)
    sections = {claim_sections[index] for index in selected}
    return sum(
        verification_costs[index] - utility_weight * utilities[index]
        for index in selected
    ) + sum(section_read_costs[section] for section in sections)
