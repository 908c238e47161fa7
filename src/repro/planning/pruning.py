"""Pruning power and greedy screen selection (Theorems 3–6).

A query candidate is described by its value for each query property
(relation, key, attribute, formula).  Asking about a property prunes every
candidate whose value for that property differs from the answer the checker
confirms.  Since the answer is unknown in advance, the *expected* number of
pruned candidates — the pruning power of Definition 5 — is computed from the
classifier's answer probabilities, and the sub-modular structure of that
function (Theorem 4) lets a greedy selection of properties come within
``1 - 1/e`` of the optimum (Theorem 5).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.claims.model import ClaimProperty
from repro.errors import PlanningError


class PruningPowerCalculator:
    """Computes pruning power for sets of query properties.

    Parameters
    ----------
    candidates:
        One mapping per candidate query, from property to that candidate's
        value for the property (e.g. ``{RELATION: "GED", KEY: "PGElecDemand"}``).
        Properties missing from a candidate's mapping never prune it.
    answer_probabilities:
        For every property, the classifier's probability of each possible
        answer (``Pr(a_i_s correct | M)`` in Theorem 3).
    """

    def __init__(
        self,
        candidates: Sequence[Mapping[ClaimProperty, str]],
        answer_probabilities: Mapping[ClaimProperty, Mapping[str, float]],
    ) -> None:
        self._candidates = [dict(candidate) for candidate in candidates]
        self._probabilities = {
            claim_property: dict(distribution)
            for claim_property, distribution in answer_probabilities.items()
        }

    # ------------------------------------------------------------------ #
    # Theorem 3
    # ------------------------------------------------------------------ #
    def survival_probability(
        self, candidate: Mapping[ClaimProperty, str], properties: Sequence[ClaimProperty]
    ) -> float:
        """Probability that ``candidate`` is *not* pruned by asking ``properties``."""
        survival = 1.0
        for claim_property in properties:
            distribution = self._probabilities.get(claim_property)
            if distribution is None:
                continue
            value = candidate.get(claim_property)
            if value is None:
                # The candidate does not constrain this property: no answer
                # about it can exclude the candidate.
                continue
            survival *= distribution.get(value, 0.0)
        return survival

    def pruning_power(self, properties: Sequence[ClaimProperty]) -> float:
        """Expected number of pruned candidates, ``P(S, Q, M)`` of Theorem 3."""
        unique_properties = list(dict.fromkeys(properties))
        return sum(
            1.0 - self.survival_probability(candidate, unique_properties)
            for candidate in self._candidates
        )

    # ------------------------------------------------------------------ #
    # Theorem 5: greedy selection
    # ------------------------------------------------------------------ #
    def greedy_select(
        self,
        available: Sequence[ClaimProperty],
        count: int,
    ) -> list[ClaimProperty]:
        """Greedily pick up to ``count`` properties maximising pruning power.

        At each step the property with the largest marginal gain joins the
        selection; sub-modularity (Theorem 4) guarantees the result is within
        ``1 - 1/e`` of the optimal selection (Theorem 5).
        """
        if count < 0:
            raise PlanningError("cannot select a negative number of screens")
        remaining = list(dict.fromkeys(available))
        selected: list[ClaimProperty] = []
        current_power = 0.0
        while remaining and len(selected) < count:
            best_property = None
            best_power = current_power
            for claim_property in remaining:
                power = self.pruning_power(selected + [claim_property])
                if power > best_power + 1e-12:
                    best_power = power
                    best_property = claim_property
            if best_property is None:
                # No property adds pruning power; showing more screens would
                # only cost checker time.
                break
            selected.append(best_property)
            remaining.remove(best_property)
            current_power = best_power
        return selected
