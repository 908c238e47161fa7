"""Query generation (Algorithm 2 of the paper).

Given validated context (relations, keys, attributes), a ranked list of
candidate formulas and — for explicit claims — the stated parameter ``p``,
the generator collects all data-value assignments, instantiates each
formula over permutations of those assignments, keeps the assignments whose
value approximately matches ``p`` (explicit claims) and rewrites the
surviving assignments into statistical-check SQL queries.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from repro.config import TranslationConfig
from repro.dataset.database import Database
from repro.dataset.types import is_numeric, values_close
from repro.errors import FormulaError
from repro.formulas.ast import Formula
from repro.formulas.instantiate import FormulaInstantiator, InstantiatedQuery, ValueRef


@dataclass(frozen=True)
class QueryCandidate:
    """One generated query with its tentative execution result."""

    instantiated: InstantiatedQuery
    matches_parameter: bool
    formula_rank: int

    @property
    def value(self) -> float | None:
        return self.instantiated.value

    @property
    def sql(self) -> str:
        return self.instantiated.sql


@dataclass(frozen=True)
class QueryGenerationResult:
    """The outcome of Algorithm 2 for one claim."""

    candidates: tuple[QueryCandidate, ...]
    alternatives: tuple[QueryCandidate, ...]
    assignments_tried: int
    truncated: bool = False

    @property
    def has_match(self) -> bool:
        return bool(self.candidates)

    @property
    def best(self) -> QueryCandidate | None:
        """The highest-ranked candidate (matching first, then alternatives)."""
        if self.candidates:
            return self.candidates[0]
        if self.alternatives:
            return self.alternatives[0]
        return None

    def suggested_values(self, limit: int = 5) -> tuple[float, ...]:
        """Values produced by alternative queries, proposed as corrections."""
        values: list[float] = []
        for candidate in self.alternatives:
            if candidate.value is None:
                continue
            if not any(values_close(candidate.value, existing, 1e-9) for existing in values):
                values.append(candidate.value)
            if len(values) >= limit:
                break
        return tuple(values)


@dataclass(frozen=True)
class _ValueCell:
    """A resolved data cell: its reference and numeric value."""

    ref: ValueRef
    value: float


def _attribute_sort_key(attribute: str) -> float:
    """Numeric ordering key for attributes; non-numeric labels sort last."""
    try:
        return float(attribute)
    except ValueError:
        return float("-inf")


class QueryGenerator:
    """Implements Algorithm 2 over a database corpus."""

    def __init__(self, database: Database, config: TranslationConfig | None = None) -> None:
        self._database = database
        self._config = config if config is not None else TranslationConfig()
        self._instantiator = FormulaInstantiator(database)

    # ------------------------------------------------------------------ #
    # Algorithm 2
    # ------------------------------------------------------------------ #
    def generate(
        self,
        relations: Sequence[str],
        keys: Sequence[str],
        attributes: Sequence[str],
        formulas: Sequence[Formula],
        parameter: float | None = None,
        max_alternatives: int = 40,
    ) -> QueryGenerationResult:
        """Generate candidate queries for one claim.

        ``relations``, ``keys`` and ``attributes`` are assumed validated by
        the crowd (Section 4.3); ``formulas`` is the ranked classifier
        output; ``parameter`` is the explicit claim's stated value, or
        ``None`` for general claims.
        """
        cells = self._collect_values(relations, keys, attributes)
        matched: list[QueryCandidate] = []
        alternatives: list[QueryCandidate] = []
        assignments_tried = 0
        truncated = False
        for rank, formula in enumerate(formulas):
            variable_names = formula.value_variables()
            if not variable_names:
                continue
            if len(cells) < len(variable_names):
                continue
            for assignment in itertools.permutations(cells, len(variable_names)):
                assignments_tried += 1
                if assignments_tried > self._config.max_permutations:
                    truncated = True
                    break
                value_assignment = {
                    name: cell.ref for name, cell in zip(variable_names, assignment)
                }
                attribute_assignment = self._attribute_assignment(formula, assignment)
                try:
                    instantiated = self._instantiator.instantiate(
                        formula, value_assignment, attribute_assignment
                    )
                except FormulaError:
                    # The assignment cannot be rewritten into SQL (e.g. an
                    # attribute variable bound to a non-numeric label): it is
                    # not a valid candidate, not a failure of the claim.
                    continue
                if instantiated.value is None:
                    continue
                is_match = parameter is not None and values_close(
                    instantiated.value, parameter, self._config.admissible_error
                )
                candidate = QueryCandidate(
                    instantiated=instantiated,
                    matches_parameter=is_match,
                    formula_rank=rank,
                )
                if is_match:
                    matched.append(candidate)
                elif len(alternatives) < max_alternatives:
                    alternatives.append(candidate)
            if truncated:
                break
        return QueryGenerationResult(
            candidates=tuple(matched),
            alternatives=tuple(alternatives),
            assignments_tried=assignments_tried,
            truncated=truncated,
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _collect_values(
        self,
        relations: Sequence[str],
        keys: Sequence[str],
        attributes: Sequence[str],
    ) -> list[_ValueCell]:
        """Line 7 of Algorithm 2: every (relation, key, attribute) data value."""
        cells: list[_ValueCell] = []
        for relation_name in relations:
            relation = self._database.get(relation_name)
            if relation is None:
                continue
            for key in keys:
                if not relation.has_key(key):
                    continue
                for attribute in attributes:
                    if not relation.has_attribute(attribute):
                        continue
                    value = relation.value(key, attribute)
                    if value is None or not is_numeric(value):
                        continue
                    cells.append(
                        _ValueCell(
                            ref=ValueRef(
                                relation=relation_name, key=key, attribute=attribute
                            ),
                            value=float(value),
                        )
                    )
        # Later years first: statistical checks conventionally relate the most
        # recent value to an earlier one (growth, CAGR, fold change), so the
        # first permutations tried are the most plausible bindings.
        cells.sort(key=lambda cell: -_attribute_sort_key(cell.ref.attribute))
        return cells

    @staticmethod
    def _attribute_assignment(
        formula: Formula, assignment: Sequence[_ValueCell]
    ) -> dict[str, str]:
        """Bind attribute variables from the attributes of the assigned cells.

        ``A1`` takes the attribute of the first bound value variable, ``A2``
        of the second, and so on; surplus attribute variables cycle over the
        assigned cells.  This matches the common shape of IEA checks where
        the attribute variables refer to the years of the looked-up values
        (e.g. the CAGR formula of Example 1).
        """
        attribute_variables = formula.attribute_variables()
        if not attribute_variables:
            return {}
        labels = [cell.ref.attribute for cell in assignment]
        if not labels:
            return {}
        mapping: dict[str, str] = {}
        for index, name in enumerate(attribute_variables):
            mapping[name] = labels[index % len(labels)]
        return mapping
