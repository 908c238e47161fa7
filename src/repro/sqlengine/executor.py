"""Evaluation of statistical-check queries over a database corpus.

Execution model: the WHERE clause binds each FROM alias to one or more rows
of its relation through equality predicates on the relation's key column
(a predicate on any other column raises; a disjunction yields
several admissible rows for its alias, aliases without a predicate range
over all rows).  The executor enumerates the Cartesian product of admissible
rows across aliases and evaluates the SELECT expression once per binding.
Explicit claims are then validated against the produced values; tentative
execution of many candidate queries is exactly what Algorithm 2 relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.dataset.database import Database
from repro.dataset.types import is_numeric
from repro.errors import SQLExecutionError, UnknownRelationError
from repro.sqlengine.ast import (
    BinaryOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    NumberLiteral,
    Query,
    StringLiteral,
    UnaryOp,
)
from repro.sqlengine.functions import FUNCTION_LIBRARY, FunctionLibrary
from repro.sqlengine.parser import parse_query

#: Safety valve on the number of alias-row bindings enumerated per query.
MAX_BINDINGS = 100_000


@dataclass(frozen=True)
class QueryResult:
    """The outcome of executing one query.

    ``values`` holds one entry per admissible alias binding; most
    statistical checks bind every alias to a single row and therefore yield
    a single value.  Bindings whose evaluation failed (missing value,
    division by zero, …) are recorded in ``errors`` rather than aborting the
    whole query, because tentative execution must tolerate bad candidates.
    """

    query: Query
    values: tuple[float, ...]
    errors: tuple[str, ...] = field(default_factory=tuple)

    @property
    def scalar(self) -> float | None:
        """The single produced value, or ``None`` if there is not exactly one."""
        if len(self.values) == 1:
            return self.values[0]
        return None

    @property
    def is_empty(self) -> bool:
        return not self.values

    def first(self) -> float | None:
        return self.values[0] if self.values else None


class QueryExecutor:
    """Evaluates :class:`~repro.sqlengine.ast.Query` objects on a corpus."""

    def __init__(
        self,
        database: Database,
        functions: FunctionLibrary | None = None,
        max_bindings: int = MAX_BINDINGS,
    ) -> None:
        self._database = database
        self._functions = functions if functions is not None else FUNCTION_LIBRARY
        self._max_bindings = max_bindings

    @property
    def database(self) -> Database:
        return self._database

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def execute(self, query: Query | str) -> QueryResult:
        """Execute a query (AST or SQL text) and collect its values."""
        if isinstance(query, str):
            query = parse_query(query)
        bindings = self._enumerate_bindings(query)
        values: list[float] = []
        errors: list[str] = []
        for binding in bindings:
            try:
                value = self._evaluate(query.select, query, binding)
            except SQLExecutionError as error:
                errors.append(str(error))
                continue
            if value is None:
                errors.append("expression evaluated to a missing value")
                continue
            values.append(float(value))
        return QueryResult(query=query, values=tuple(values), errors=tuple(errors))

    def execute_scalar(self, query: Query | str) -> float:
        """Execute a query expected to produce exactly one value."""
        result = self.execute(query)
        if len(result.values) != 1:
            raise SQLExecutionError(
                f"expected a single value, got {len(result.values)} "
                f"(errors: {list(result.errors)})"
            )
        return result.values[0]

    # ------------------------------------------------------------------ #
    # binding enumeration
    # ------------------------------------------------------------------ #
    def _enumerate_bindings(self, query: Query) -> list[dict[str, str]]:
        """All admissible alias → key-value bindings for the query."""
        alias_candidates: dict[str, list[str]] = {}
        for item in query.from_items:
            relation = self._database.get(item.relation)
            if relation is None:
                raise UnknownRelationError(item.relation)
            alias_candidates[item.alias] = list(relation.keys)
        for clause in query.where:
            alias = clause.alias
            if alias not in alias_candidates:
                raise SQLExecutionError(f"WHERE references unknown alias {alias!r}")
            relation = self._database.relation(query.alias_relation(alias))
            for predicate in clause.predicates:
                if predicate.attribute != relation.key_attribute:
                    raise SQLExecutionError(
                        f"WHERE predicate {predicate.render()} is not on the key "
                        f"column {relation.key_attribute!r} of {relation.name!r}"
                    )
            admissible = [value for value in clause.values if relation.has_key(value)]
            previous = alias_candidates[alias]
            alias_candidates[alias] = [key for key in previous if key in set(admissible)]
        aliases = list(alias_candidates)
        total = 1
        for candidates in alias_candidates.values():
            total *= max(len(candidates), 0)
        if total == 0:
            return []
        if total > self._max_bindings:
            raise SQLExecutionError(
                f"query enumerates {total} bindings, above the limit of {self._max_bindings}"
            )
        bindings: list[dict[str, str]] = []
        for combination in itertools.product(*(alias_candidates[alias] for alias in aliases)):
            bindings.append(dict(zip(aliases, combination)))
        return bindings

    # ------------------------------------------------------------------ #
    # expression evaluation
    # ------------------------------------------------------------------ #
    def _evaluate(
        self, expression: Expression, query: Query, binding: dict[str, str]
    ) -> float | None:
        if isinstance(expression, NumberLiteral):
            return float(expression.value)
        if isinstance(expression, StringLiteral):
            raise SQLExecutionError("string literals cannot be evaluated numerically")
        if isinstance(expression, ColumnRef):
            return self._evaluate_column(expression, query, binding)
        if isinstance(expression, UnaryOp):
            operand = self._evaluate(expression.operand, query, binding)
            if operand is None:
                return None
            return -operand if expression.operator == "-" else operand
        if isinstance(expression, BinaryOp):
            return self._evaluate_binary(expression, query, binding)
        if isinstance(expression, Comparison):
            left = self._evaluate(expression.left, query, binding)
            right = self._evaluate(expression.right, query, binding)
            if left is None or right is None:
                return None
            return float(_compare(expression.operator, left, right))
        if isinstance(expression, FunctionCall):
            arguments = [
                self._evaluate(argument, query, binding) for argument in expression.arguments
            ]
            return self._functions.call(expression.name, arguments)
        raise SQLExecutionError(f"unknown expression node {expression!r}")

    def _evaluate_column(
        self, column: ColumnRef, query: Query, binding: dict[str, str]
    ) -> float | None:
        relation_name = query.alias_relation(column.alias)
        key = binding.get(column.alias)
        if key is None:
            raise SQLExecutionError(f"alias {column.alias!r} is unbound")
        relation = self._database.relation(relation_name)
        if not relation.has_attribute(column.attribute):
            raise SQLExecutionError(
                f"relation {relation_name!r} has no attribute {column.attribute!r}"
            )
        value = relation.value(key, column.attribute)
        if value is None:
            return None
        if not is_numeric(value):
            raise SQLExecutionError(
                f"cell ({key!r}, {column.attribute!r}) of {relation_name!r} is not numeric"
            )
        return float(value)

    def _evaluate_binary(
        self, expression: BinaryOp, query: Query, binding: dict[str, str]
    ) -> float | None:
        left = self._evaluate(expression.left, query, binding)
        right = self._evaluate(expression.right, query, binding)
        if left is None or right is None:
            return None
        operator = expression.operator
        if operator == "+":
            return left + right
        if operator == "-":
            return left - right
        if operator == "*":
            return left * right
        if operator == "/":
            if right == 0:
                raise SQLExecutionError("division by zero")
            return left / right
        raise SQLExecutionError(f"unknown operator {operator!r}")


def _compare(operator: str, left: float, right: float) -> bool:
    if operator == "=":
        return left == right
    if operator in ("<>", "!="):
        return left != right
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right
    if operator == ">":
        return left > right
    if operator == ">=":
        return left >= right
    raise SQLExecutionError(f"unknown comparison operator {operator!r}")
