"""Abstract syntax tree for the statistical-check SQL fragment.

The fragment (Definition 3) is narrow by design: a single SELECT expression
combining functions from the library ``F`` over qualified column references
and constants; a FROM list of relation/alias pairs; and a WHERE clause that
is a conjunction of per-alias key-equality predicates, each possibly a
disjunction over several admissible key values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.errors import ConfigurationError, SQLExecutionError

Expression = Union[
    "NumberLiteral",
    "StringLiteral",
    "ColumnRef",
    "FunctionCall",
    "BinaryOp",
    "UnaryOp",
    "Comparison",
]


@dataclass(frozen=True)
class NumberLiteral:
    """A numeric constant appearing in the SELECT expression."""

    value: float

    def render(self) -> str:
        if float(self.value).is_integer():
            return str(int(self.value))
        return repr(float(self.value))


@dataclass(frozen=True)
class StringLiteral:
    """A string constant (rare in SELECT, common in WHERE values)."""

    value: str

    def render(self) -> str:
        escaped = self.value.replace("'", "''")
        return f"'{escaped}'"


@dataclass(frozen=True)
class ColumnRef:
    """A qualified column reference such as ``a.2017``."""

    alias: str
    attribute: str

    def render(self) -> str:
        if _needs_quoting(self.attribute):
            return f'{self.alias}."{self.attribute}"'
        return f"{self.alias}.{self.attribute}"


@dataclass(frozen=True)
class FunctionCall:
    """A call to a function of the library ``F``."""

    name: str
    arguments: tuple[Expression, ...]

    def render(self) -> str:
        rendered = ", ".join(argument.render() for argument in self.arguments)
        return f"{self.name.upper()}({rendered})"


@dataclass(frozen=True)
class BinaryOp:
    """An arithmetic combination of two sub-expressions."""

    operator: str
    left: Expression
    right: Expression

    def render(self) -> str:
        return f"({self.left.render()} {self.operator} {self.right.render()})"


@dataclass(frozen=True)
class UnaryOp:
    """Unary minus (or plus) applied to a sub-expression."""

    operator: str
    operand: Expression

    def render(self) -> str:
        return f"({self.operator}{self.operand.render()})"


@dataclass(frozen=True)
class Comparison:
    """A comparison producing a boolean, used by general-claim checks."""

    operator: str
    left: Expression
    right: Expression

    def render(self) -> str:
        return f"({self.left.render()} {self.operator} {self.right.render()})"


@dataclass(frozen=True)
class FromItem:
    """One ``relation alias`` pair of the FROM clause."""

    relation: str
    alias: str

    def render(self) -> str:
        return f"{self.relation} {self.alias}"


@dataclass(frozen=True)
class KeyPredicate:
    """A unary equality predicate ``alias.key_attribute = 'value'``."""

    alias: str
    attribute: str
    value: str

    def render(self) -> str:
        escaped = self.value.replace("'", "''")
        if _needs_quoting(self.attribute):
            return f'{self.alias}."{self.attribute}" = \'{escaped}\''
        return f"{self.alias}.{self.attribute} = '{escaped}'"


@dataclass(frozen=True)
class KeyDisjunction:
    """A disjunction of key predicates for a single alias.

    Definition 3 allows clauses such as
    ``(b.key2 = v2 OR b.key2 = v3)``; all predicates in one disjunction must
    refer to the same alias, which the parser and builder both enforce.
    """

    predicates: tuple[KeyPredicate, ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ConfigurationError("a key disjunction needs at least one predicate")
        aliases = {predicate.alias for predicate in self.predicates}
        if len(aliases) > 1:
            raise ConfigurationError("all predicates of a disjunction must share the alias")

    @property
    def alias(self) -> str:
        return self.predicates[0].alias

    @property
    def values(self) -> tuple[str, ...]:
        return tuple(predicate.value for predicate in self.predicates)

    def render(self) -> str:
        if len(self.predicates) == 1:
            return self.predicates[0].render()
        inner = " OR ".join(predicate.render() for predicate in self.predicates)
        return f"({inner})"


@dataclass(frozen=True)
class Query:
    """A full statistical-check query."""

    select: Expression
    from_items: tuple[FromItem, ...]
    where: tuple[KeyDisjunction, ...] = field(default_factory=tuple)

    def aliases(self) -> tuple[str, ...]:
        return tuple(item.alias for item in self.from_items)

    def relation_names(self) -> tuple[str, ...]:
        return tuple(item.relation for item in self.from_items)

    def alias_relation(self, alias: str) -> str:
        for item in self.from_items:
            if item.alias == alias:
                return item.relation
        raise SQLExecutionError(f"unknown alias {alias!r}")

    def render(self) -> str:
        """Render the query back to SQL text."""
        select_sql = f"SELECT {self.select.render()}"
        from_sql = "FROM " + ", ".join(item.render() for item in self.from_items)
        parts = [select_sql, from_sql]
        if self.where:
            where_sql = "WHERE " + " AND ".join(clause.render() for clause in self.where)
            parts.append(where_sql)
        return "\n".join(parts)

    def complexity(self) -> int:
        """Number of elements in the query, as defined for Figure 6.

        The paper counts "the number of key values, attributes, operations,
        constants and variables" making up the verifying query.
        """
        keys = sum(len(clause.predicates) for clause in self.where)
        columns, constants, operations = _expression_elements(self.select)
        return keys + columns + constants + operations

    def __str__(self) -> str:
        return self.render()


def _expression_elements(expression: Expression) -> tuple[int, int, int]:
    """Count (column references, constants, operations) in an expression."""
    if isinstance(expression, ColumnRef):
        return 1, 0, 0
    if isinstance(expression, (NumberLiteral, StringLiteral)):
        return 0, 1, 0
    if isinstance(expression, UnaryOp):
        columns, constants, operations = _expression_elements(expression.operand)
        return columns, constants, operations + 1
    if isinstance(expression, (BinaryOp, Comparison)):
        left = _expression_elements(expression.left)
        right = _expression_elements(expression.right)
        return (
            left[0] + right[0],
            left[1] + right[1],
            left[2] + right[2] + 1,
        )
    if isinstance(expression, FunctionCall):
        columns = constants = operations = 0
        for argument in expression.arguments:
            sub = _expression_elements(argument)
            columns += sub[0]
            constants += sub[1]
            operations += sub[2]
        return columns, constants, operations + 1
    raise TypeError(f"unknown expression node: {expression!r}")


def _needs_quoting(identifier: str) -> bool:
    """Attribute names that are not plain identifiers (years, spaces) need quotes."""
    if not identifier:
        return True
    if identifier[0].isdigit():
        return True
    return not all(character.isalnum() or character == "_" for character in identifier)


def walk(expression: Expression):
    """Yield every node of an expression tree, depth first."""
    yield expression
    if isinstance(expression, FunctionCall):
        for argument in expression.arguments:
            yield from walk(argument)
    elif isinstance(expression, (BinaryOp, Comparison)):
        yield from walk(expression.left)
        yield from walk(expression.right)
    elif isinstance(expression, UnaryOp):
        yield from walk(expression.operand)


def column_refs(expression: Expression) -> list[ColumnRef]:
    """All qualified column references appearing in an expression."""
    return [node for node in walk(expression) if isinstance(node, ColumnRef)]


def function_names(expression: Expression) -> list[str]:
    """All function names appearing in an expression, outermost first."""
    return [node.name.upper() for node in walk(expression) if isinstance(node, FunctionCall)]
