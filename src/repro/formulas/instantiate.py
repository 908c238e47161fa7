"""Instantiation of formulas over concrete data (Algorithm 2's inner loop).

Given a formula and an assignment of its value variables to data cells
(``ValueRef`` triples) and of its attribute variables to attribute labels,
the instantiator can

* evaluate the formula numerically (fast path used to test ``f(i) ≈ p``
  against an explicit claim's parameter), and
* rewrite the assignment into a statistical-check SQL query over the
  database (the interpretable artefact shown to fact checkers, Figure 3).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.dataset.database import Database
from repro.dataset.types import is_numeric
from repro.errors import FormulaBindingError, FormulaError, SQLExecutionError
from repro.formulas.ast import (
    AttributeVariable,
    Constant,
    Formula,
    FormulaBinaryOp,
    FormulaComparison,
    FormulaFunction,
    FormulaNode,
    FormulaUnaryOp,
    ValueVariable,
)
from repro.formulas.variables import VariableBinding
from repro.sqlengine.ast import (
    BinaryOp,
    ColumnRef,
    Comparison,
    Expression,
    FromItem,
    FunctionCall,
    KeyDisjunction,
    KeyPredicate,
    NumberLiteral,
    Query,
    UnaryOp,
)
from repro.sqlengine.functions import FUNCTION_LIBRARY


@dataclass(frozen=True)
class ValueRef:
    """A reference to one data cell: relation, primary-key value, attribute."""

    relation: str
    key: str
    attribute: str

    def render(self) -> str:
        return f"{self.relation}[{self.key}, {self.attribute}]"


@dataclass(frozen=True)
class InstantiatedQuery:
    """The result of instantiating a formula over one variable assignment."""

    formula: Formula
    value_assignment: dict[str, ValueRef]
    attribute_assignment: dict[str, str]
    query: Query
    value: float | None
    is_boolean: bool

    @property
    def sql(self) -> str:
        return self.query.render()


def _comparison_holds(operator: str, left: float, right: float) -> bool:
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
    raise FormulaError(f"unknown comparison operator {operator!r}")


class FormulaInstantiator:
    """Instantiates formulas over a database corpus."""

    def __init__(self, database: Database) -> None:
        self._database = database

    # ------------------------------------------------------------------ #
    # numeric evaluation
    # ------------------------------------------------------------------ #
    def evaluate_binding(self, formula: Formula, binding: VariableBinding) -> float:
        """Evaluate a formula over an already-resolved numeric binding."""
        return self._evaluate_node(formula.root, binding)

    def resolve_binding(
        self,
        value_assignment: Mapping[str, ValueRef],
        attribute_assignment: Mapping[str, str],
    ) -> VariableBinding:
        """Look up every :class:`ValueRef` in the database."""
        values: dict[str, float] = {}
        for variable, reference in value_assignment.items():
            value = self._database.try_lookup(
                reference.relation, reference.key, reference.attribute
            )
            if value is None or not is_numeric(value):
                raise FormulaBindingError(
                    f"cell {reference.render()} is missing or non-numeric"
                )
            values[variable] = float(value)
        return VariableBinding(values=values, attributes=dict(attribute_assignment))

    def evaluate(
        self,
        formula: Formula,
        value_assignment: Mapping[str, ValueRef],
        attribute_assignment: Mapping[str, str] | None = None,
    ) -> float:
        """Resolve the assignment against the database and evaluate."""
        binding = self.resolve_binding(value_assignment, attribute_assignment or {})
        return self.evaluate_binding(formula, binding)

    def _evaluate_node(self, node: FormulaNode, binding: VariableBinding) -> float:
        if isinstance(node, Constant):
            return float(node.value)
        if isinstance(node, ValueVariable):
            return binding.value(node.name)
        if isinstance(node, AttributeVariable):
            return binding.attribute_numeric(node.name)
        if isinstance(node, FormulaUnaryOp):
            operand = self._evaluate_node(node.operand, binding)
            return -operand if node.operator == "-" else operand
        if isinstance(node, FormulaBinaryOp):
            left = self._evaluate_node(node.left, binding)
            right = self._evaluate_node(node.right, binding)
            return self._apply_operator(node.operator, left, right)
        if isinstance(node, FormulaComparison):
            left = self._evaluate_node(node.left, binding)
            right = self._evaluate_node(node.right, binding)
            return float(_comparison_holds(node.operator, left, right))
        if isinstance(node, FormulaFunction):
            arguments = [self._evaluate_node(argument, binding) for argument in node.arguments]
            try:
                return FUNCTION_LIBRARY.call(node.name, arguments)
            except SQLExecutionError as error:
                raise FormulaError(str(error)) from error
        raise FormulaError(f"unknown formula node {node!r}")

    @staticmethod
    def _apply_operator(operator: str, left: float, right: float) -> float:
        if operator == "+":
            return left + right
        if operator == "-":
            return left - right
        if operator == "*":
            return left * right
        if operator == "/":
            if right == 0:
                raise FormulaError("division by zero while evaluating a formula")
            return left / right
        raise FormulaError(f"unknown operator {operator!r}")

    # ------------------------------------------------------------------ #
    # rewriting into SQL
    # ------------------------------------------------------------------ #
    def to_query(
        self,
        formula: Formula,
        value_assignment: Mapping[str, ValueRef],
        attribute_assignment: Mapping[str, str] | None = None,
    ) -> Query:
        """Rewrite the assignment into a statistical-check SQL query.

        Each value variable becomes a FROM alias, restricted in the WHERE
        clause by its relation's own key column.
        """
        attribute_assignment = dict(attribute_assignment or {})
        missing = set(formula.value_variables()) - set(value_assignment)
        if missing:
            raise FormulaBindingError(
                f"value variables without an assignment: {sorted(missing)}"
            )
        select = self._node_to_expression(formula.root, value_assignment, attribute_assignment)
        from_items: list[FromItem] = []
        where: list[KeyDisjunction] = []
        for variable in formula.value_variables():
            reference = value_assignment[variable]
            from_items.append(FromItem(relation=reference.relation, alias=variable))
            where.append(
                KeyDisjunction(
                    predicates=(
                        KeyPredicate(
                            alias=variable,
                            attribute=self._database.relation(
                                reference.relation
                            ).key_attribute,
                            value=reference.key,
                        ),
                    )
                )
            )
        return Query(select=select, from_items=tuple(from_items), where=tuple(where))

    def instantiate(
        self,
        formula: Formula,
        value_assignment: Mapping[str, ValueRef],
        attribute_assignment: Mapping[str, str] | None = None,
    ) -> InstantiatedQuery:
        """Evaluate *and* rewrite one assignment, tolerating evaluation errors."""
        attribute_assignment = dict(attribute_assignment or {})
        query = self.to_query(formula, value_assignment, attribute_assignment)
        try:
            value: float | None = self.evaluate(formula, value_assignment, attribute_assignment)
        except (FormulaError, FormulaBindingError):
            value = None
        return InstantiatedQuery(
            formula=formula,
            value_assignment=dict(value_assignment),
            attribute_assignment=attribute_assignment,
            query=query,
            value=value,
            is_boolean=formula.comparison_operator() is not None,
        )

    def _node_to_expression(
        self,
        node: FormulaNode,
        value_assignment: Mapping[str, ValueRef],
        attribute_assignment: Mapping[str, str],
    ) -> Expression:
        if isinstance(node, Constant):
            return NumberLiteral(value=float(node.value))
        if isinstance(node, ValueVariable):
            reference = value_assignment[node.name]
            return ColumnRef(alias=node.name, attribute=reference.attribute)
        if isinstance(node, AttributeVariable):
            label = attribute_assignment.get(node.name)
            if label is None:
                raise FormulaBindingError(f"attribute variable {node.name!r} is unbound")
            try:
                numeric = float(label)
            except ValueError:
                raise FormulaBindingError(
                    f"attribute variable {node.name!r} bound to non-numeric label {label!r} "
                    "cannot appear arithmetically in SQL"
                ) from None
            return NumberLiteral(value=numeric)
        if isinstance(node, FormulaUnaryOp):
            return UnaryOp(
                operator=node.operator,
                operand=self._node_to_expression(node.operand, value_assignment, attribute_assignment),
            )
        if isinstance(node, FormulaBinaryOp):
            return BinaryOp(
                operator=node.operator,
                left=self._node_to_expression(node.left, value_assignment, attribute_assignment),
                right=self._node_to_expression(node.right, value_assignment, attribute_assignment),
            )
        if isinstance(node, FormulaComparison):
            return Comparison(
                operator=node.operator,
                left=self._node_to_expression(node.left, value_assignment, attribute_assignment),
                right=self._node_to_expression(node.right, value_assignment, attribute_assignment),
            )
        if isinstance(node, FormulaFunction):
            return FunctionCall(
                name=node.name,
                arguments=tuple(
                    self._node_to_expression(argument, value_assignment, attribute_assignment)
                    for argument in node.arguments
                ),
            )
        raise FormulaError(f"unknown formula node {node!r}")
