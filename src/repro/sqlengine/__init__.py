"""Engine for the statistical-check SQL fragment of Definition 3.

The fragment covers ``SELECT f(a.A1, b.A2, ...) FROM T1 a, T2 b, ... WHERE``
with a WHERE clause made of conjunctions and disjunctions of unary equality
predicates over primary-key attributes, and a SELECT clause that nests
functions from the library ``F`` over attribute values and constants.

The module provides a lexer/parser producing a small AST
(:mod:`repro.sqlengine.ast`), an executor evaluating queries over a
:class:`~repro.dataset.database.Database` and the function library
(:mod:`repro.sqlengine.functions`).

Layering contract: layer 3 of the enforced import DAG — may import
``analysis``/``dataset``/``ml``/``text``, ``config`` and ``errors``; never
``formulas`` or anything above. Enforced by reprolint; see
``docs/architecture.md``.
"""

from repro.sqlengine.ast import (
    BinaryOp,
    ColumnRef,
    Comparison,
    FromItem,
    FunctionCall,
    KeyDisjunction,
    KeyPredicate,
    NumberLiteral,
    Query,
    StringLiteral,
    UnaryOp,
)
from repro.sqlengine.executor import QueryExecutor, QueryResult
from repro.sqlengine.functions import FUNCTION_LIBRARY, FunctionLibrary, SQLFunction
from repro.sqlengine.parser import parse_expression, parse_query

__all__ = [
    "BinaryOp",
    "ColumnRef",
    "Comparison",
    "FUNCTION_LIBRARY",
    "FromItem",
    "FunctionCall",
    "FunctionLibrary",
    "KeyDisjunction",
    "KeyPredicate",
    "NumberLiteral",
    "Query",
    "QueryExecutor",
    "QueryResult",
    "SQLFunction",
    "StringLiteral",
    "UnaryOp",
    "parse_expression",
    "parse_query",
]
