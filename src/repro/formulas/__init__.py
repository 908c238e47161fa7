"""Formula machinery (Section 4.2 of the paper).

A *formula* is the generalisation of the SELECT clause of a past check:
function names, operators and constants are preserved while concrete data
values become *value variables* (``a``, ``b``, …) and concrete attribute
labels become *attribute variables* (``A1``, ``A2``, …).  Formulas are the
classes predicted by the fourth classifier and are instantiated over the
candidate relations/keys/attributes during query generation (Algorithm 2).
As in the paper, the formulas are learned from past checks, not taken from
a fixed library: :class:`~repro.formulas.extraction.FormulaExtractor`
generalises each check trace, and the synthetic corpus generator builds its
formula labels that way too.

Layering contract: layer 4 of the enforced import DAG — may import
``sqlengine``, ``dataset``/``ml``/``text``/``analysis``, ``config`` and
``errors``; never ``claims`` or anything above. Enforced by reprolint; see
``docs/architecture.md``.
"""

from repro.formulas.ast import (
    AttributeVariable,
    Constant,
    Formula,
    FormulaBinaryOp,
    FormulaComparison,
    FormulaFunction,
    FormulaUnaryOp,
    ValueVariable,
)
from repro.formulas.extraction import FormulaExtractor, GeneralizedCheck
from repro.formulas.instantiate import FormulaInstantiator, InstantiatedQuery, ValueRef
from repro.formulas.parser import parse_formula
from repro.formulas.variables import VariableBinding

__all__ = [
    "AttributeVariable",
    "Constant",
    "Formula",
    "FormulaBinaryOp",
    "FormulaComparison",
    "FormulaExtractor",
    "FormulaFunction",
    "FormulaInstantiator",
    "FormulaUnaryOp",
    "GeneralizedCheck",
    "InstantiatedQuery",
    "ValueRef",
    "ValueVariable",
    "VariableBinding",
    "parse_formula",
]
