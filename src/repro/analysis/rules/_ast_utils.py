"""Shared AST helpers for reprolint rules.

The helpers here answer the two questions almost every rule asks:

* *What does this name refer to?* — :class:`ImportMap` resolves local
  names through a module's import statements, so ``np.random.default_rng``
  and ``numpy.random.default_rng`` are the same call no matter how the
  module spelled its imports.
* *Where am I?* — :func:`iter_functions` and :func:`qualname_of` walk
  class and function nesting so violations can be keyed on stable
  qualified names instead of line numbers.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

__all__ = [
    "ImportMap",
    "QualnameIndex",
    "dotted_name",
    "iter_classes",
    "iter_functions",
    "is_type_checking_block",
    "resolve_call",
    "self_attribute",
]

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


class ImportMap:
    """Maps local names to the fully qualified names their imports bind.

    ``import numpy as np`` binds ``np -> numpy``; ``from numpy import
    random`` binds ``random -> numpy.random``; ``from repro.errors import
    ConfigurationError as CE`` binds ``CE -> repro.errors.ConfigurationError``.
    Only module-level and class/function-level import *statements* are
    considered — dynamic imports are invisible, which is fine for a linter
    that reports, not proves.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.bindings: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.bindings[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.bindings[local] = f"{node.module}.{alias.name}"

    def resolve(self, name: str) -> str:
        """Expand the leading segment of a dotted name through the imports."""
        head, _, rest = name.partition(".")
        target = self.bindings.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def resolve_call(call: ast.Call, imports: ImportMap) -> str | None:
    """The fully qualified dotted name a call targets, when resolvable."""
    name = dotted_name(call.func)
    if name is None:
        return None
    return imports.resolve(name)


def self_attribute(node: ast.expr) -> str | None:
    """``attr`` when ``node`` is exactly ``self.attr``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def iter_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Every class definition in the module, including nested ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def iter_functions(
    class_node: ast.ClassDef,
) -> Iterator[FunctionNode]:
    """The directly defined methods of a class (not nested helpers)."""
    for node in class_node.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def is_type_checking_block(node: ast.stmt) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` guards."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def qualname_of(stack: list[str], name: str) -> str:
    return ".".join([*stack, name]) if stack else name


class QualnameIndex:
    """Maps AST nodes to the qualified name of their enclosing def/class.

    Violation keys built on qualnames survive line drift, so they stay
    stable under ordinary edits.
    """

    def __init__(self, tree: ast.Module) -> None:
        self._owner: dict[ast.AST, str] = {}
        self._assign(tree, [])

    def _assign(self, node: ast.AST, stack: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self._assign(child, [*stack, child.name])
            else:
                if stack:
                    self._owner[child] = ".".join(stack)
                self._assign(child, stack)

    def enclosing(self, node: ast.AST) -> str | None:
        """Qualname of the def/class lexically containing ``node``.

        Only *statement* nodes are indexed (expressions inherit their
        statement's owner), so callers should pass the violating node's
        nearest statement — or any node, accepting ``None`` at module
        scope."""
        return self._owner.get(node)
