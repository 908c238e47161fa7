"""Rule: the package import DAG is enforced, not folklore.

The architecture layers the system as ``text``/``ml`` →
``claims``/``pipeline`` → ``translation`` → ``planning`` → ``api`` →
``runtime`` → ``serving``: lower layers must not import upper ones at
module level, or the dependency graph rots into a ball that cannot be
tested or reused in isolation (the data plane must stay importable
without the serving stack).

Only *module-level* imports count: ``if TYPE_CHECKING:`` imports are
type-only, and function-local imports are the sanctioned lazy escape for
the few deliberate back-references (``api.service.snapshot()`` building a
``runtime.ServiceSnapshot``) — both are visible in review and neither
creates an import-time dependency.

A package missing from the layer map is itself a violation: growing the
codebase means placing new packages in the architecture explicitly.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Mapping

from repro.analysis.core import Module, ProjectIndex, Rule, Violation
from repro.analysis.rules._ast_utils import is_type_checking_block

__all__ = ["DEFAULT_LAYERS", "LayeringRule"]

#: Layer number of every top-level package under ``repro``; a module may
#: import packages of strictly lower layers, plus its own package and
#: same-layer peers (``pipeline`` is a peer of ``claims``: it holds the
#: feature rows and batch predictions that ``translation`` produces and
#: ``planning`` scores).  The chain text/ml < claims/pipeline <
#: translation < planning < api < runtime < serving is embedded in the
#: ordering below.
DEFAULT_LAYERS: Mapping[str, int] = {
    "errors": 0,
    "config": 1,
    "analysis": 2,
    "dataset": 2,
    "ml": 2,
    "text": 2,
    "sqlengine": 3,
    "formulas": 4,
    "claims": 5,
    "pipeline": 5,
    "translation": 6,
    "planning": 7,
    "core": 9,
    "crowd": 8,
    "synth": 9,
    "api": 10,
    "runtime": 11,
    "simulation": 11,
    "serving": 12,
    "gateway": 13,
    "experiments": 13,
}


def _module_level_imports(tree: ast.Module) -> Iterator[ast.Import | ast.ImportFrom]:
    """Imports executed at module import time (top level, including under
    plain ``if``/``try`` blocks, excluding ``if TYPE_CHECKING`` guards)."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not is_type_checking_block(node):
                stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body)
            for handler in node.handlers:
                stack.extend(handler.body)
            stack.extend(node.orelse)
            stack.extend(node.finalbody)


class LayeringRule(Rule):
    rule_id = "layering"
    description = (
        "module-level imports must follow the package layer DAG "
        "(text/ml -> claims/pipeline -> translation -> planning -> api -> "
        "runtime -> serving)"
    )
    invariant = (
        "lower layers stay importable and testable without the stack "
        "above them; no import-time cycles between subsystems"
    )

    def __init__(
        self, root_package: str = "repro", layers: Mapping[str, int] | None = None
    ) -> None:
        self.root_package = root_package
        self.layers = dict(layers if layers is not None else DEFAULT_LAYERS)

    def _package_of(self, module_name: str) -> str | None:
        parts = module_name.split(".")
        if parts[0] != self.root_package:
            return None
        return parts[1] if len(parts) > 1 else ""

    def check_module(self, module: Module, index: ProjectIndex) -> Iterable[Violation]:
        own_package = self._package_of(module.name)
        if own_package is None:
            return
        if own_package and own_package not in self.layers:
            # Reported once per package by check_project; without a layer
            # number the upward checks below cannot run for this module.
            return
        own_layer = self.layers.get(own_package) if own_package else None
        for node in _module_level_imports(module.tree):
            for target in self._imported_modules(node):
                imported = self._package_of(target)
                if imported is None or imported == "" or imported == own_package:
                    continue
                if imported not in self.layers:
                    yield self.violation(
                        module,
                        node,
                        f"import of unmapped package "
                        f"{self.root_package}.{imported}; add it to the "
                        "layer map first",
                        f"unmapped-import:{imported}",
                    )
                    continue
                if own_layer is None:
                    # The root package's own __init__ may import anything.
                    continue
                if self.layers[imported] > own_layer:
                    yield self.violation(
                        module,
                        node,
                        f"upward import: {self.root_package}.{own_package} "
                        f"(layer {own_layer}) imports "
                        f"{self.root_package}.{imported} (layer "
                        f"{self.layers[imported]}) at module level; invert "
                        "the dependency, move the shared type down, or make "
                        "the import function-local if the back-reference is "
                        "deliberate",
                        f"upward:{own_package}->{imported}",
                    )

    def check_project(self, index: ProjectIndex) -> Iterable[Violation]:
        """One violation per package that is missing from the layer map."""
        first_module: dict[str, Module] = {}
        for module in index:
            package = self._package_of(module.name)
            if package and package not in self.layers and package not in first_module:
                first_module[package] = module
        for package, module in sorted(first_module.items()):
            yield self.violation(
                module,
                1,
                f"package {self.root_package}.{package} is not in the "
                "layer map; place it in DEFAULT_LAYERS "
                "(repro/analysis/rules/layering.py) to declare where it "
                "sits in the architecture",
                f"unmapped:{package}",
            )

    @staticmethod
    def _imported_modules(node: ast.Import | ast.ImportFrom) -> Iterator[str]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif node.module is not None and node.level == 0:
            yield node.module
