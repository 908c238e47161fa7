"""repro.analysis — "reprolint", the project's AST-based invariant checker.

The test suite proves the system's guarantees hold *today*; this package
makes the code patterns behind those guarantees checkable, so a change
that silently breaks determinism, snapshot coverage, lock discipline or
the layering DAG fails CI with a message naming the invariant rather
than surfacing weeks later as a flaky resume diff.

Run it with ``python -m repro.analysis [paths]`` (see
:mod:`repro.analysis.cli` for the exit-code contract) or embed it::

    from repro.analysis import build_index, default_rules, run_rules

    index = build_index([Path("src/repro")])
    violations = run_rules(index, default_rules())

Every violation fails the build.  A justified exception is silenced in
place by a suppression comment that says why; :mod:`repro.analysis.core`
describes the syntax.

Layering contract: layer 2 of the enforced import DAG (peer of
``dataset``/``ml``/``text``) — may import only ``errors``, ``config`` and
same-layer peers; never ``sqlengine`` or anything above. Enforced by this
very package; see ``docs/architecture.md``.
"""

from __future__ import annotations

from repro.analysis.core import (
    Module,
    ProjectIndex,
    Rule,
    Violation,
    build_index,
    run_rules,
)
from repro.analysis.rules import default_rules

__all__ = [
    "Module",
    "ProjectIndex",
    "Rule",
    "Violation",
    "build_index",
    "default_rules",
    "run_rules",
]
