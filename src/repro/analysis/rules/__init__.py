"""Rule registry for the ``repro.analysis`` invariant checker.

Every rule is a small, self-contained module under this package;
:func:`default_rules` instantiates the standard set with project
defaults.  Tests and embedders can instead construct individual rules
with custom scopes (e.g. a :class:`LayeringRule` with a different layer
map) and hand them straight to :func:`repro.analysis.core.run_rules`.

Module-local rules (rng, locks, layering, ...) inspect one file at a
time; the whole-program rules (lock-order, async-blocking,
snapshot-reachability) run over the project call graph built
by :mod:`repro.analysis.graph`.
"""

from __future__ import annotations

from repro.analysis.core import Rule
from repro.analysis.rules.async_blocking import AsyncBlockingRule
from repro.analysis.rules.errors_rule import ErrorTaxonomyRule
from repro.analysis.rules.hygiene import PrintHygieneRule, WallClockRule
from repro.analysis.rules.layering import DEFAULT_LAYERS, LayeringRule
from repro.analysis.rules.lock_order import LockOrderRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.rng import RngDisciplineRule
from repro.analysis.rules.snapshot_reach import SnapshotReachabilityRule
from repro.analysis.rules.snapshots import SnapshotCoverageRule

__all__ = [
    "AsyncBlockingRule",
    "DEFAULT_LAYERS",
    "ErrorTaxonomyRule",
    "LayeringRule",
    "LockDisciplineRule",
    "LockOrderRule",
    "PrintHygieneRule",
    "RngDisciplineRule",
    "SnapshotCoverageRule",
    "SnapshotReachabilityRule",
    "WallClockRule",
    "default_rules",
]


def default_rules() -> list[Rule]:
    """The standard rule set, in deterministic report order."""
    return [
        RngDisciplineRule(),
        SnapshotCoverageRule(),
        LockDisciplineRule(),
        LayeringRule(),
        ErrorTaxonomyRule(),
        PrintHygieneRule(),
        WallClockRule(),
        LockOrderRule(),
        AsyncBlockingRule(),
        SnapshotReachabilityRule(),
    ]
