"""Session runtime: checkpoint/restore and the worker pool.

The verification loop of :mod:`repro.api` is a long-running, stateful
process — crowd batches arrive over hours, and classifier state accumulates
across every batch.  This package makes that loop operable:

* :mod:`repro.runtime.snapshot` — :class:`ServiceSnapshot`, a versioned
  JSON checkpoint of a :class:`~repro.api.service.VerificationService`
  (claim statuses, classifier weights and vocabulary, RNG streams,
  planner/report accounting).  ``service.snapshot()`` captures one,
  ``ScrutinizerBuilder.from_snapshot(...)`` restores it; a restored run
  continues byte-identically to an uninterrupted one.
  :class:`SnapshotStore` keeps one snapshot per key in a directory.
* :mod:`repro.runtime.pool` — :class:`WorkerPool`, the lazy thread pool
  the multi-tenant :mod:`repro.serving` layer schedules tenant batches
  on.

Layering contract: layer 11 of the enforced import DAG (peer of
``simulation``) — may import ``api`` and everything below it; never
``serving`` or ``gateway``. Enforced by reprolint; see
``docs/architecture.md``.
"""

from repro.runtime.pool import WorkerPool
from repro.runtime.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    ServiceSnapshot,
    SnapshotStore,
    scrutinizer_config_from_dict,
    scrutinizer_config_to_dict,
)

__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "ServiceSnapshot",
    "SnapshotStore",
    "WorkerPool",
    "scrutinizer_config_from_dict",
    "scrutinizer_config_to_dict",
]
