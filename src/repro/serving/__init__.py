"""Multi-tenant serving over the verification runtime.

One :class:`~repro.serving.server.VerificationServer` process runs many
independent :class:`~repro.api.service.VerificationService` sessions — one
per tenant — against a shared corpus and a shared
:class:`~repro.runtime.pool.WorkerPool`:

* :mod:`repro.serving.server` — the server: a bounded session registry
  keyed by tenant id, an :class:`~repro.serving.server.AdmissionPolicy`
  (registry bound, per-tenant pending-claim quotas, bounded submission
  queue with backpressure), a deadline-bounded scheduler whose rounds
  queue ``run_batch`` calls of many sessions on the thread pool at once
  (each tenant plans its own batches through the server's one planner
  engine), and queue-pressure-driven passivation of idle sessions to
  :class:`~repro.runtime.snapshot.ServiceSnapshot` checkpoints (rehydrated
  transparently on the tenant's next request).
* :mod:`repro.serving.scheduler` — the scheduling policy itself:
  weighted-deficit fairness with a hard anti-starvation deadline (both
  module constants), decoupled from server bookkeeping so it is
  independently testable.
* :mod:`repro.serving.workloads` — scenario-driven mixed tenant traffic:
  bursty submitters, steady streamers and resume-after-crash tenants,
  generated deterministically and drivable against any server.
* :mod:`repro.serving.cli` — ``python -m repro.serving`` with ``run`` /
  ``status`` verbs over the synthetic workload.

``benchmarks/test_bench_serving_throughput.py`` records sustained
claims/sec and p95 batch latency at 1/4/16 concurrent tenants in
``BENCH_serving_throughput.json``.

Layering contract: layer 12 of the enforced import DAG — may import
``runtime``/``simulation``, ``api`` and everything below; only
``gateway``/``experiments`` may import it. Enforced by reprolint; see
``docs/architecture.md``.
"""

from repro.serving.scheduler import RoundDecision, TenantScheduler
from repro.serving.server import (
    AdmissionPolicy,
    ServerStats,
    TenantBatchOutcome,
    TenantStatus,
    VerificationServer,
)
from repro.serving.workloads import (
    SCENARIO_KINDS,
    CrashEvent,
    ServingWorkload,
    SubmissionEvent,
    TenantScenario,
    WorkloadRunResult,
    build_workload,
    drive_workload,
)

__all__ = [
    "AdmissionPolicy",
    "CrashEvent",
    "RoundDecision",
    "SCENARIO_KINDS",
    "ServerStats",
    "TenantScheduler",
    "ServingWorkload",
    "SubmissionEvent",
    "TenantBatchOutcome",
    "TenantScenario",
    "TenantStatus",
    "VerificationServer",
    "WorkloadRunResult",
    "build_workload",
    "drive_workload",
]
