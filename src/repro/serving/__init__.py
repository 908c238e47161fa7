"""Multi-tenant serving over the verification runtime.

One :class:`~repro.serving.server.VerificationServer` process runs many
independent :class:`~repro.api.service.VerificationService` sessions — one
per tenant — against a shared corpus and a shared
:class:`~repro.runtime.pool.WorkerPool`:

* :mod:`repro.serving.server` — the server: a bounded session registry
  keyed by tenant id, an :class:`~repro.serving.server.AdmissionPolicy`
  (registry bound, per-tenant pending-claim quotas, bounded submission
  queue with backpressure), a work-stealing deadline-bounded scheduler
  multiplexing ``run_batch`` calls across sessions (each tenant plans its
  own batches through the server's one planner engine), and
  queue-pressure-driven passivation of idle sessions to
  :class:`~repro.runtime.snapshot.ServiceSnapshot` checkpoints (rehydrated
  transparently on the tenant's next request).
* :mod:`repro.serving.scheduler` — the scheduling policy itself:
  weighted-deficit fairness with a hard anti-starvation deadline,
  decoupled from server bookkeeping so it is independently testable.
* :mod:`repro.serving.sharding` — sharded runs: a stable claim partition
  submitted as one tenant per shard, checkpointed per round, resumed by
  rerunning, merged into one report and one reconciled translator.
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

from repro.serving.scheduler import RoundDecision, SchedulerConfig, TenantScheduler
from repro.serving.server import (
    AdmissionPolicy,
    ServerStats,
    ServerStatus,
    TenantBatchOutcome,
    TenantStatus,
    VerificationServer,
)
from repro.serving.sharding import (
    merge_shard_reports,
    reconcile_translator,
    run_sharded,
    shard_claims,
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
    "SchedulerConfig",
    "ServerStats",
    "TenantScheduler",
    "ServerStatus",
    "ServingWorkload",
    "SubmissionEvent",
    "TenantBatchOutcome",
    "TenantScenario",
    "TenantStatus",
    "VerificationServer",
    "WorkloadRunResult",
    "build_workload",
    "drive_workload",
    "merge_shard_reports",
    "reconcile_translator",
    "run_sharded",
    "shard_claims",
]
