"""Scenario-driven tenant traffic for exercising the serving layer.

A :class:`ServingWorkload` is a deterministic script of mixed tenant
behaviour over scheduling rounds:

* **bursty** tenants submit their whole claim set in one request, at a
  staggered arrival round — the thundering-herd shape;
* **steady** tenants stream a few claims every round — the interactive
  fact-checker shape;
* **resume** tenants submit early and then *crash* (their session is
  evicted to a snapshot mid-run) and continue on the next request — the
  durability shape the snapshot layer guarantees.

:func:`build_workload` partitions a claim population across tenants and
assigns scenarios from a mix, all seeded; :func:`drive_workload` replays
the script against any :class:`~repro.serving.server.VerificationServer`,
retrying submissions the server rejects with backpressure on a later
round, exactly like a well-behaved client.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import AdmissionError, BackpressureError, ConfigurationError
from repro.serving.server import TenantBatchOutcome, VerificationServer

__all__ = [
    "SCENARIO_KINDS",
    "CrashEvent",
    "ServingWorkload",
    "SubmissionEvent",
    "TenantScenario",
    "WorkloadRunResult",
    "build_workload",
    "build_zipf_workload",
    "drive_workload",
    "percentile",
]


def percentile(values: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile of serving latencies (0 for no samples).

    The single definition feeds both the CLI summary and the committed
    serving benchmark, so their p95 numbers cannot drift apart.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(percent / 100.0 * (len(ordered) - 1))))
    return ordered[rank]

#: The tenant behaviours the generator knows how to script.
SCENARIO_KINDS = ("bursty", "steady", "resume")

#: How many rounds a steady tenant spreads its claims over.
_STEADY_SPAN = 4
#: The round at which a resume tenant's session crashes.
_CRASH_ROUND = 2


@dataclass(frozen=True)
class TenantScenario:
    """One tenant's behaviour and claim allotment."""

    tenant_id: str
    kind: str
    claim_ids: tuple[str, ...]

    @property
    def claim_count(self) -> int:
        return len(self.claim_ids)


@dataclass(frozen=True)
class SubmissionEvent:
    """One client request: a tenant submits claims at a given round."""

    round_index: int
    tenant_id: str
    claim_ids: tuple[str, ...]


@dataclass(frozen=True)
class CrashEvent:
    """A tenant's session is lost (evicted to its snapshot) at a round."""

    round_index: int
    tenant_id: str


@dataclass(frozen=True)
class ServingWorkload:
    """A deterministic multi-tenant traffic script."""

    scenarios: tuple[TenantScenario, ...]
    submissions: tuple[SubmissionEvent, ...]
    crashes: tuple[CrashEvent, ...]
    seed: int

    @property
    def tenant_count(self) -> int:
        return len(self.scenarios)

    @property
    def claim_count(self) -> int:
        return sum(scenario.claim_count for scenario in self.scenarios)


def build_workload(
    claim_ids: Sequence[str],
    *,
    tenant_count: int,
    seed: int = 0,
    mix: Sequence[str] = SCENARIO_KINDS,
) -> ServingWorkload:
    """Script mixed tenant traffic over a claim population.

    Claims are dealt round-robin across ``tenant_count`` tenants (every
    claim goes to exactly one tenant), scenario kinds cycle through
    ``mix``, and arrival rounds are drawn from a seeded generator — the
    same inputs always produce the same script.
    """
    if tenant_count < 1:
        raise ConfigurationError("tenant_count must be at least 1")
    if not claim_ids:
        raise ConfigurationError("a workload needs at least one claim")
    unknown_kinds = [kind for kind in mix if kind not in SCENARIO_KINDS]
    if unknown_kinds:
        raise ConfigurationError(
            f"unknown scenario kinds {unknown_kinds!r}; choose from {SCENARIO_KINDS}"
        )
    if not mix:
        raise ConfigurationError("the scenario mix must name at least one kind")
    rng = np.random.default_rng(seed)
    allotments: list[list[str]] = [[] for _ in range(tenant_count)]
    for index, claim_id in enumerate(claim_ids):
        allotments[index % tenant_count].append(claim_id)

    scenarios: list[TenantScenario] = []
    submissions: list[SubmissionEvent] = []
    crashes: list[CrashEvent] = []
    for index, allotted in enumerate(allotments):
        if not allotted:
            continue
        tenant_id = f"tenant-{index:02d}"
        kind = mix[index % len(mix)]
        scenarios.append(
            TenantScenario(tenant_id=tenant_id, kind=kind, claim_ids=tuple(allotted))
        )
        if kind == "bursty":
            arrival = int(rng.integers(0, 3))
            submissions.append(
                SubmissionEvent(
                    round_index=arrival, tenant_id=tenant_id, claim_ids=tuple(allotted)
                )
            )
        elif kind == "steady":
            span = min(_STEADY_SPAN, len(allotted))
            chunks = np.array_split(np.asarray(allotted, dtype=object), span)
            for offset, chunk in enumerate(chunks):
                if len(chunk) == 0:
                    continue
                submissions.append(
                    SubmissionEvent(
                        round_index=offset,
                        tenant_id=tenant_id,
                        claim_ids=tuple(str(claim_id) for claim_id in chunk),
                    )
                )
        else:  # resume
            submissions.append(
                SubmissionEvent(
                    round_index=0, tenant_id=tenant_id, claim_ids=tuple(allotted)
                )
            )
            crashes.append(CrashEvent(round_index=_CRASH_ROUND, tenant_id=tenant_id))
    submissions.sort(key=lambda event: (event.round_index, event.tenant_id))
    return ServingWorkload(
        scenarios=tuple(scenarios),
        submissions=tuple(submissions),
        crashes=tuple(crashes),
        seed=seed,
    )


def build_zipf_workload(
    claim_ids: Sequence[str],
    *,
    tenant_count: int,
    seed: int = 0,
    exponent: float = 1.1,
    total_claims: int | None = None,
) -> ServingWorkload:
    """Script Zipf-skewed bursty traffic over a shared claim population.

    Real multi-tenant traffic is heavy-tailed: a few hot tenants submit
    most of the work while a long tail submits a claim or two.  Tenant at
    popularity rank ``r`` receives a share proportional to
    ``1 / r**exponent`` of ``total_claims`` submissions (at least one
    each), drawn *with reuse across tenants* from ``claim_ids`` — distinct
    tenants may check the same claim, which is exactly the serving
    scenario (sessions are isolated; only the corpus is shared).  Every
    tenant submits as one burst at a staggered arrival round, so large
    tenant counts produce the thundering-herd admission pattern the
    scheduler's fairness and passivation pressure are built for.

    ``total_claims`` defaults to ``max(len(claim_ids), tenant_count)``.
    The same inputs always produce the same script.
    """
    if tenant_count < 1:
        raise ConfigurationError("tenant_count must be at least 1")
    if not claim_ids:
        raise ConfigurationError("a workload needs at least one claim")
    if exponent <= 0:
        raise ConfigurationError("the Zipf exponent must be positive")
    population = tuple(dict.fromkeys(claim_ids))
    budget = (
        total_claims
        if total_claims is not None
        else max(len(population), tenant_count)
    )
    if budget < tenant_count:
        raise ConfigurationError(
            "total_claims must give every tenant at least one claim"
        )
    rng = np.random.default_rng(seed)
    shares = np.array(
        [1.0 / (rank + 1) ** exponent for rank in range(tenant_count)]
    )
    shares /= shares.sum()
    counts = np.maximum(1, np.floor(shares * budget).astype(int))
    counts = np.minimum(counts, len(population))
    scenarios: list[TenantScenario] = []
    submissions: list[SubmissionEvent] = []
    for index in range(tenant_count):
        tenant_id = f"tenant-{index:03d}"
        drawn = rng.choice(len(population), size=int(counts[index]), replace=False)
        allotted = tuple(population[int(position)] for position in sorted(drawn))
        scenarios.append(
            TenantScenario(tenant_id=tenant_id, kind="bursty", claim_ids=allotted)
        )
        submissions.append(
            SubmissionEvent(
                round_index=int(rng.integers(0, 4)),
                tenant_id=tenant_id,
                claim_ids=allotted,
            )
        )
    submissions.sort(key=lambda event: (event.round_index, event.tenant_id))
    return ServingWorkload(
        scenarios=tuple(scenarios),
        submissions=tuple(submissions),
        crashes=(),
        seed=seed,
    )


@dataclass(frozen=True)
class WorkloadRunResult:
    """What happened when a workload was driven against a server."""

    outcomes: tuple[TenantBatchOutcome, ...]
    rounds: int
    wall_seconds: float
    #: Submissions initially rejected with backpressure and retried later.
    deferred_submissions: int
    verified_by_tenant: dict[str, tuple[str, ...]]

    @property
    def verified_count(self) -> int:
        return sum(len(claims) for claims in self.verified_by_tenant.values())

    @property
    def batch_latencies(self) -> tuple[float, ...]:
        return tuple(outcome.wall_seconds for outcome in self.outcomes)

    @property
    def claims_per_second(self) -> float:
        return self.verified_count / self.wall_seconds if self.wall_seconds > 0 else 0.0


def drive_workload(
    server: VerificationServer,
    workload: ServingWorkload,
    *,
    max_rounds: int = 500,
) -> WorkloadRunResult:
    """Replay a workload script against a server until it drains.

    Each scheduling round first applies the script's crash events (the
    tenant's session is evicted to its snapshot — rehydration on its next
    scheduled batch is the durability drill), then its submissions for the
    round.  A submission the server rejects with
    :class:`~repro.errors.BackpressureError` is retried on the next round,
    like a client honouring a 429; one rejected for an
    :class:`~repro.errors.AdmissionError` (typically a pending-claim quota
    smaller than the request) is split in half and both halves retried on
    the next round — chunks at or under the quota are admitted as the
    tenant's earlier claims drain.  After the script is exhausted the
    server runs to idle.
    """
    started = time.perf_counter()
    outcomes: list[TenantBatchOutcome] = []
    pending_events = sorted(
        workload.submissions, key=lambda event: (event.round_index, event.tenant_id)
    )
    crash_events = list(workload.crashes)
    deferred = 0
    round_index = 0
    rounds_run = 0
    while rounds_run < max_rounds:
        for crash in [c for c in crash_events if c.round_index <= round_index]:
            # A tenant whose first submission is still being refused has
            # no session to lose.
            if crash.tenant_id in server.tenant_ids:
                server.evict(crash.tenant_id)
            crash_events.remove(crash)
        still_waiting: list[SubmissionEvent] = []
        for event in pending_events:
            if event.round_index > round_index:
                still_waiting.append(event)
                continue
            try:
                server.submit(event.tenant_id, event.claim_ids)
            except BackpressureError:
                deferred += 1
                still_waiting.append(
                    SubmissionEvent(
                        round_index=round_index + 1,
                        tenant_id=event.tenant_id,
                        claim_ids=event.claim_ids,
                    )
                )
            except AdmissionError:
                # A whole-allotment burst can exceed any per-tenant quota
                # outright; retrying it unchanged would never succeed.
                # Halve it and retry both parts next round instead.
                deferred += 1
                half = max(1, len(event.claim_ids) // 2)
                for chunk in (event.claim_ids[:half], event.claim_ids[half:]):
                    if chunk:
                        still_waiting.append(
                            SubmissionEvent(
                                round_index=round_index + 1,
                                tenant_id=event.tenant_id,
                                claim_ids=chunk,
                            )
                        )
        pending_events = still_waiting
        outcomes.extend(server.run_round())
        rounds_run += 1
        round_index += 1
        if not pending_events and not crash_events and server.is_idle:
            break
    # A run stopped early (max_rounds) may end before a tenant's arrival
    # round; a tenant the server never admitted has verified nothing.
    admitted = set(server.tenant_ids)
    verified = {
        scenario.tenant_id: server.verified_claim_ids(scenario.tenant_id)
        if scenario.tenant_id in admitted
        else ()
        for scenario in workload.scenarios
    }
    return WorkloadRunResult(
        outcomes=tuple(outcomes),
        rounds=rounds_run,
        wall_seconds=time.perf_counter() - started,
        deferred_submissions=deferred,
        verified_by_tenant=verified,
    )
