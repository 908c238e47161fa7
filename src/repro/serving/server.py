"""The multi-tenant verification server.

:class:`VerificationServer` turns the single-session runtime into a
serving layer: many tenants submit claims against a shared corpus, each
tenant gets its own isolated :class:`~repro.api.service.VerificationService`
(own translator, own feature store, own RNG streams — seeded per tenant,
so runs are deterministic and tenants cannot observe each other), and a
deadline-aware scheduler (:class:`~repro.serving.scheduler.TenantScheduler`)
multiplexes ``run_batch`` calls across the resident sessions over one
shared :class:`~repro.runtime.pool.WorkerPool`: runnable tenants accrue
weighted-deficit credit, and each round queues its tenants' batches on
the pool at once, so a freed worker takes the round's next batch instead
of idling.  Each tenant selects its own batches inside ``run_batch``,
through the server's one :class:`~repro.planning.engine.PlannerEngine`.

Admission control (:class:`AdmissionPolicy`) bounds every resource the
server holds:

* the **registry** — at most ``max_tenants`` tenants ever admitted;
* the **submission queue** — at most ``max_queued_submissions`` requests
  waiting for the next scheduling round; a full queue raises
  :class:`~repro.errors.BackpressureError` so callers back off instead of
  growing the server without bound;
* the **per-tenant pending-claim quota** — a tenant cannot hold more than
  ``max_pending_claims_per_tenant`` undecided claims across its session
  and queued submissions;
* the **resident set** — at most ``max_resident_sessions`` sessions live
  in memory; beyond that, the least-recently-scheduled sessions are
  passivated to :class:`~repro.runtime.snapshot.ServiceSnapshot`
  checkpoints (on disk when the server has a snapshot directory) and
  rehydrated transparently on the tenant's next request.  Because the
  snapshot layer round-trips classifier weights and RNG streams exactly,
  an evicted-then-rehydrated session produces the same verified-claim set
  as one that stayed resident.
"""

from __future__ import annotations

import copy
import time
import zlib
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.api.service import BatchResult, VerificationService
from repro.claims.corpus import ClaimCorpus
from repro.config import ScrutinizerConfig
from repro.core.report import VerificationReport
from repro.errors import (
    AdmissionError,
    BackpressureError,
    ClaimError,
    ConfigurationError,
    ServingError,
    UnknownTenantError,
)
from repro.planning.engine import PlannerEngine
from repro.runtime.pool import WorkerPool
from repro.runtime.snapshot import ServiceSnapshot, SnapshotStore
from repro.serving.scheduler import TenantScheduler

__all__ = [
    "AdmissionPolicy",
    "ServerStats",
    "TenantBatchOutcome",
    "TenantStatus",
    "VerificationServer",
]

# ---------------------------------------------------------------------- #
# policy
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounds on what the server will accept and keep in memory."""

    #: Hard bound on the tenant registry; admission of tenant N+1 fails.
    max_tenants: int = 64
    #: How many sessions may be resident (in memory) at once; the rest are
    #: passivated to snapshots and rehydrated on demand (LRU).
    max_resident_sessions: int = 4
    #: Per-tenant cap on undecided claims (pending + queued); ``None``
    #: disables the quota.
    max_pending_claims_per_tenant: int | None = None
    #: Bound on the submission queue between scheduling rounds; a full
    #: queue raises :class:`~repro.errors.BackpressureError`.
    max_queued_submissions: int = 256

    def __post_init__(self) -> None:
        if self.max_tenants < 1:
            raise ConfigurationError("max_tenants must be at least 1")
        if self.max_resident_sessions < 1:
            raise ConfigurationError("max_resident_sessions must be at least 1")
        if (
            self.max_pending_claims_per_tenant is not None
            and self.max_pending_claims_per_tenant < 1
        ):
            raise ConfigurationError(
                "max_pending_claims_per_tenant must be at least 1 (or None)"
            )
        if self.max_queued_submissions < 1:
            raise ConfigurationError("max_queued_submissions must be at least 1")


# ---------------------------------------------------------------------- #
# bookkeeping
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Submission:
    tenant_id: str
    claim_ids: tuple[str, ...]


@dataclass
class _TenantRecord:
    """Everything the server tracks about one tenant."""

    tenant_id: str
    admission_index: int
    seed: int
    service: VerificationService | None = None
    #: In-memory passivated state when the server has no snapshot store.
    parked_snapshot: ServiceSnapshot | None = None
    #: Whether a passivated snapshot exists (in memory or on disk).
    passivated: bool = False
    #: Every claim id ever accepted for this tenant; duplicate submissions
    #: are filtered against it so quotas never double-count retries.
    known_claims: set[str] = field(default_factory=set)
    #: Claims accepted while the session was passivated, applied on the
    #: next rehydration so a submit never forces a snapshot round-trip.
    buffered_claims: list[str] = field(default_factory=list)
    queued_claims: int = 0
    submitted_claims: int = 0
    verified_claims: int = 0
    pending_claims: int = 0
    batches_run: int = 0
    evictions: int = 0
    rehydrations: int = 0
    last_scheduled_round: int = -1
    #: Rounds spent runnable but without a slot, total and worst streak.
    wait_rounds_total: int = 0
    wait_rounds_max: int = 0
    #: Times the deadline bound forced this tenant to the front.
    deadline_boosts: int = 0

    @property
    def resident(self) -> bool:
        return self.service is not None

    @property
    def has_pending_work(self) -> bool:
        return self.pending_claims > 0 or self.queued_claims > 0


@dataclass
class ServerStats:
    """Aggregate counters over the server's lifetime."""

    rounds: int = 0
    batches: int = 0
    claims_verified: int = 0
    sessions_started: int = 0
    evictions: int = 0
    rehydrations: int = 0
    rejected_submissions: int = 0
    peak_resident: int = 0
    #: Batches queued past the pool's width, which start on a worker
    #: freed mid-round.
    steals: int = 0
    #: Times a tenant hit the deadline bound and jumped the queue.
    deadline_boosts: int = 0
    #: Always 0: every tenant plans its own batches.  Kept only because the
    #: repository benchmark reads it.
    fused_batches: int = 0


@dataclass(frozen=True)
class TenantStatus:
    """Read-only view of one tenant for status surfaces."""

    tenant_id: str
    resident: bool
    passivated: bool
    submitted_claims: int
    verified_claims: int
    pending_claims: int
    queued_claims: int
    batches_run: int
    evictions: int
    rehydrations: int
    wait_rounds_total: int = 0
    wait_rounds_max: int = 0
    deadline_boosts: int = 0

    @property
    def is_complete(self) -> bool:
        return self.submitted_claims > 0 and self.pending_claims == 0 and (
            self.queued_claims == 0
        )


@dataclass(frozen=True)
class TenantBatchOutcome:
    """One scheduled batch of one tenant, with its scheduling latency."""

    tenant_id: str
    result: BatchResult
    #: Wall-clock seconds this batch took inside the worker (planning,
    #: simulated crowd, retraining) — the per-batch serving latency.
    wall_seconds: float


# ---------------------------------------------------------------------- #
# the server
# ---------------------------------------------------------------------- #
class VerificationServer:
    """Serve many tenant verification sessions from one process.

    Parameters
    ----------
    corpus:
        The shared annotated corpus tenants submit claims against.
    config:
        Base system configuration; each tenant runs under a copy whose
        seed is offset by a stable hash of the tenant id, so tenant runs
        are deterministic yet decorrelated.
    policy:
        The :class:`AdmissionPolicy`; defaults bound the registry at 64
        tenants and the resident set at 4 sessions.
    max_workers:
        Width of the scheduling pool; defaults to the resident-session
        bound (one worker per concurrently runnable session).
    snapshot_dir:
        Directory for passivated sessions.  Without one, evicted sessions
        park their snapshots in memory — same round-trip semantics, no
        crash durability.
    """

    def __init__(
        self,
        corpus: ClaimCorpus,
        config: ScrutinizerConfig | None = None,
        *,
        policy: AdmissionPolicy | None = None,
        max_workers: int | None = None,
        snapshot_dir: str | Path | None = None,
        system_name: str = "Serving",
    ) -> None:
        self.corpus = corpus
        self.config = config if config is not None else ScrutinizerConfig()
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.store = SnapshotStore(snapshot_dir) if snapshot_dir is not None else None
        self.stats = ServerStats()
        self._system_name = system_name
        self._pool = WorkerPool(
            max_workers if max_workers is not None else self.policy.max_resident_sessions
        )
        self._scheduler = TenantScheduler()
        self._planner_engine = PlannerEngine()
        self._tenants: dict[str, _TenantRecord] = {}
        self._queue: deque[_Submission] = deque()
        self._round = 0
        self._closed = False
        #: Warm session template: the corpus-wide featurizer fit is
        #: identical for every tenant (it depends only on the corpus and
        #: the translation config), so the template is fitted once and
        #: deep-copied per session, and each session's own bootstrap keeps
        #: the fitted copy — ~10x cheaper tenant cold starts, with full
        #: isolation because each session gets its own copy of every
        #: mutable part.
        self._translator_template = None

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    @property
    def tenant_ids(self) -> tuple[str, ...]:
        return tuple(self._tenants)

    @property
    def planner_engine(self) -> PlannerEngine:
        """The engine every tenant session plans through."""
        return self._planner_engine

    @property
    def resident_count(self) -> int:
        return sum(1 for record in self._tenants.values() if record.resident)

    @property
    def queued_submissions(self) -> int:
        return len(self._queue)

    @property
    def is_idle(self) -> bool:
        """No queued submissions and no tenant with pending claims."""
        return not self._queue and not any(
            record.has_pending_work for record in self._tenants.values()
        )

    def _record(self, tenant_id: str) -> _TenantRecord:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise UnknownTenantError(tenant_id) from None

    def _new_record(
        self, tenant_id: str, snapshot: ServiceSnapshot | None = None
    ) -> _TenantRecord:
        """A record for an unregistered tenant; the caller registers it."""
        if len(self._tenants) >= self.policy.max_tenants:
            self.stats.rejected_submissions += 1
            raise AdmissionError(
                f"tenant registry is full ({self.policy.max_tenants} tenants); "
                f"cannot admit {tenant_id!r}"
            )
        record = _TenantRecord(
            tenant_id=tenant_id,
            admission_index=len(self._tenants),
            # A stable per-tenant seed offset: deterministic across server
            # restarts, decorrelated across tenants.
            seed=self.config.seed + (zlib.crc32(tenant_id.encode("utf-8")) % 8191),
        )
        # A snapshot left by a previous server over the same directory
        # (crash, restart, scale-down) is adopted on admission: the tenant
        # resumes where it stopped instead of starting a fresh session.
        if snapshot is None and self.store is not None and self.store.exists(tenant_id):
            snapshot = self.store.load(tenant_id)
        if snapshot is not None:
            record.passivated = True
            record.pending_claims = snapshot.pending_count
            record.verified_claims = snapshot.verified_count
            record.submitted_claims = snapshot.pending_count + snapshot.verified_count
            if snapshot.session is not None:
                record.known_claims.update(
                    str(claim_id) for claim_id in snapshot.session["pending"]
                )
            record.known_claims.update(snapshot.verdicts)
        return record

    def adopt_tenants(self) -> tuple[str, ...]:
        """Admit every tenant with a snapshot in the server's store.

        A server restarted over an existing snapshot directory calls this
        to resume interrupted tenants without waiting for them to submit
        again; their sessions rehydrate lazily when next scheduled.
        Returns the tenant ids adopted (admitted or already known).
        """
        if self.store is None:
            return ()
        adopted = []
        for key, snapshot in self.store.items():
            if key not in self._tenants:
                self._tenants[key] = self._new_record(key, snapshot)
            adopted.append(key)
        return tuple(adopted)

    def submit(self, tenant_id: str, claim_ids: Sequence[str]) -> int:
        """Queue claims for a tenant; returns how many were queued.

        Admission checks happen here, synchronously: unknown claims are
        rejected (:class:`~repro.errors.ClaimError`), a full registry or an
        exceeded per-tenant quota raises
        :class:`~repro.errors.AdmissionError`, and a full submission queue
        raises :class:`~repro.errors.BackpressureError`.  Work only starts
        at the next :meth:`run_round`.

        Resubmitting claims the tenant already has in flight (or decided)
        is a safe no-op, mirroring session semantics: duplicates neither
        count against the quota nor occupy queue slots, so idempotent
        client retries are never spuriously rejected.
        """
        if self._closed:
            raise ServingError("the server is closed")
        ids = tuple(dict.fromkeys(claim_ids))
        if not ids:
            return 0
        unknown = [claim_id for claim_id in ids if claim_id not in self.corpus]
        if unknown:
            raise ClaimError(f"unknown claims submitted: {unknown[:5]!r}")
        record = self._tenants.get(tenant_id)
        if record is None:
            record = self._new_record(tenant_id)
        fresh = tuple(
            claim_id for claim_id in ids if claim_id not in record.known_claims
        )
        if not fresh:
            self._tenants[tenant_id] = record
            return 0
        quota = self.policy.max_pending_claims_per_tenant
        if quota is not None:
            outstanding = record.pending_claims + record.queued_claims
            if outstanding + len(fresh) > quota:
                self.stats.rejected_submissions += 1
                raise AdmissionError(
                    f"tenant {tenant_id!r} would exceed its pending-claim quota "
                    f"({outstanding} outstanding + {len(fresh)} new > {quota})"
                )
        if len(self._queue) >= self.policy.max_queued_submissions:
            self.stats.rejected_submissions += 1
            raise BackpressureError(
                f"submission queue is full "
                f"({self.policy.max_queued_submissions} requests); retry later"
            )
        # A new tenant is registered only once a submission is accepted, so
        # a refused first submission holds no registry slot.
        self._tenants[tenant_id] = record
        self._queue.append(_Submission(tenant_id=tenant_id, claim_ids=fresh))
        record.known_claims.update(fresh)
        record.queued_claims += len(fresh)
        return len(fresh)

    def flush_submissions(self) -> None:
        """Move every queued submission onto its tenant record now.

        Normally the queue drains at the next :meth:`run_round`; recovery
        paths (gateway journal replay) call this between resubmissions so
        an arbitrarily long acked backlog never trips the
        ``max_queued_submissions`` bound that exists to shed *live*
        traffic.
        """
        if self._closed:
            raise ServingError("the server is closed")
        self._drain_queue()

    # ------------------------------------------------------------------ #
    # session residency
    # ------------------------------------------------------------------ #
    def _fresh_translator(self):
        from repro.translation.translator import ClaimTranslator

        if self._translator_template is None:
            template = ClaimTranslator(
                self.corpus.database, config=self.config.translation
            )
            template.bootstrap([annotated.claim for annotated in self.corpus])
            self._translator_template = template
        # The read-only database is shared across copies, and so are the
        # featurizer's fitted tables, which nothing writes after the fit
        # (see ClaimFeaturizer); everything mutable (classifiers, feature
        # store, fit corpus) is per tenant.
        return copy.deepcopy(
            self._translator_template,
            memo={id(self.corpus.database): self.corpus.database},
        )

    def _load_parked_snapshot(self, record: _TenantRecord) -> ServiceSnapshot:
        if self.store is not None:
            return self.store.load(record.tenant_id)
        if record.parked_snapshot is None:
            raise ServingError(
                f"tenant {record.tenant_id!r} is passivated but has no snapshot"
            )
        return record.parked_snapshot

    def _evict_lru(self, excess: int, keep: set[str]) -> None:
        """Passivate ``excess`` unprotected residents, least useful first.

        Ranking is queue-pressure driven rather than pure LRU: idle
        sessions go before ones with pending work, light backlogs before
        heavy ones (a heavy tenant is the most likely next schedule, so
        passivating it would just buy a rehydration), and only then by how
        long ago a session was last scheduled."""
        if excess <= 0:
            return
        evictable = [
            candidate
            for candidate in self._tenants.values()
            if candidate.resident and candidate.tenant_id not in keep
        ]
        evictable.sort(
            key=lambda candidate: (
                candidate.has_pending_work,
                candidate.pending_claims + candidate.queued_claims,
                candidate.last_scheduled_round,
                candidate.admission_index,
            )
        )
        for candidate in evictable[:excess]:
            self._passivate(candidate)

    def _make_room(self, record: _TenantRecord, protected: Sequence[str]) -> None:
        """Evict LRU residents so ``record`` can become resident in-bound."""
        self._evict_lru(
            (self.resident_count + 1) - self.policy.max_resident_sessions,
            set(protected) | {record.tenant_id},
        )

    def _ensure_resident(
        self, record: _TenantRecord, protected: Sequence[str] = ()
    ) -> VerificationService:
        if record.service is not None:
            return record.service
        self._make_room(record, protected)
        if record.passivated:
            from repro.api.builder import ScrutinizerBuilder

            snapshot = self._load_parked_snapshot(record)
            service = ScrutinizerBuilder.from_snapshot(
                snapshot, self.corpus
            ).build_service()
            record.rehydrations += 1
            self.stats.rehydrations += 1
        else:
            service = VerificationService(
                self.corpus,
                replace(self.config, seed=record.seed),
                translator=self._fresh_translator(),
                system_name=f"{self._system_name}/{record.tenant_id}",
            )
            self.stats.sessions_started += 1
        # Every tenant plans on the server's one engine, so its stats
        # aggregate over tenants.
        service.planner.engine = self._planner_engine
        record.service = service
        record.parked_snapshot = None
        if record.buffered_claims:
            service.submit(record.buffered_claims)
            record.buffered_claims.clear()
            record.pending_claims = service.pending_count
        self.stats.peak_resident = max(self.stats.peak_resident, self.resident_count)
        return service

    def _passivate(self, record: _TenantRecord) -> None:
        service = record.service
        if service is None:
            return
        snapshot = service.snapshot(metadata={"tenant_id": record.tenant_id})
        if self.store is not None:
            self.store.save(record.tenant_id, snapshot)
            record.parked_snapshot = None
        else:
            record.parked_snapshot = snapshot
        record.passivated = True
        record.service = None
        record.evictions += 1
        self.stats.evictions += 1

    def evict(self, tenant_id: str) -> bool:
        """Passivate a tenant's session now; ``True`` if one was resident."""
        record = self._record(tenant_id)
        if record.service is None:
            return False
        self._passivate(record)
        return True

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def _drain_queue(self) -> None:
        while self._queue:
            submission = self._queue.popleft()
            record = self._tenants[submission.tenant_id]
            if record.service is not None:
                record.service.submit(submission.claim_ids)
                record.pending_claims = record.service.pending_count
            else:
                # Never rehydrate a session just to enqueue claims: park
                # them on the record; they reach the session the next time
                # it is resident.  The pending estimate is exact because
                # submit() only queues claims the tenant has never seen.
                record.buffered_claims.extend(submission.claim_ids)
                record.pending_claims += len(submission.claim_ids)
            record.queued_claims = max(0, record.queued_claims - len(submission.claim_ids))
            record.submitted_claims += len(submission.claim_ids)

    def run_round(self) -> list[TenantBatchOutcome]:
        """Run one scheduling round.

        Drains the queue, asks the :class:`~repro.serving.scheduler.
        TenantScheduler` for up to ``max_resident_sessions`` tenants
        (weighted-deficit fair, deadline-bounded), then queues all their
        batches on the pool at once: the first ``max_workers`` start
        immediately, and each later one (a *steal*) starts on the first
        worker to free up.

        Tenants whose sessions are passivated but still have pending
        claims are rehydrated before running.  Batches are booked in
        dispatch order, and the outcomes come back in that order (empty
        when the server is idle).  If any batch raised, the first such
        error is re-raised only once every batch has finished and the
        others are booked.
        """
        if self._closed:
            raise ServingError("the server is closed")
        self._drain_queue()
        runnable = [
            record for record in self._tenants.values() if record.pending_claims > 0
        ]
        if not runnable:
            return []
        self._round += 1
        decision = self._scheduler.select(
            runnable, min(len(runnable), self.policy.max_resident_sessions)
        )
        scheduled = [self._tenants[tenant_id] for tenant_id in decision.scheduled]
        for tenant_id in decision.deadline_boosted:
            self._tenants[tenant_id].deadline_boosts += 1
            self.stats.deadline_boosts += 1
        for tenant_id in decision.waiting:
            record = self._tenants[tenant_id]
            record.wait_rounds_total += 1
            record.wait_rounds_max = max(
                record.wait_rounds_max, self._scheduler.waiting_rounds(tenant_id)
            )
        protected = tuple(record.tenant_id for record in scheduled)
        for record in scheduled:
            # Residency only changes between rounds, never while workers
            # run; scheduled tenants are protected from the LRU sweep.
            self._ensure_resident(record, protected=protected)
            record.last_scheduled_round = self._round

        def _run_one(record: _TenantRecord) -> tuple[BatchResult | None, float]:
            started = time.perf_counter()
            assert record.service is not None
            result = record.service.run_batch()
            return result, time.perf_counter() - started

        # Batches past the pool's width wait in its queue for a freed worker.
        futures = [self._pool.submit(_run_one, record) for record in scheduled]
        self.stats.steals += max(0, len(scheduled) - self._pool.max_workers)
        outcomes: list[TenantBatchOutcome] = []
        failures: list[BaseException] = []
        for record, future in zip(scheduled, futures):
            error = future.exception()
            if error is not None:
                failures.append(error)
                continue
            result, wall = future.result()
            if result is None:
                record.pending_claims = 0
                continue
            record.batches_run += 1
            record.verified_claims += result.batch_size
            record.pending_claims = result.pending_after
            self.stats.batches += 1
            self.stats.claims_verified += result.batch_size
            outcomes.append(
                TenantBatchOutcome(
                    tenant_id=record.tenant_id, result=result, wall_seconds=wall
                )
            )
        self.stats.rounds += 1
        if failures:
            raise failures[0]
        return outcomes

    def run_until_idle(self, max_rounds: int | None = None) -> list[TenantBatchOutcome]:
        """Run rounds until every submitted claim everywhere is decided.

        Returns the concatenated outcomes of all rounds run.  ``max_rounds``
        bounds the loop for staged runs (crash drills, benchmarks).
        """
        outcomes: list[TenantBatchOutcome] = []
        rounds = 0
        while not self.is_idle:
            if max_rounds is not None and rounds >= max_rounds:
                break
            round_outcomes = self.run_round()
            rounds += 1
            if not round_outcomes and not self._queue:
                break
            outcomes.extend(round_outcomes)
        return outcomes

    # ------------------------------------------------------------------ #
    # results & introspection
    # ------------------------------------------------------------------ #
    def report(self, tenant_id: str) -> VerificationReport:
        """The tenant's verification report, resident or passivated."""
        record = self._record(tenant_id)
        if record.service is not None:
            return record.service.report
        if record.passivated:
            snapshot = self._load_parked_snapshot(record)
            if snapshot.report is not None:
                return VerificationReport.from_dict(snapshot.report)
        return VerificationReport(
            system_name=f"{self._system_name}/{tenant_id}",
            checker_count=self.config.checker_count,
        )

    def verified_claim_ids(self, tenant_id: str) -> tuple[str, ...]:
        """Which claims the tenant has had verified so far (sorted)."""
        return tuple(
            sorted(
                verification.claim_id
                for verification in self.report(tenant_id).verifications
            )
        )

    def known_claims(self, tenant_id: str) -> frozenset[str]:
        """Every claim id the tenant has submitted or adopted from a snapshot."""
        return frozenset(self._record(tenant_id).known_claims)

    def tenant_status(self, tenant_id: str) -> TenantStatus:
        record = self._record(tenant_id)
        return TenantStatus(
            tenant_id=record.tenant_id,
            resident=record.resident,
            passivated=record.passivated,
            submitted_claims=record.submitted_claims,
            verified_claims=record.verified_claims,
            pending_claims=record.pending_claims,
            queued_claims=record.queued_claims,
            batches_run=record.batches_run,
            evictions=record.evictions,
            rehydrations=record.rehydrations,
            wait_rounds_total=record.wait_rounds_total,
            wait_rounds_max=record.wait_rounds_max,
            deadline_boosts=record.deadline_boosts,
        )

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Passivate every resident session and release the pool.

        With a snapshot directory, every tenant's state survives on disk —
        a fresh server over the same directory picks the tenants back up
        on their next submission (the resume-after-crash scenario).
        """
        if self._closed:
            return
        # Queued submissions move onto their tenant records first; parked
        # claims must then reach the snapshots, or a restarted server
        # would lose work it had already accepted.
        self._drain_queue()
        for record in self._tenants.values():
            if record.buffered_claims:
                self._ensure_resident(record)
            if record.resident:
                self._passivate(record)
        self._pool.close()
        self._closed = True

    def __enter__(self) -> "VerificationServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
