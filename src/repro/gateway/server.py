"""The asyncio gateway: edge admission, durable acks, streamed results.

Threading model (the whole design in four lines):

* the **event loop** owns all edge state — tenant registry, dedup sets,
  outstanding counts, the submission backlog — so admission decisions
  never need a lock;
* a **single-thread engine executor** owns the
  :class:`~repro.serving.server.VerificationServer`; every touch of the
  engine goes through ``run_in_executor`` on that executor, so the
  server never sees two threads;
* a **flush coroutine** group-commits the journal: many acks ride one
  ``fsync``;
* data crosses between them by value (submission batches in, plain
  outcome reports back).

Durability contract: a submission is journaled and fsynced *before* its
ack frame is written, so the set of acked submissions is always a
subset of the journal.  Recovery (:func:`recover_server`) first adopts
every tenant snapshot (``adopt_tenants()``), then replays the journal
in sequence order — replaying an already-snapshotted submission is a
no-op because sessions dedup known claims — so a ``SIGKILL`` at any
point loses zero acked submissions.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import ScrutinizerConfig
from repro.errors import (
    AdmissionError,
    BackpressureError,
    ClaimError,
    GatewayError,
    ProtocolError,
    ReproError,
    UnknownTenantError,
)
from repro.gateway.journal import JournalScan, JournalWriter, scan_journal
from repro.gateway.protocol import (
    ERROR_BAD_FRAME,
    encode_frame,
    decode_frame,
    error_code_for,
    error_frame,
)
from repro.serving.server import AdmissionPolicy, TenantBatchOutcome, VerificationServer

__all__ = ["GatewayServer", "GatewayStats", "RecoveryReport", "recover_server"]


# ---------------------------------------------------------------------- #
# recovery
# ---------------------------------------------------------------------- #
@dataclass
class RecoveryReport:
    """What a restart found and rebuilt: snapshots first, then journal."""

    adopted_tenants: tuple[str, ...]
    scan: JournalScan
    replayed_records: int
    replayed_claims: int
    duplicate_claims: int
    rejected_records: int
    #: Edge dedup sets rebuilt from snapshots + journal, per tenant.
    known_claims: dict[str, frozenset[str]]
    #: Undecided (pending + queued) claims per tenant after replay.
    outstanding: dict[str, int]
    verified: dict[str, int]

    def to_dict(self) -> dict:
        return {
            "adopted_tenants": sorted(self.adopted_tenants),
            "journal": self.scan.to_dict(),
            "replayed_records": self.replayed_records,
            "replayed_claims": self.replayed_claims,
            "duplicate_claims": self.duplicate_claims,
            "rejected_records": self.rejected_records,
            "tenants": len(self.known_claims),
            "outstanding_claims": sum(self.outstanding.values()),
            "verified_claims": sum(self.verified.values()),
        }


def _submit_acked(
    server: VerificationServer, tenant_id: str, claim_ids: Sequence[str]
) -> int:
    """Submit an acked record; returns how many claims were queued.

    The live-traffic queue bound must never reject an acked record: on
    backpressure the queue is drained onto tenant records and the record
    resubmitted.  Other admission errors propagate to the caller.
    """
    try:
        return server.submit(tenant_id, claim_ids)
    except BackpressureError:
        server.flush_submissions()
        return server.submit(tenant_id, claim_ids)


def recover_server(
    server: VerificationServer, journal_dir: str | Path, *, strict: bool = False
) -> RecoveryReport:
    """Rebuild ``server`` from snapshots plus the submission journal.

    Ordering matters and is pinned by test: ``adopt_tenants()`` runs
    first so passivated progress (verified claims, trained models) is
    the baseline, then the journal replays in sequence order to re-queue
    every acked-but-unprocessed submission.  Claims the snapshots
    already decided dedup to no-ops, which is what makes replay — and
    replay-of-a-replay — idempotent.
    """
    adopted = server.adopt_tenants()
    scan = scan_journal(journal_dir, strict=strict)
    replayed_records = replayed_claims = duplicate_claims = rejected_records = 0
    for record in scan.records:
        try:
            accepted = _submit_acked(server, record.tenant_id, record.claim_ids)
        except ReproError:
            rejected_records += 1
            continue
        replayed_records += 1
        replayed_claims += accepted
        duplicate_claims += len(record.claim_ids) - accepted
    server.flush_submissions()
    known: dict[str, frozenset[str]] = {}
    outstanding: dict[str, int] = {}
    verified: dict[str, int] = {}
    for tenant_id in server.tenant_ids:
        status = server.tenant_status(tenant_id)
        known[tenant_id] = server.known_claims(tenant_id)
        outstanding[tenant_id] = status.pending_claims + status.queued_claims
        verified[tenant_id] = status.verified_claims
    return RecoveryReport(
        adopted_tenants=adopted,
        scan=scan,
        replayed_records=replayed_records,
        replayed_claims=replayed_claims,
        duplicate_claims=duplicate_claims,
        rejected_records=rejected_records,
        known_claims=known,
        outstanding=outstanding,
        verified=verified,
    )


# ---------------------------------------------------------------------- #
# bookkeeping
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _PendingSubmission:
    """One journaled submission waiting for the engine (seq-ordered)."""

    seq: int
    tenant_id: str
    claim_ids: tuple[str, ...]


@dataclass
class _EngineReport:
    """Plain-data result of one engine step, handed back to the loop."""

    outcomes: list[TenantBatchOutcome]
    idle: bool
    rejected: int
    ran_round: bool
    #: tenant → (outstanding undecided claims, verified claims).
    tenants: dict[str, tuple[int, int]]


@dataclass
class GatewayStats:
    """Lifecycle counters the status frame and run report expose."""

    connections_opened: int = 0
    frames_received: int = 0
    frames_sent: int = 0
    submissions_accepted: int = 0
    submissions_rejected: int = 0
    rejections_by_code: dict[str, int] = field(default_factory=dict)
    claims_accepted: int = 0
    duplicate_claims: int = 0
    results_streamed: int = 0
    rounds: int = 0
    batches: int = 0
    engine_rejects: int = 0

    def shed(self, code: str) -> None:
        self.submissions_rejected += 1
        self.rejections_by_code[code] = self.rejections_by_code.get(code, 0) + 1

    def to_dict(self) -> dict:
        return {
            "connections_opened": self.connections_opened,
            "frames_received": self.frames_received,
            "frames_sent": self.frames_sent,
            "submissions_accepted": self.submissions_accepted,
            "submissions_rejected": self.submissions_rejected,
            "rejections_by_code": dict(self.rejections_by_code),
            "claims_accepted": self.claims_accepted,
            "duplicate_claims": self.duplicate_claims,
            "results_streamed": self.results_streamed,
            "rounds": self.rounds,
            "batches": self.batches,
            "engine_rejects": self.engine_rejects,
        }


class _Connection:
    """One client connection; frame writes serialize on an asyncio lock."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self._write_lock = asyncio.Lock()
        self._closed = False

    async def send(self, frame: dict) -> bool:
        """Write one frame; False when the connection is already gone."""
        data = encode_frame(frame)
        async with self._write_lock:
            if self._closed:
                return False
            self.writer.write(data)
            await self.writer.drain()
        return True

    async def close(self) -> None:
        async with self._write_lock:
            if self._closed:
                return
            self._closed = True
        with contextlib.suppress(ConnectionError, OSError):
            self.writer.close()
            await self.writer.wait_closed()


# ---------------------------------------------------------------------- #
# the gateway
# ---------------------------------------------------------------------- #
class GatewayServer:
    """NDJSON-over-TCP front door for a :class:`VerificationServer`.

    The ack path touches only event-loop state and the journal, so ack
    latency is independent of round duration; the engine runs rounds on
    its own executor thread and streams results back to subscribers as
    batches complete.
    """

    def __init__(
        self,
        corpus,
        config: ScrutinizerConfig | None = None,
        *,
        journal_dir: str | Path,
        policy: AdmissionPolicy | None = None,
        snapshot_dir: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        flush_interval: float = 0.002,
        auto_pump: bool = True,
        system_name: str = "Gateway",
    ) -> None:
        self._server = VerificationServer(
            corpus,
            config,
            policy=policy,
            snapshot_dir=snapshot_dir,
            system_name=system_name,
        )
        self.policy = self._server.policy
        self._journal = JournalWriter(journal_dir)
        self._engine = ThreadPoolExecutor(max_workers=1, thread_name_prefix="gateway-engine")
        self.stats = GatewayStats()
        self.host = host
        self.port: int | None = None
        self._requested_port = port
        self._flush_interval = flush_interval
        self._auto_pump = auto_pump
        # Edge state: event-loop thread only, never shared, never locked.
        self._known: dict[str, set[str]] = {}
        self._outstanding: dict[str, int] = {}
        self._verified: dict[str, int] = {}
        self._backlog: deque[_PendingSubmission] = deque()
        self._subscribers: dict[str, set[_Connection]] = {}
        self._connections: set[_Connection] = set()
        self._commit_waiters: list[asyncio.Future] = []
        self._work = asyncio.Event()
        self._flush_request = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tcp: asyncio.Server | None = None
        self._pump_task: asyncio.Task | None = None
        self._flush_task: asyncio.Task | None = None
        self._recovery: RecoveryReport | None = None
        self._last_idle = True
        self._engine_busy = False
        self._stopping = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # properties & introspection
    # ------------------------------------------------------------------ #
    @property
    def server(self) -> VerificationServer:
        return self._server

    @property
    def journal(self) -> JournalWriter:
        return self._journal

    @property
    def recovery(self) -> RecoveryReport | None:
        return self._recovery

    @property
    def backlog_size(self) -> int:
        return len(self._backlog)

    def status_payload(self) -> dict:
        """Edge-side view; never blocks on the engine."""
        return {
            "listening": {"host": self.host, "port": self.port},
            "connections": len(self._connections),
            "tenants": len(self._known),
            "backlog": len(self._backlog),
            "outstanding_claims": sum(self._outstanding.values()),
            "verified_claims": sum(self._verified.values()),
            "idle": self._last_idle and not self._backlog and not self._engine_busy,
            "stats": self.stats.to_dict(),
            "journal": self._journal.stats(),
            "recovery": self._recovery.to_dict() if self._recovery else None,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Recover, bind, and begin serving."""
        self._loop = asyncio.get_running_loop()
        recovery = await self._loop.run_in_executor(self._engine, self._engine_recover)
        self._recovery = recovery
        for tenant_id, claims in recovery.known_claims.items():
            self._known[tenant_id] = set(claims)
        self._outstanding.update(recovery.outstanding)
        self._verified.update(recovery.verified)
        self._last_idle = all(count == 0 for count in recovery.outstanding.values())
        self._tcp = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self._requested_port,
            limit=1 << 20,
        )
        self.port = self._tcp.sockets[0].getsockname()[1]
        self._flush_task = asyncio.create_task(self._flush_loop())
        if self._auto_pump:
            self._pump_task = asyncio.create_task(self._round_loop())
        if not self._last_idle:
            self._work.set()

    async def stop(self) -> None:
        """Graceful shutdown: drain the backlog, passivate every tenant.

        Every step runs even when the pump task died of a batch error;
        that error is raised once the gateway is fully stopped.
        """
        if self._stopped:
            return
        pump_error = await self._halt("gateway stopped before commit")
        batch = list(self._backlog)
        self._backlog.clear()
        if self._loop is not None:
            await self._loop.run_in_executor(self._engine, self._engine_shutdown, batch)
        self._engine.shutdown(wait=True)
        # close() runs the journal's final fsync; keep it off the loop.
        loop = self._loop or asyncio.get_running_loop()
        await loop.run_in_executor(None, self._journal.close)
        await self._close_connections()
        self._stopped = True
        if pump_error is not None:
            raise pump_error

    async def abort(self) -> None:
        """Crash simulation: stop without passivation or a final commit.

        Used by recovery tests to model ``SIGKILL``: whatever the journal
        fsynced survives, resident sessions and buffered journal bytes do
        not.  Like :meth:`stop`, it raises the pump's error last.
        """
        if self._stopped:
            return
        pump_error = await self._halt("gateway aborted before commit")
        self._engine.shutdown(wait=True)
        self._journal.abandon()
        # Free worker threads without passivating: a crash writes no
        # snapshots, but threads are not state.
        self._server._pool.close()  # noqa: SLF001 — crash simulation only
        await self._close_connections()
        self._stopped = True
        if pump_error is not None:
            raise pump_error

    async def _halt(self, reason: str) -> BaseException | None:
        """Stop listening and end the pump and flush tasks.

        Fails the pending commit waiters with ``reason`` and returns the
        error a task died of (the pump's, after a batch raised), or
        ``None``.
        """
        self._stopping = True
        self._work.set()
        self._flush_request.set()
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
        error: BaseException | None = None
        for task in (self._pump_task, self._flush_task):
            if task is None:
                continue
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                # Ours to swallow only when it is the task's own
                # cancellation, not one aimed at this coroutine.
                current = asyncio.current_task()
                if current is not None and current.cancelling():
                    raise
            except Exception as task_error:
                error = error or task_error
        self._pump_task = None
        self._flush_task = None
        self._fail_commit_waiters(reason)
        return error

    def _fail_commit_waiters(self, reason: str) -> None:
        waiters = self._commit_waiters
        self._commit_waiters = []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_exception(GatewayError(reason))

    async def _close_connections(self) -> None:
        for connection in tuple(self._connections):
            await connection.close()
        self._connections.clear()
        self._subscribers.clear()

    async def __aenter__(self) -> "GatewayServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------ #
    # engine-thread functions (run on the single-thread executor; they
    # must not write gateway state — results travel back by value)
    # ------------------------------------------------------------------ #
    def _engine_recover(self) -> RecoveryReport:
        return recover_server(self._server, self._journal.directory)

    def _engine_step(self, batch: list[_PendingSubmission]) -> _EngineReport:
        rejected = 0
        touched = set()
        for submission in batch:
            touched.add(submission.tenant_id)
            try:
                _submit_acked(self._server, submission.tenant_id, submission.claim_ids)
            except ReproError:
                rejected += 1
        outcomes = self._server.run_round()
        touched.update(outcome.tenant_id for outcome in outcomes)
        tenants = {}
        for tenant_id in touched:
            status = self._server.tenant_status(tenant_id)
            tenants[tenant_id] = (
                status.pending_claims + status.queued_claims,
                status.verified_claims,
            )
        return _EngineReport(
            outcomes=outcomes,
            idle=self._server.is_idle,
            rejected=rejected,
            ran_round=bool(outcomes),
            tenants=tenants,
        )

    def _engine_report_for(self, tenant_id: str) -> dict:
        report = self._server.report(tenant_id)
        status = self._server.tenant_status(tenant_id)
        return {
            "verdicts": {
                verification.claim_id: verification.verdict
                for verification in report.verifications
            },
            "pending": status.pending_claims + status.queued_claims,
            "verified": status.verified_claims,
        }

    def _engine_evict(self, tenant_id: str) -> bool:
        return self._server.evict(tenant_id)

    def _engine_shutdown(self, batch: list[_PendingSubmission]) -> None:
        for submission in batch:
            with contextlib.suppress(ReproError):
                _submit_acked(self._server, submission.tenant_id, submission.claim_ids)
        self._server.close()

    # ------------------------------------------------------------------ #
    # pump & flush loops
    # ------------------------------------------------------------------ #
    async def _round_loop(self) -> None:
        while not self._stopping:
            await self._work.wait()
            if self._stopping:
                break
            await self.pump_once()
            if not self._backlog and self._last_idle:
                self._work.clear()

    async def pump_once(self) -> _EngineReport:
        """Apply the backlog and run one round; stream the results.

        The auto-pump loop calls this continuously; tests construct the
        gateway with ``auto_pump=False`` and call it directly for
        deterministic stepping.
        """
        batch = list(self._backlog)
        self._backlog.clear()
        assert self._loop is not None
        self._engine_busy = True
        try:
            report = await self._loop.run_in_executor(self._engine, self._engine_step, batch)
        finally:
            self._engine_busy = False
        for tenant_id, frame in self._apply_engine_report(report):
            await self._broadcast(tenant_id, frame)
        return report

    def _apply_engine_report(self, report: _EngineReport) -> list[tuple[str, dict]]:
        frames: list[tuple[str, dict]] = []
        self.stats.engine_rejects += report.rejected
        if report.ran_round:
            self.stats.rounds += 1
        for outcome in report.outcomes:
            self.stats.batches += 1
            for verification in outcome.result.verifications:
                frames.append(
                    (
                        outcome.tenant_id,
                        {
                            "type": "result",
                            "tenant_id": outcome.tenant_id,
                            "claim_id": verification.claim_id,
                            "verdict": verification.verdict,
                            "skipped": verification.skipped,
                            "batch_index": verification.batch_index,
                        },
                    )
                )
                self.stats.results_streamed += 1
        for tenant_id, (outstanding, verified) in report.tenants.items():
            backlogged = sum(
                len(submission.claim_ids)
                for submission in self._backlog
                if submission.tenant_id == tenant_id
            )
            self._outstanding[tenant_id] = outstanding + backlogged
            self._verified[tenant_id] = verified
            if outstanding + backlogged == 0:
                frames.append(
                    (
                        tenant_id,
                        {"type": "complete", "tenant_id": tenant_id, "verified": verified},
                    )
                )
        self._last_idle = report.idle
        return frames

    async def _flush_loop(self) -> None:
        while not self._stopping:
            await self._flush_request.wait()
            self._flush_request.clear()
            if self._stopping:
                break
            if self._flush_interval > 0:
                # The group-commit window: every ack that arrives while we
                # sleep rides the same fsync.
                await asyncio.sleep(self._flush_interval)
            waiters = self._commit_waiters
            self._commit_waiters = []
            if not waiters:
                continue
            assert self._loop is not None
            try:
                await self._loop.run_in_executor(None, self._journal.commit)
            except OSError as error:
                for waiter in waiters:
                    if not waiter.done():
                        waiter.set_exception(GatewayError(f"journal commit failed: {error}"))
            else:
                for waiter in waiters:
                    if not waiter.done():
                        waiter.set_result(None)

    async def _commit(self) -> None:
        assert self._loop is not None
        waiter = self._loop.create_future()
        self._commit_waiters.append(waiter)
        self._flush_request.set()
        await waiter

    async def wait_idle(self, timeout: float = 120.0) -> bool:
        """Poll until backlog and engine are drained (tests, benchmarks)."""
        assert self._loop is not None
        deadline = self._loop.time() + timeout
        while self._loop.time() < deadline:
            if not self._backlog and not self._engine_busy and self._last_idle:
                return True
            await asyncio.sleep(0.02)
        return False

    # ------------------------------------------------------------------ #
    # connections & dispatch
    # ------------------------------------------------------------------ #
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        self.stats.connections_opened += 1
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError:
                    break
                except asyncio.LimitOverrunError:
                    await self._send(
                        connection,
                        error_frame(ERROR_BAD_FRAME, "frame exceeds the size limit"),
                    )
                    break
                except (ConnectionError, OSError):
                    break
                self.stats.frames_received += 1
                try:
                    frame = decode_frame(line)
                except ProtocolError as error:
                    self.stats.shed(ERROR_BAD_FRAME)
                    if not await self._send(
                        connection, error_frame(ERROR_BAD_FRAME, str(error))
                    ):
                        break
                    continue
                if not await self._dispatch(connection, frame):
                    break
        finally:
            self._connections.discard(connection)
            for subscribers in self._subscribers.values():
                subscribers.discard(connection)
            await connection.close()

    async def _send(self, connection: _Connection, frame: dict) -> bool:
        try:
            sent = await connection.send(frame)
        except (ConnectionError, OSError):
            return False
        if sent:
            self.stats.frames_sent += 1
        return sent

    async def _respond(self, connection: _Connection, frame: dict, rid: str | None) -> bool:
        if rid is not None:
            frame["request_id"] = rid
        return await self._send(connection, frame)

    def _subscribe(self, connection: _Connection, tenant_id: str) -> None:
        self._subscribers.setdefault(tenant_id, set()).add(connection)

    async def _broadcast(self, tenant_id: str, frame: dict) -> None:
        for connection in tuple(self._subscribers.get(tenant_id, ())):
            if not await self._send(connection, frame):
                self._subscribers[tenant_id].discard(connection)

    async def _dispatch(self, connection: _Connection, frame: dict) -> bool:
        kind = frame["type"]
        request_id = frame.get("request_id")
        rid = request_id if isinstance(request_id, str) else None
        try:
            if kind == "submit":
                await self._handle_submit(connection, frame, rid)
            elif kind == "subscribe":
                tenant_id = _required_str(frame, "tenant_id")
                self._subscribe(connection, tenant_id)
                await self._respond(
                    connection,
                    {"type": "ack", "tenant_id": tenant_id, "subscribed": True},
                    rid,
                )
            elif kind == "report":
                await self._handle_report(connection, frame, rid)
            elif kind == "status":
                await self._respond(
                    connection, {"type": "status", **self.status_payload()}, rid
                )
            elif kind == "evict":
                await self._handle_evict(connection, frame, rid)
            elif kind == "bye":
                await self._respond(connection, {"type": "bye"}, rid)
                return False
            else:
                raise ProtocolError(f"unknown frame type {kind!r}")
        except ReproError as error:
            code = error_code_for(error)
            self.stats.shed(code)
            response = error_frame(code, str(error), request_id=rid)
            if isinstance(error, UnknownTenantError):
                response["tenant_id"] = error.tenant_id
            return await self._send(connection, response)
        return True

    async def _handle_submit(
        self, connection: _Connection, frame: dict, rid: str | None
    ) -> None:
        tenant_id = _required_str(frame, "tenant_id")
        raw_claims = frame.get("claim_ids")
        if not isinstance(raw_claims, list) or not raw_claims:
            raise ProtocolError("submit frame needs a non-empty 'claim_ids' list")
        if not all(isinstance(claim, str) and claim for claim in raw_claims):
            raise ProtocolError("'claim_ids' must be non-empty strings")
        if self._stopping:
            raise GatewayError("the gateway is shutting down")
        ids = tuple(dict.fromkeys(raw_claims))
        unknown = [claim for claim in ids if claim not in self._server.corpus]
        if unknown:
            raise ClaimError(f"unknown claims submitted: {unknown[:5]!r}")
        new_tenant = tenant_id not in self._known
        if new_tenant and len(self._known) >= self.policy.max_tenants:
            raise AdmissionError(
                f"tenant registry is full ({self.policy.max_tenants} tenants)"
            )
        known = self._known.get(tenant_id, set())
        fresh = tuple(claim for claim in ids if claim not in known)
        outstanding = self._outstanding.get(tenant_id, 0)
        if not fresh:
            # Idempotent retry: everything here was acked before.
            self._subscribe(connection, tenant_id)
            self.stats.duplicate_claims += len(ids)
            await self._respond(
                connection,
                {
                    "type": "ack",
                    "tenant_id": tenant_id,
                    "accepted": 0,
                    "duplicates": len(ids),
                    "seq": None,
                    "outstanding": outstanding,
                },
                rid,
            )
            return
        quota = self.policy.max_pending_claims_per_tenant
        if quota is not None and outstanding + len(fresh) > quota:
            raise AdmissionError(
                f"tenant {tenant_id!r} would exceed its pending-claim quota "
                f"({outstanding} outstanding + {len(fresh)} new > {quota})"
            )
        if len(self._backlog) >= self.policy.max_queued_submissions:
            raise BackpressureError(
                f"submission backlog is full "
                f"({self.policy.max_queued_submissions} requests); retry later"
            )
        # Accepted: journal, index, enqueue — all before the first await,
        # so backlog order always equals journal order.
        seq = self._journal.append(tenant_id, fresh)
        self._known.setdefault(tenant_id, set()).update(fresh)
        self._outstanding[tenant_id] = outstanding + len(fresh)
        self._backlog.append(_PendingSubmission(seq=seq, tenant_id=tenant_id, claim_ids=fresh))
        self._subscribe(connection, tenant_id)
        self._work.set()
        self.stats.submissions_accepted += 1
        self.stats.claims_accepted += len(fresh)
        self.stats.duplicate_claims += len(ids) - len(fresh)
        # Durability barrier: the ack may only be written once the record
        # is fsynced (group-committed with its neighbours).
        await self._commit()
        await self._respond(
            connection,
            {
                "type": "ack",
                "tenant_id": tenant_id,
                "accepted": len(fresh),
                "duplicates": len(ids) - len(fresh),
                "seq": seq,
                "outstanding": self._outstanding.get(tenant_id, 0),
            },
            rid,
        )

    async def _handle_report(
        self, connection: _Connection, frame: dict, rid: str | None
    ) -> None:
        tenant_id = _required_str(frame, "tenant_id")
        if tenant_id not in self._known:
            raise UnknownTenantError(tenant_id)
        assert self._loop is not None
        payload = await self._loop.run_in_executor(
            self._engine, self._engine_report_for, tenant_id
        )
        await self._respond(
            connection, {"type": "report", "tenant_id": tenant_id, **payload}, rid
        )

    async def _handle_evict(
        self, connection: _Connection, frame: dict, rid: str | None
    ) -> None:
        tenant_id = _required_str(frame, "tenant_id")
        if tenant_id not in self._known:
            raise UnknownTenantError(tenant_id)
        assert self._loop is not None
        evicted = await self._loop.run_in_executor(self._engine, self._engine_evict, tenant_id)
        await self._respond(
            connection,
            {"type": "evicted", "tenant_id": tenant_id, "evicted": bool(evicted)},
            rid,
        )


def _required_str(frame: dict, key: str) -> str:
    value = frame.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"frame needs a non-empty string {key!r}")
    return value
