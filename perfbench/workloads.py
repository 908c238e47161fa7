"""The three benchmark workloads: seeded inputs, one closed-loop pass each, checks.

Every workload verifies a seeded synthetic IEA-style report
(:func:`make_corpus`: 300 claims, 12 sections, 18 relations, batches of
at most 25 claims, the shape of the repository's ``bench_scenario``)
under one fixed system configuration.  The seed drives the corpus, the
Zipf draw of tenant allotments and the frame order; the program only ever
sees the generated corpus and the submissions.  All three are closed
loops driven from one process with at most two connections, sized for
a two-core host.

``report``
    One caller submits the 300-claim report to one cold
    ``VerificationService`` from ``ScrutinizerBuilder`` (the default
    per-round MILP path) and runs batches until every claim has a
    verdict: 12 batches per pass.  It exists for Algorithm 1 end to end.
    Retraining (``translation.retrain``, ``ml.fit``) and prediction plus
    MILP planning (``planning.plan_batch``) carry the pass; serving,
    gateway and runtime are bypassed.  It runs on purpose the per-round
    MILP path that is slated to give way to ``PlannerEngine``, so that
    change shows its effect on ``checker_s_per_claim`` and
    ``verdict_accuracy`` here.
``tenants``
    The benchmark drives an in-process ``VerificationServer`` round by
    round from a Zipf(1.1) script: 96 tenants, about 610 claim
    submissions over the same corpus, the tenant of rank r arriving in
    round r mod 4, 8 resident sessions with the rest parked in memory, a
    worker pool two wide, a submission queue of 16 whose backpressure
    refusals retry on the next round.  It exists for the multi-tenant
    path with no network or disk: scheduler, fused engine planning,
    passivation and rehydration (``runtime.snapshot_*``, ``text.fit``)
    and many tiny cold fits.  A pool narrower than the runnable set makes
    the steal pump fire.  Gateway and on-disk snapshots are bypassed.
``gateway``
    An in-process ``GatewayServer`` on loopback with journal fsync on and
    an on-disk snapshot store.  Two client connections each upload their
    tenants' claims, tenant after tenant, as single-claim frames: the
    next frame goes out as soon as the previous one is acked and the
    connection has fewer than 64 claims awaiting verdicts, while verdicts
    stream back.  The mix is Zipf(1.1) over 16 tenants, about 490 frames,
    8 resident sessions.  A graceful stop and two restarts over the same
    directories follow.  It is the only workload with frames, journal
    append and group commit, and on-disk snapshots; it writes during
    traffic and reads at restart, so a journal or snapshot-format change
    that helps one side and costs the other shows.  Two connections give
    group commit something to batch.  The verdict window keeps the
    engine's backlog steady, so latency measures service rather than the
    position in one burst; 16 rather than 32 tenants give the larger
    tenants enough pending claims to record accuracy history.

``recovery_s`` is the restart after a graceful stop, timed twice per
pass (four times on ``gateway``).  ``gateway``: constructing and starting
a ``GatewayServer`` over the journal and snapshot directories the stopped
one left; it is stopped gracefully again and its verdicts checked before
the next restart.
``report`` and ``tenants`` keep nothing durable, so their restart is
checkpoint-free: a new service built over the corpus and warm-started on
the claims the pass verified (``VerificationService.warm_start``), until
it accepts a claim.  A traced pass's per-operation totals stop at the
last verdict, so they leave out the stop and these restarts;
``gateway``'s restarts are summarized per restart by the
``gateway.restart_*`` counters.
``gateway`` also records each frame's submit→ack time, journal append
and group-commit fsync included.

Layer → end-to-end predictions, for later changes to cite by name:

* ``ml.fit``, ``translation.retrain`` → ``claims_per_s`` and
  ``verdict_latency_p95_s`` on ``report``; a smaller share on ``tenants``
  and ``gateway``.
* ``planning.plan_batch`` → ``claims_per_s`` on ``report``;
  ``planning.plan_fused`` is small on ``tenants`` and ``gateway``.
* ``translation.translate``, ``translation.evaluate_accuracy``,
  ``crowd.verify``, ``pipeline.*`` → the remaining ~10% of ``report``'s
  ``claims_per_s``.
* ``runtime.*``, ``text.fit`` → ``tenants`` latency and throughput;
  absent on ``report``.  At restart, ``gateway.restart_store_loads``
  and ``gateway.restart_recover_s`` → ``gateway``'s ``recovery_s``.
* ``serving.*`` self time, ``serving.wait_rounds``, ``serving.steals`` →
  ``tenants`` ``verdict_latency_p50_s`` and ``verdict_latency_p95_s``.
* ``gateway.journal_*``, ``gateway.appends_per_commit`` → ``gateway``
  ack latency only; absent on ``report`` and ``tenants``, where the
  prediction is no change.
* ``gateway.pump``, ``gateway.backlog_max`` → ``gateway``
  ``claims_per_s`` and ``verdict_latency_p95_s``.
* ``text.fit`` at build → ``report``'s ``setup_s``.
* ``runtime.snapshot_capture`` → ``tenants``' ``peak_rss_mb``, because
  parked snapshots stay in memory.

Two restart costs are counted, not fixed: ``recover_server`` parses
every snapshot file twice (``gateway.restart_store_loads``, counted per
restart, reads 2 × ``gateway.restart_tenants``), and every rehydration
refits the featurizer from the snapshot's stored texts (on ``tenants``,
``text.fit.calls`` reads 1 + ``serving.rehydrations`` +
``text.vocab_refits``: the fit at build, one per rehydration and one per
vocabulary refit).

Deliberately unmeasured: ``repro.store`` (opt-in, with its own bench),
``repro.runtime.sharding`` and ``repro.synth`` (it only makes inputs).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CLAIM_COUNT = 300
#: The system's own seed (checker behaviour, accuracy sampling) is
#: configuration, not input: it stays fixed while ``--seed`` varies.
SYSTEM_SEED = 13
ACCURACY_SAMPLE_SIZE = 40
ZIPF_EXPONENT = 1.1
RESIDENT_SESSIONS = 8
#: Restarts timed per pass: one restart of about a second read 0.12–0.16
#: apart (IQR over median) across runs, twice the other timings' spread.
RESTARTS = 2

TENANT_COUNT = 96
TENANT_CLAIMS = 650
ARRIVAL_ROUNDS = 4
POOL_WIDTH = 2
QUEUE_BOUND = 16
MAX_ROUNDS = 5000

GATEWAY_TENANTS = 16
GATEWAY_FRAMES = 500
CONNECTIONS = 2
#: Claims a connection keeps awaiting verdicts: the next frame goes out
#: once the previous one is acked and fewer than this many are open.
WINDOW = 64
RESULT_TIMEOUT_S = 120.0
#: One gateway restart, which parses every tenant's snapshot file twice,
#: read 1.0–1.8 s within a single run; four per pass give the median
#: twice the samples, at about 3 s a pass.
GATEWAY_RESTARTS = 4


class CheckFailed(Exception):
    """A correctness check on the program's output failed."""


@dataclass
class PassResult:
    """What one pass measured, as plain data (serialized by the child)."""

    #: Construction until the system accepted its first claim.
    build_s: float = 0.0
    #: First submission sent until the last verdict received.
    traffic_s: float = 0.0
    #: ``perf_counter`` when the last verdict arrived.  A traced pass's
    #: per-operation totals stop here, so they cover the same build and
    #: traffic that ``setup_s`` and ``claims_per_s`` time; the graceful
    #: stop and the restarts after it are left out.
    traffic_end: float = 0.0
    #: Each timed restart after the graceful stop.
    restarts_s: list[float] = field(default_factory=list)
    #: (tenant, claim) pairs submitted, and pairs without exactly one
    #: verdict plus error frames.
    submitted: int = 0
    failed: int = 0
    verdict_latencies: list[float] = field(default_factory=list)
    ack_latencies: list[float] = field(default_factory=list)
    checker_seconds: float = 0.0
    verified: int = 0
    decided: int = 0
    correct_verdicts: int = 0
    accuracy_averages: list[float] = field(default_factory=list)
    #: Per-layer counters read from the program's own stats objects.
    counters: dict[str, float] = field(default_factory=dict)
    #: Failed correctness checks, one message each.
    errors: list[str] = field(default_factory=list)


class _Ledger:
    """Client-side record of submissions and verdicts per (tenant, claim)."""

    def __init__(self) -> None:
        self.sent: dict[tuple[str, str], float] = {}
        self.verdicts: dict[tuple[str, str], bool | None] = {}
        self.received: dict[tuple[str, str], float] = {}
        self.duplicates = 0

    def submitted(self, key: tuple[str, str], at: float) -> None:
        # A refused submission keeps the time it was first sent: the
        # retry's wait counts toward the claim's verdict latency.
        self.sent.setdefault(key, at)

    def verdict(self, key: tuple[str, str], verdict: bool | None, at: float) -> None:
        if key in self.verdicts:
            self.duplicates += 1
            return
        self.verdicts[key] = verdict
        self.received[key] = at

    def streamed(self, tenant: str) -> dict[str, bool | None]:
        return {claim: v for (owner, claim), v in self.verdicts.items() if owner == tenant}

    def close_into(self, result: PassResult, corpus) -> None:
        """Latencies, accuracy and the exactly-one-verdict check."""
        missing = [key for key in self.sent if key not in self.verdicts]
        unexpected = [key for key in self.verdicts if key not in self.sent]
        result.submitted = len(self.sent)
        result.failed += len(missing) + len(unexpected) + self.duplicates
        if missing or unexpected or self.duplicates:
            result.errors.append(
                f"verdicts: {len(missing)} missing, {len(unexpected)} unexpected, "
                f"{self.duplicates} duplicated"
            )
        result.verdict_latencies = [
            self.received[key] - sent for key, sent in self.sent.items() if key in self.received
        ]
        for (_, claim), verdict in self.verdicts.items():
            if verdict is not None:
                result.decided += 1
                result.correct_verdicts += verdict == corpus.ground_truth(claim).is_correct


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def system_config():
    """The fixed system configuration every workload runs under."""
    from repro.config import BatchingConfig, ScrutinizerConfig

    return ScrutinizerConfig(
        checker_count=3,
        options_per_property=10,
        batching=BatchingConfig(min_batch_size=1, max_batch_size=25),
        seed=SYSTEM_SEED,
    )


def make_corpus(seed: int):
    """The seeded synthetic report every workload verifies."""
    from repro.synth.energy_data import EnergyDataConfig
    from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus

    return generate_corpus(
        SyntheticCorpusConfig(
            claim_count=CLAIM_COUNT,
            section_count=12,
            explicit_fraction=0.5,
            error_fraction=0.25,
            data=EnergyDataConfig(relation_count=18, rows_per_relation=14, seed=seed + 1),
            seed=seed,
        )
    )


def zipf_allotments(claim_ids, tenant_count: int, total: int, rng) -> list[tuple[str, tuple[str, ...]]]:
    """Tenant at rank r gets ~total/r**1.1 distinct claims (at least one).

    Claims repeat across tenants: sessions are isolated, only the corpus
    is shared.
    """
    shares = 1.0 / np.arange(1, tenant_count + 1) ** ZIPF_EXPONENT
    counts = np.floor(shares / shares.sum() * total).astype(int)
    counts = np.minimum(np.maximum(counts, 1), len(claim_ids))
    allotments = []
    for rank, count in enumerate(counts):
        drawn = np.sort(rng.choice(len(claim_ids), size=int(count), replace=False))
        allotments.append((f"tenant-{rank:03d}", tuple(claim_ids[int(i)] for i in drawn)))
    return allotments


# ---------------------------------------------------------------------- #
# shared steps
# ---------------------------------------------------------------------- #
def _new_service(corpus):
    from repro.api import ScrutinizerBuilder

    return (
        ScrutinizerBuilder(corpus)
        .with_config(system_config())
        .with_accuracy_sample_size(ACCURACY_SAMPLE_SIZE)
        .build_service()
    )


def _warm_restart(corpus, verified: list[str]) -> float:
    """Checkpoint-free restart: rebuild, retrain on kept verdicts, accept."""
    started = time.perf_counter()
    service = _new_service(corpus)
    service.warm_start(verified)
    service.submit(verified[:1])
    elapsed = time.perf_counter() - started
    if not service.translator.is_trained:
        raise CheckFailed("the warm-restarted service is not trained")
    return elapsed


def _check_reports(result: PassResult, ledger: _Ledger, reports: dict) -> None:
    """Each report's verdicts must equal the ones that reached the client."""
    for tenant, report in reports.items():
        reported = {v.claim_id: v.verdict for v in report.verifications}
        if reported != ledger.streamed(tenant):
            result.errors.append(f"{tenant}: reported verdicts differ from the streamed ones")


def _absorb_reports(result: PassResult, ledger: _Ledger, reports: dict) -> None:
    """Check the program's reports, then take checker-seconds and accuracy history."""
    _check_reports(result, ledger, reports)
    for report in reports.values():
        for verification in report.verifications:
            result.checker_seconds += verification.elapsed_seconds
            result.verified += 1
        result.accuracy_averages.extend(
            float(entry["average"]) for entry in report.accuracy_history if "average" in entry
        )


def _serving_counters(server) -> dict[str, float]:
    stats = server.stats
    counters = {
        "serving.evictions": float(stats.evictions),
        "serving.rehydrations": float(stats.rehydrations),
        "serving.steals": float(stats.steals),
        "serving.wait_rounds": float(
            sum(server.tenant_status(t).wait_rounds_total for t in server.tenant_ids)
        ),
        "serving.fusion_hit_rate": stats.fused_batches / stats.batches if stats.batches else 0.0,
    }
    if server.planner_engine is not None:
        engine = server.planner_engine.stats
        scored = engine.scores_reused + engine.scores_computed
        counters["planning.score_reuse_ratio"] = engine.scores_reused / scored if scored else 0.0
        counters["planning.prune_ratio"] = (
            engine.claims_pruned / engine.claims_seen if engine.claims_seen else 0.0
        )
    return counters


# ---------------------------------------------------------------------- #
# report
# ---------------------------------------------------------------------- #
def run_report(corpus, seed: int, workdir: Path) -> PassResult:
    result = PassResult()
    ledger = _Ledger()
    claim_ids = list(corpus.claim_ids)
    started = time.perf_counter()
    service = _new_service(corpus)
    first_sent = time.perf_counter()
    service.submit(claim_ids)
    result.build_s = time.perf_counter() - started
    for claim_id in claim_ids:
        ledger.submitted(("caller", claim_id), first_sent)
    last = first_sent
    while not service.is_complete:
        batch = service.run_batch()
        last = time.perf_counter()
        for verification in batch.verifications:
            ledger.verdict(("caller", verification.claim_id), verification.verdict, last)
    result.traffic_end = last
    result.traffic_s = last - first_sent
    _absorb_reports(result, ledger, {"caller": service.report})
    verified = sorted(claim for _, claim in ledger.verdicts)
    result.restarts_s = [_warm_restart(corpus, verified) for _ in range(RESTARTS)]
    ledger.close_into(result, corpus)
    return result


# ---------------------------------------------------------------------- #
# tenants
# ---------------------------------------------------------------------- #
def run_tenants(corpus, seed: int, workdir: Path) -> PassResult:
    from repro.errors import BackpressureError
    from repro.serving import AdmissionPolicy, VerificationServer

    rng = np.random.default_rng(seed)
    allotments = zipf_allotments(list(corpus.claim_ids), TENANT_COUNT, TENANT_CLAIMS, rng)
    # The tenant at rank r arrives in round r mod ARRIVAL_ROUNDS, so the
    # arrival script is the same for every seed; only the claims drawn
    # differ.  A seeded arrival order for the few large tenants would
    # move the latency percentiles more than any code change.
    waiting = sorted(
        (rank % ARRIVAL_ROUNDS, tenant, claims)
        for rank, (tenant, claims) in enumerate(allotments)
    )
    result = PassResult()
    ledger = _Ledger()
    started = time.perf_counter()
    server = VerificationServer(
        corpus,
        system_config(),
        policy=AdmissionPolicy(
            max_tenants=TENANT_COUNT,
            max_resident_sessions=RESIDENT_SESSIONS,
            max_queued_submissions=QUEUE_BOUND,
        ),
        max_workers=POOL_WIDTH,
        system_name="Tenants",
    )
    try:
        first_sent = last = None
        round_index = 0
        while waiting or not server.is_idle:
            if round_index >= MAX_ROUNDS:
                raise CheckFailed(f"tenants did not drain within {MAX_ROUNDS} rounds")
            retry = []
            for due, tenant, claims in waiting:
                if due > round_index:
                    retry.append((due, tenant, claims))
                    continue
                sent = time.perf_counter()
                for claim in claims:
                    ledger.submitted((tenant, claim), sent)
                try:
                    server.submit(tenant, claims)
                except BackpressureError:
                    retry.append((round_index + 1, tenant, claims))
                    continue
                if first_sent is None:
                    first_sent = sent
                    result.build_s = time.perf_counter() - started
            waiting = retry
            outcomes = server.run_round()
            now = time.perf_counter()
            for outcome in outcomes:
                for verification in outcome.result.verifications:
                    ledger.verdict(
                        (outcome.tenant_id, verification.claim_id), verification.verdict, now
                    )
                last = now
            round_index += 1
        result.traffic_end = last
        result.traffic_s = last - first_sent
        result.counters.update(_serving_counters(server))
        _absorb_reports(
            result, ledger, {tenant: server.report(tenant) for tenant, _ in allotments}
        )
    finally:
        server.close()
    verified = sorted({claim for _, claim in ledger.verdicts})
    result.restarts_s = [_warm_restart(corpus, verified) for _ in range(RESTARTS)]
    ledger.close_into(result, corpus)
    return result


# ---------------------------------------------------------------------- #
# gateway
# ---------------------------------------------------------------------- #
def run_gateway(corpus, seed: int, workdir: Path) -> PassResult:
    return asyncio.run(_gateway_pass(corpus, seed, workdir))


async def _gateway_pass(corpus, seed: int, workdir: Path) -> PassResult:
    from repro.errors import BackpressureError, ReproError
    from repro.gateway.client import GatewayClient
    from repro.gateway.server import GatewayServer
    from repro.serving import AdmissionPolicy

    rng = np.random.default_rng(seed)
    allotments = zipf_allotments(list(corpus.claim_ids), GATEWAY_TENANTS, GATEWAY_FRAMES, rng)
    # Connection c carries the tenants of rank c, c + 2, ...; each tenant
    # uploads its claims back to back, in a seeded order, so a large
    # tenant's claims pile up pending and its session records accuracy.
    lanes: list[list[tuple[str, str]]] = [[] for _ in range(CONNECTIONS)]
    for rank, (tenant, claims) in enumerate(allotments):
        lanes[rank % CONNECTIONS].extend(
            (tenant, claims[int(i)]) for i in rng.permutation(len(claims))
        )
    policy = AdmissionPolicy(
        max_tenants=GATEWAY_TENANTS,
        max_resident_sessions=RESIDENT_SESSIONS,
        max_queued_submissions=512,
    )

    def new_gateway() -> GatewayServer:
        return GatewayServer(
            corpus,
            system_config(),
            journal_dir=workdir / "journal",
            snapshot_dir=workdir / "snapshots",
            policy=policy,
            system_name="Gateway",
        )

    result = PassResult()
    ledger = _Ledger()
    acked_frames = 0
    first_sent: list[float] = []

    async def send(client: GatewayClient, lane, window: asyncio.Semaphore) -> None:
        nonlocal acked_frames
        for tenant, claim in lane:
            await window.acquire()
            while True:
                sent = time.perf_counter()
                ledger.submitted((tenant, claim), sent)
                try:
                    ack = await client.submit(tenant, [claim])
                except BackpressureError:
                    result.failed += 1
                    await asyncio.sleep(0.01)
                    continue
                except ReproError as error:
                    result.failed += 1
                    result.errors.append(f"frame for {tenant}/{claim} refused: {error}")
                    window.release()
                    break
                acked = time.perf_counter()
                if not first_sent:
                    first_sent.append(sent)
                    result.build_s = acked - started
                result.ack_latencies.append(acked - sent)
                if ack.get("seq") is not None:
                    acked_frames += 1
                break

    async def receive(client: GatewayClient, lane, window: asyncio.Semaphore) -> None:
        remaining = set(lane)
        while remaining:
            frame = await client.next_result(timeout=RESULT_TIMEOUT_S)
            if frame is None:
                raise CheckFailed(f"connection closed with {len(remaining)} verdicts outstanding")
            if frame.get("type") != "result":
                continue
            key = (frame.get("tenant_id"), frame.get("claim_id"))
            ledger.verdict(key, frame.get("verdict"), time.perf_counter())
            remaining.discard(key)
            window.release()

    started = time.perf_counter()
    gateway = new_gateway()
    await gateway.start()
    try:
        clients = [await GatewayClient.connect(gateway.host, gateway.port) for _ in lanes]
        try:
            windows = [asyncio.Semaphore(WINDOW) for _ in lanes]
            await asyncio.gather(
                *(send(*lane) for lane in zip(clients, lanes, windows)),
                *(receive(*lane) for lane in zip(clients, lanes, windows)),
            )
            # Read before the graceful stop, whose passivation of every
            # tenant would count as evictions.  Every verdict is in, so
            # the traffic's rounds are done.
            result.counters.update(_serving_counters(gateway.server))
        finally:
            for client in clients:
                await client.close()
    finally:
        await gateway.stop()
    result.traffic_end = max(ledger.received.values())
    result.traffic_s = result.traffic_end - first_sent[0]
    journal = gateway.journal.stats()
    if not journal["records_committed"] == journal["records_appended"] == acked_frames:
        result.errors.append(
            f"journal: committed {journal['records_committed']}, appended "
            f"{journal['records_appended']}, acked frames {acked_frames}"
        )
    stats = gateway.stats
    result.counters.update(
        {
            "gateway.appends_per_commit": float(journal["appends_per_commit"]),
            "gateway.frames_in": float(stats.frames_received),
            "gateway.frames_out": float(stats.frames_sent),
            "gateway.shed": float(stats.submissions_rejected),
        }
    )

    for restart in range(GATEWAY_RESTARTS):
        restart_started = time.perf_counter()
        restarted = new_gateway()
        await restarted.start()
        result.restarts_s.append(time.perf_counter() - restart_started)
        try:
            recovery = restarted.recovery
            outstanding = sum(recovery.outstanding.values())
            if outstanding:
                result.errors.append(f"restart: {outstanding} claims outstanding after recovery")
            result.counters["gateway.restart_tenants"] = float(len(recovery.adopted_tenants))
            # The engine is idle (nothing outstanding), so reading reports
            # from the loop thread cannot race a round.
            reports = {tenant: restarted.server.report(tenant) for tenant, _ in allotments}
        finally:
            await restarted.stop()
        if restart < GATEWAY_RESTARTS - 1:
            _check_reports(result, ledger, reports)
    _absorb_reports(result, ledger, reports)
    ledger.close_into(result, corpus)
    return result


RUNNERS = {"report": run_report, "tenants": run_tenants, "gateway": run_gateway}
