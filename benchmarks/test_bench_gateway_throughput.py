"""Benchmark: end-to-end gateway throughput and ack latency.

The gateway's durability contract puts a journal append *and* a
group-committed fsync in front of every ack, so this benchmark tracks
the two numbers that contract trades against each other:

* **sustained claims/sec** over the wire — submissions enter as NDJSON
  frames, are journaled, fanned through the verification engine, and
  every verdict streams back as a ``result`` frame before the clock
  stops; and
* **ack latency** (p50/p95) — the submit→ack round trip, which pays for
  edge admission plus the journal barrier but never for a verification
  round (the engine runs on its own thread).

The regression gate compares ``claims_per_second`` and
``ack_p95_per_second`` (the inverse of the p95 ack latency, so the
shared higher-is-better gate applies) of
``bench-out/BENCH_gateway_throughput.json`` against the committed
baseline.  Journal counters (appends per fsync, segments, bytes) ride
along for the run report.

``REPRO_BENCH_QUICK=1`` (the ``make bench-gateway`` configuration) drops
the repeat count so the benchmark finishes in seconds on CI runners.
"""

from __future__ import annotations

import asyncio
import os
import time
from pathlib import Path

from repro.gateway.client import GatewayWorkloadResult, drive_workload_through_gateway
from repro.gateway.server import GatewayServer
from repro.serving.server import AdmissionPolicy
from repro.serving.workloads import build_workload, percentile
from repro.synth.report_generator import generate_corpus

from bench_results import write_result

_TENANT_COUNT = 12
_POLICY = AdmissionPolicy(
    max_tenants=2 * _TENANT_COUNT,
    max_resident_sessions=8,
    max_queued_submissions=512,
)


async def _drive_once(corpus, config, workload, journal_dir: Path) -> tuple[
    GatewayWorkloadResult, dict, dict
]:
    gateway = GatewayServer(
        corpus,
        config,
        journal_dir=journal_dir,
        policy=_POLICY,
        system_name="GatewayBench",
    )
    await gateway.start()
    try:
        outcome = await drive_workload_through_gateway(
            workload, "127.0.0.1", gateway.port
        )
        return outcome, gateway.journal.stats(), gateway.stats.to_dict()
    finally:
        await gateway.stop()


def test_bench_gateway_throughput(corpus, scenario, tmp_path):
    quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    repeats = 1 if quick else 2
    # Steady tenants split their allotment across rounds, so the run has
    # several dozen acks to sample latency from, not one per tenant.
    workload = build_workload(
        list(corpus.claim_ids),
        tenant_count=_TENANT_COUNT,
        seed=scenario.system.seed,
        mix=("steady",),
    )

    best: GatewayWorkloadResult | None = None
    journal_stats: dict = {}
    gateway_stats: dict = {}
    for attempt in range(repeats):
        outcome, journal, stats = asyncio.run(
            _drive_once(
                corpus, scenario.system, workload, tmp_path / f"wal-{attempt}"
            )
        )
        assert outcome.result_count == workload.claim_count
        assert outcome.accepted_claims == workload.claim_count
        if best is None or outcome.wall_seconds < best.wall_seconds:
            best = outcome
            journal_stats = journal
            gateway_stats = stats
    assert best is not None

    claims_per_second = workload.claim_count / best.wall_seconds
    p50_ack = percentile(best.ack_latencies, 50)
    p95_ack = percentile(best.ack_latencies, 95)
    payload = {
        "benchmark": "gateway_throughput",
        "claim_count": workload.claim_count,
        "tenants": _TENANT_COUNT,
        "submissions": best.submissions,
        "repeats": repeats,
        "quick": quick,
        "fsync": True,
        "wall_seconds": best.wall_seconds,
        "claims_per_second": claims_per_second,
        "p50_ack_latency_seconds": p50_ack,
        "p95_ack_latency_seconds": p95_ack,
        "ack_p95_per_second": (1.0 / p95_ack) if p95_ack > 0 else 0.0,
        "journal": journal_stats,
        "gateway": gateway_stats,
    }
    write_result("BENCH_gateway_throughput.json", payload)
    print(
        f"\ngateway throughput over {workload.claim_count} claims / "
        f"{_TENANT_COUNT} tenants: {claims_per_second:,.0f} claims/s "
        f"end-to-end, ack p50 {p50_ack * 1000.0:.1f}ms / "
        f"p95 {p95_ack * 1000.0:.1f}ms (fsync on, "
        f"{journal_stats.get('appends_per_commit', 0.0):.1f} appends/fsync)"
    )

    # Acceptance bars, generous for shared CI runners.  First the
    # contract itself: every submission was journaled before its ack
    # (committed >= appended means nothing acked out of the page cache).
    assert journal_stats["records_appended"] == best.submissions
    assert journal_stats["records_committed"] == journal_stats["records_appended"]
    # Acks must not wait on verification rounds: even with fsync in the
    # path, the p95 submit->ack round trip stays well under a second.
    assert p95_ack < 1.0
    # And the wire must not collapse end-to-end throughput: a whole
    # verification pass over the corpus dominates; TCP framing plus the
    # journal may not slow it to a crawl.
    assert claims_per_second > 1.0


def test_bench_gateway_journal_only(tmp_path):
    """Floor for the journal itself: appends+commits without a server."""
    from repro.gateway.journal import JournalWriter

    writer = JournalWriter(tmp_path / "wal")
    started = time.perf_counter()
    for index in range(512):
        writer.append("bench", (f"claim-{index:05d}",))
        if index % 8 == 7:
            writer.commit()
    writer.close()
    wall = time.perf_counter() - started
    stats = writer.stats()
    appends_per_second = stats["records_appended"] / wall if wall > 0 else 0.0
    print(
        f"\njournal floor: {stats['records_appended']} appends over "
        f"{stats['commits']} fsyncs in {wall * 1000.0:.0f}ms "
        f"({appends_per_second:,.0f} appends/s)"
    )
    assert stats["records_committed"] == 512
    assert stats["commits"] == 64
    # Group-committed appends are cheap; even slow CI disks manage this.
    assert appends_per_second > 50.0
