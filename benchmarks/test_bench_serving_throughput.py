"""Benchmark: serving throughput as concurrent tenants grow.

One verification session over N claims re-predicts an O(N) pending pool
and retrains on an O(N) example set every batch; T tenant sessions over
N/T claims each do superlinearly less per-batch work.  They also learn
from fewer verified claims, so their translators suggest worse queries
and the simulated checkers spend longer per claim.  This benchmark
drives a fixed claim population through the
:class:`~repro.serving.server.VerificationServer` two ways:

* **uniform partition** at 1, 4 and 16 tenants — every claim goes to
  exactly one tenant, so claims/sec across tenant counts is directly
  comparable and the curve must be monotone non-decreasing (the historical
  16-tenant cliff regressing would fail this file, not just look bad in a
  chart);
* **Zipf-skewed traffic** at 64 and 256 tenants with a bounded resident
  set — a few hot tenants submit most of the checks while a long tail
  submits a claim or two (claims are reused across tenants; sessions stay
  isolated), exercising the scheduler's steals, deadline fairness and
  queue-pressure passivation at registry scale.

Sustained claims/sec plus p50/p95/p99 per-batch serving latency and the
scheduler's own counters land in ``bench-out/BENCH_serving_throughput.json``.
Each row also records what its throughput costs in the paper's metrics,
ungated: ``checker_seconds_per_claim`` (simulated checker time over the
tenant reports) and ``verdict_accuracy`` (decided verdicts that match the
corpus ground truth).

``REPRO_BENCH_QUICK=1`` (the ``make bench-serving`` configuration) drops
the repeat count so the benchmark finishes in seconds on CI runners.
"""

from __future__ import annotations

import os
import time

from repro.core.report import VerificationReport
from repro.serving.server import AdmissionPolicy, ServerStats, VerificationServer
from repro.serving.workloads import build_zipf_workload, drive_workload, percentile

from bench_results import write_result

#: Uniform-partition tenant counts (each claim checked exactly once).
_TENANT_COUNTS = (1, 4, 16)
#: Zipf-skewed tenant counts, with the resident-session bound applied.
_ZIPF_TENANT_COUNTS = (64, 256)
_ZIPF_RESIDENT_SESSIONS = 32
_ZIPF_EXPONENT = 1.1


def _latency_metrics(latencies: list[float]) -> dict[str, float]:
    return {
        "p50_batch_latency_seconds": percentile(latencies, 50),
        "p95_batch_latency_seconds": percentile(latencies, 95),
        "p99_batch_latency_seconds": percentile(latencies, 99),
    }


def _scheduler_metrics(stats: ServerStats) -> dict[str, int]:
    return {
        "rounds": stats.rounds,
        "steals": stats.steals,
        "deadline_boosts": stats.deadline_boosts,
        "evictions": stats.evictions,
        "rehydrations": stats.rehydrations,
    }


def _quality_metrics(corpus, server: VerificationServer) -> dict[str, float]:
    """Checker cost and verdict accuracy over every tenant's verdicts."""
    pooled = VerificationReport(
        system_name="tenants",
        verifications=[
            verification
            for tenant_id in server.tenant_ids
            for verification in server.report(tenant_id).verifications
        ],
    )
    return {
        "checker_seconds_per_claim": pooled.total_seconds / pooled.claim_count,
        "verdict_accuracy": pooled.verdict_accuracy(corpus),
    }


def _serve_uniform(corpus, config, tenant_count: int):
    """Serve the whole corpus split evenly across ``tenant_count`` tenants."""
    server = VerificationServer(
        corpus,
        config,
        policy=AdmissionPolicy(
            max_tenants=tenant_count, max_resident_sessions=tenant_count
        ),
    )
    for index in range(tenant_count):
        claims = [
            claim_id
            for position, claim_id in enumerate(corpus.claim_ids)
            if position % tenant_count == index
        ]
        server.submit(f"tenant-{index:02d}", claims)
    outcomes = server.run_until_idle()
    latencies = [outcome.wall_seconds for outcome in outcomes]
    verified = sum(
        len(server.verified_claim_ids(tenant_id)) for tenant_id in server.tenant_ids
    )
    assert verified == corpus.claim_count
    quality = _quality_metrics(corpus, server)
    stats = server.stats
    server.close()
    return latencies, stats, quality


def _serve_zipf(corpus, config, tenant_count: int, seed: int):
    """Drive a Zipf-skewed burst workload with a bounded resident set."""
    workload = build_zipf_workload(
        list(corpus.claim_ids),
        tenant_count=tenant_count,
        seed=seed,
        exponent=_ZIPF_EXPONENT,
        total_claims=max(2 * corpus.claim_count, tenant_count),
    )
    server = VerificationServer(
        corpus,
        config,
        policy=AdmissionPolicy(
            max_tenants=tenant_count,
            max_resident_sessions=min(tenant_count, _ZIPF_RESIDENT_SESSIONS),
            max_queued_submissions=4 * tenant_count,
        ),
    )
    result = drive_workload(server, workload)
    assert result.verified_count == workload.claim_count
    quality = _quality_metrics(corpus, server)
    stats = server.stats
    server.close()
    return workload, result, stats, quality


def test_bench_serving_throughput(corpus, scenario):
    quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    repeats = 1 if quick else 2
    claim_count = corpus.claim_count

    results: dict[int, dict[str, object]] = {}
    for tenant_count in _TENANT_COUNTS:
        best_wall = None
        best_latencies: list[float] = []
        best_stats: ServerStats | None = None
        best_quality: dict[str, float] = {}
        for _ in range(repeats):
            started = time.perf_counter()
            latencies, stats, quality = _serve_uniform(
                corpus, scenario.system, tenant_count
            )
            wall = time.perf_counter() - started
            if best_wall is None or wall < best_wall:
                best_wall = wall
                best_latencies = latencies
                best_stats = stats
                best_quality = quality
        results[tenant_count] = {
            "wall_seconds": best_wall,
            "claims_per_second": claim_count / best_wall,
            **best_quality,
            **_latency_metrics(best_latencies),
            "scheduler": _scheduler_metrics(best_stats),
        }

    zipf_results: dict[int, dict[str, object]] = {}
    for tenant_count in _ZIPF_TENANT_COUNTS:
        started = time.perf_counter()
        workload, run, stats, quality = _serve_zipf(
            corpus, scenario.system, tenant_count, seed=scenario.system.seed
        )
        wall = time.perf_counter() - started
        zipf_results[tenant_count] = {
            "wall_seconds": wall,
            "submitted_claims": workload.claim_count,
            "claims_per_second": workload.claim_count / wall,
            **quality,
            "resident_sessions": min(tenant_count, _ZIPF_RESIDENT_SESSIONS),
            "zipf_exponent": _ZIPF_EXPONENT,
            "deferred_submissions": run.deferred_submissions,
            **_latency_metrics(list(run.batch_latencies)),
            "scheduler": _scheduler_metrics(stats),
        }

    def cps(metrics: dict[str, object]) -> float:
        return float(metrics["claims_per_second"])

    speedup_16 = cps(results[16]) / cps(results[1])
    speedup_64 = cps(zipf_results[64]) / cps(results[1])
    speedup_256 = cps(zipf_results[256]) / cps(results[1])
    payload = {
        "benchmark": "serving_throughput",
        "claim_count": claim_count,
        "repeats": repeats,
        "quick": quick,
        "tenants": {str(count): metrics for count, metrics in results.items()},
        "zipf": {str(count): metrics for count, metrics in zipf_results.items()},
        "speedup_16_over_1": speedup_16,
        "speedup_64_over_1": speedup_64,
        "speedup_256_over_1": speedup_256,
    }
    write_result("BENCH_serving_throughput.json", payload)

    def cost(metrics: dict[str, object]) -> str:
        return (
            f"{float(metrics['checker_seconds_per_claim']):.1f} checker-s/claim, "
            f"verdict accuracy {float(metrics['verdict_accuracy']):.3f}"
        )

    summary = ", ".join(
        f"{count} tenant(s) {cps(metrics):,.0f} claims/s "
        f"(p95 {float(metrics['p95_batch_latency_seconds']) * 1000.0:.0f}ms, "
        f"{cost(metrics)})"
        for count, metrics in results.items()
    )
    zipf_summary = ", ".join(
        f"{count} tenants {cps(metrics):,.0f} claims/s ({cost(metrics)})"
        for count, metrics in zipf_results.items()
    )
    print(
        f"\nserving throughput over {claim_count} claims: {summary}; "
        f"zipf: {zipf_summary}; 16-over-1 speedup {speedup_16:.1f}x, "
        f"64-over-1 {speedup_64:.1f}x"
    )

    # The acceptance bars.  First, the tenant curve must not invert: more
    # tenants means structurally smaller per-batch pending pools and
    # training sets, so uniform-partition claims/sec is monotone
    # non-decreasing across 1 -> 4 -> 16 (the historical 16-tenant cliff
    # fails here, loudly, instead of shipping as a chart anomaly).
    assert cps(results[4]) >= cps(results[1]), "4-tenant throughput below 1-tenant"
    assert cps(results[16]) >= cps(results[4]), "16-tenant throughput below 4-tenant"
    # Second, absolute floors with margin for CI-runner noise: 16 uniform
    # tenants sustain >= 2x a single sequential session, and the skewed
    # 64/256-tenant workloads (bounded residency, eviction churn and all)
    # must beat the single session too.
    assert speedup_16 >= 2.0
    assert speedup_64 >= 1.5
    assert speedup_256 >= 1.0
