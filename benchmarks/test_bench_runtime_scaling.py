"""Benchmark: end-to-end throughput and checker cost as the shard count grows.

A sharded run (:func:`repro.serving.sharding.run_sharded`) verifies the
corpus as K shard tenants of one thread-backed verification server with
K resident sessions, then reconciles one translator from the merged
report.  Every batch of Algorithm 1 re-predicts only its shard's pending
pool and retrains on its shard's examples, so K shards of N/K claims do
less per-batch work than one shard of N claims — but each shard also
learns from fewer verified claims, so its translator suggests worse
queries and the simulated checkers spend longer per claim.  Each row
therefore records the paper's cost next to the wall clock:
``checker_seconds_per_claim`` (simulated checker time) and
``verdict_accuracy`` (decided verdicts that match the corpus ground
truth).  The results land in ``bench-out/BENCH_runtime_scaling.json``.

``REPRO_BENCH_QUICK=1`` (the ``make bench-runtime`` configuration) drops
the repeat count so the benchmark finishes in seconds on CI runners.
"""

from __future__ import annotations

import os
import time

from repro.serving.server import AdmissionPolicy, VerificationServer
from repro.serving.sharding import reconcile_translator, run_sharded

from bench_results import write_result

_SHARD_COUNTS = (1, 2, 4)


def _run_once(corpus, config, shard_count: int):
    """Wall seconds of one sharded run plus reconciliation, and its report."""
    server = VerificationServer(
        corpus,
        config,
        policy=AdmissionPolicy(max_resident_sessions=shard_count),
        executor="thread",
    )
    try:
        started = time.perf_counter()
        report = run_sharded(server, corpus.claim_ids, shard_count)
        translator = reconcile_translator(corpus, config, report)
        wall = time.perf_counter() - started
    finally:
        server.close()
    assert report.claim_count == corpus.claim_count
    assert translator is not None and translator.is_trained
    return wall, report


def _verdict_accuracy(corpus, report) -> float:
    decided = [v for v in report.verifications if v.verdict is not None]
    correct = sum(
        v.verdict == corpus.ground_truth(v.claim_id).is_correct for v in decided
    )
    return correct / len(decided) if decided else 0.0


def test_bench_runtime_scaling(corpus, scenario):
    quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    repeats = 1 if quick else 2
    claim_count = corpus.claim_count

    rows: dict[int, dict[str, float]] = {}
    for shard_count in _SHARD_COUNTS:
        runs = [
            _run_once(corpus, scenario.system, shard_count) for _ in range(repeats)
        ]
        wall = min(run_wall for run_wall, _ in runs)
        # Sharded runs are deterministic: every repeat has the same report.
        report = runs[0][1]
        rows[shard_count] = {
            "wall_seconds": wall,
            "claims_per_second": claim_count / wall,
            "checker_seconds_per_claim": report.total_seconds / claim_count,
            "verdict_accuracy": _verdict_accuracy(corpus, report),
        }

    speedup = rows[1]["wall_seconds"] / rows[4]["wall_seconds"]
    payload = {
        "benchmark": "runtime_scaling",
        "claim_count": claim_count,
        "repeats": repeats,
        "quick": quick,
        "executor": "thread",
        "shards": {str(shard_count): row for shard_count, row in rows.items()},
        "speedup_4_over_1": speedup,
    }
    write_result("BENCH_runtime_scaling.json", payload)
    summary = ", ".join(
        f"{shard_count} shard(s) {row['claims_per_second']:,.0f} claims/s"
        f" ({row['wall_seconds']:.2f}s, {row['checker_seconds_per_claim']:.1f}"
        f" checker-s/claim, verdict accuracy {row['verdict_accuracy']:.3f})"
        for shard_count, row in rows.items()
    )
    print(f"\nruntime scaling over {claim_count} claims: {summary}; "
          f"4-over-1 speedup {speedup:.1f}x")

    # The acceptance bar: 4 shards must clear 1.5x the single-shard
    # throughput on the simulator workload.  The checker-cost and accuracy
    # fields are recorded, not gated.
    assert speedup > 1.5
