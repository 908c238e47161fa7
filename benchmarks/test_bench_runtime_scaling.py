"""Benchmark: end-to-end throughput as the shard count grows.

The sharded runner's win is structural, not just parallel: every batch of
Algorithm 1 re-predicts its shard's pending pool and retrains on its
shard's accumulated examples, so K shards of N/K claims do superlinearly
less per-batch work than one shard of N claims — even on a single core.
This benchmark drives the full verification loop (prediction, ILP claim
ordering, simulated crowd, retraining, translator reconciliation) at
several shard counts over the simulator workload and persists the
claims/sec trajectory to ``bench-out/BENCH_runtime_scaling.json``.

``REPRO_BENCH_QUICK=1`` (the ``make bench-runtime`` configuration) drops
the repeat count so the benchmark finishes in seconds on CI runners.
"""

from __future__ import annotations

import os

from repro.runtime.sharding import ShardedVerificationRunner

from bench_results import write_result

_SHARD_COUNTS = (1, 2, 4)


def _run_once(corpus, config, shard_count: int) -> float:
    runner = ShardedVerificationRunner(
        corpus,
        config,
        shard_count=shard_count,
        executor="thread",
        reconcile=True,
    )
    result = runner.run()
    assert result.claim_count == corpus.claim_count
    return result.wall_seconds


def test_bench_runtime_scaling(corpus, scenario):
    quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    repeats = 1 if quick else 2
    claim_count = corpus.claim_count

    walls: dict[int, float] = {}
    for shard_count in _SHARD_COUNTS:
        best = min(
            _run_once(corpus, scenario.system, shard_count) for _ in range(repeats)
        )
        walls[shard_count] = best

    speedup = walls[1] / walls[4]
    payload = {
        "benchmark": "runtime_scaling",
        "claim_count": claim_count,
        "repeats": repeats,
        "quick": quick,
        "executor": "thread",
        "shards": {
            str(shard_count): {
                "wall_seconds": wall,
                "claims_per_second": claim_count / wall,
            }
            for shard_count, wall in walls.items()
        },
        "speedup_4_over_1": speedup,
    }
    write_result("BENCH_runtime_scaling.json", payload)
    summary = ", ".join(
        f"{shard_count} shard(s) {claim_count / wall:,.0f} claims/s"
        f" ({wall:.2f}s)"
        for shard_count, wall in walls.items()
    )
    print(f"\nruntime scaling over {claim_count} claims: {summary}; "
          f"4-over-1 speedup {speedup:.1f}x")

    # The acceptance bar: 4 shards must clear 1.5x the single-shard
    # throughput on the simulator workload.  Observed speedups are several
    # times larger (smaller pending pools to re-predict, smaller training
    # sets to retrain on); the margin absorbs CI-runner noise.
    assert speedup > 1.5
