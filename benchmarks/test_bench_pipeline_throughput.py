"""Benchmark: per-claim prediction loop vs. the vectorized batch pipeline.

Algorithm 1 re-predicts every pending claim after every batch, so the
machine time of one planning pass is the product that matters.  This
benchmark times the old-equivalent single path (per-claim ``predict`` plus
scalar cost/utility scoring — exactly what ``_predict_pending`` and
``_batch_candidates`` used to do) against the batch front door
(``predict_many`` plus array scoring) over the same pending pool, and
persists the claims/sec trajectory to
``bench-out/BENCH_pipeline_throughput.json``.

``REPRO_BENCH_QUICK=1`` (the ``make bench-quick`` configuration) shrinks
the repeat count so the benchmark finishes in seconds on CI runners.
"""

from __future__ import annotations

import os
import time

from repro.planning.planner import QuestionPlanner

from bench_results import write_result


def _single_path(translator, planner, claims) -> list[tuple[float, float]]:
    """The pre-pipeline hot path: one predict + one scalar score per claim."""
    scored = []
    for claim in claims:
        predictions = translator.predict(claim)
        scored.append(
            (planner.estimate_cost(predictions), planner.estimate_utility(predictions))
        )
    return scored


def _batch_path(translator, planner, claims):
    """The batch front door: one feature matrix, one matmul per property."""
    batch = translator.predict_many(claims)
    return planner.estimate_costs_batch(batch), planner.estimate_utilities_batch(batch)


def _time(callable_, repeats: int) -> float:
    """Best-of-N wall-clock seconds for one full pass over the claims."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_bench_pipeline_throughput(corpus, warm_translator, scenario):
    quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    repeats = 2 if quick else 5
    claims = [annotated.claim for annotated in corpus]
    planner = QuestionPlanner(scenario.system)

    # Warm the shared feature store so both paths measure prediction and
    # scoring, not one-off featurization.
    warm_translator.predict_many(claims)

    single_seconds = _time(
        lambda: _single_path(warm_translator, planner, claims), repeats
    )
    batch_seconds = _time(
        lambda: _batch_path(warm_translator, planner, claims), repeats
    )

    single_rate = len(claims) / single_seconds
    batch_rate = len(claims) / batch_seconds
    speedup = single_seconds / batch_seconds
    payload = {
        "benchmark": "pipeline_throughput",
        "claim_count": len(claims),
        "repeats": repeats,
        "quick": quick,
        "single_path": {
            "per_batch_machine_seconds": single_seconds,
            "claims_per_second": single_rate,
        },
        "batch_path": {
            "per_batch_machine_seconds": batch_seconds,
            "claims_per_second": batch_rate,
        },
        "batch_over_single_speedup": speedup,
    }
    write_result("BENCH_pipeline_throughput.json", payload)
    print(
        f"\npipeline throughput over {len(claims)} pending claims: "
        f"single {single_rate:,.0f} claims/s ({single_seconds * 1e3:.1f} ms/batch), "
        f"batch {batch_rate:,.0f} claims/s ({batch_seconds * 1e3:.1f} ms/batch), "
        f"speedup {speedup:.1f}x"
    )

    # Both paths must agree on what they compute...
    scalar = _single_path(warm_translator, planner, claims)
    costs, utilities = _batch_path(warm_translator, planner, claims)
    for index, (cost, utility) in enumerate(scalar):
        assert abs(costs[index] - cost) < 1e-6
        assert abs(utilities[index] - utility) < 1e-6
    # ...and the batch path must win at simulator scale.  The margin is
    # intentionally conservative: the observed speedup is an order of
    # magnitude, but CI runners are noisy.
    assert speedup > 1.5
