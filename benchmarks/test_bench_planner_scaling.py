"""Benchmark: per-round MILP re-solve vs. the adaptive planner engine.

Every serving round re-plans the next claim batch over the full pending
pool, so at multi-tenant scale the planner's cost per round is what
matters.  This benchmark drives both planners through the same sequence of
rounds over a 2,000-claim pending pool — each round selects a batch and
removes it from the pool, exactly like the serving scheduler — and times
the old path (dense MILP re-encoded from scratch each round,
``select_claim_batch``) against :class:`~repro.planning.engine.PlannerEngine`
(dominance pruning, per-section aggregation, a sparse MILP with
aggregated linking rows, greedy warm start).  Both are exact: the
per-round objective values must agree.

Results persist to ``bench-out/BENCH_planner_scaling.json``.
``REPRO_BENCH_QUICK=1`` (the ``make bench-planner`` configuration) shrinks
the round count so the benchmark finishes quickly on CI runners.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.config import BatchingConfig
from repro.planning.batching import BatchCandidate, select_claim_batch
from repro.planning.engine import PlannerEngine

from bench_results import write_result


_POOL_SIZE = 2000
_SECTION_COUNT = 16
_BATCH_SIZE = 50


def _make_pool(seed: int = 13):
    rng = np.random.default_rng(seed)
    utilities = rng.uniform(0.05, 4.0, _POOL_SIZE)
    costs = rng.uniform(20.0, 90.0, _POOL_SIZE)
    sections = rng.integers(0, _SECTION_COUNT, _POOL_SIZE)
    candidates = [
        BatchCandidate(
            claim_id=f"c{index:04d}",
            section_id=f"sec{sections[index]:02d}",
            verification_cost=float(costs[index]),
            training_utility=float(utilities[index]),
        )
        for index in range(_POOL_SIZE)
    ]
    read_costs = {
        f"sec{section:02d}": float(rng.uniform(15.0, 45.0))
        for section in range(_SECTION_COUNT)
    }
    return candidates, read_costs


def _run_rounds(plan, candidates, rounds):
    """Serving-shaped loop: plan a batch, remove it, repeat.  Returns the
    accumulated planning seconds and the per-round objective values."""
    remaining = list(candidates)
    seconds = 0.0
    objectives = []
    for _ in range(rounds):
        started = time.perf_counter()
        selection = plan(remaining)
        seconds += time.perf_counter() - started
        chosen = set(selection.claim_ids)
        objectives.append(selection.total_cost - 5.0 * selection.total_utility)
        remaining = [candidate for candidate in remaining if candidate.claim_id not in chosen]
    return seconds, objectives


def test_bench_planner_scaling():
    quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    rounds = 2 if quick else 5
    candidates, read_costs = _make_pool()
    config = BatchingConfig(min_batch_size=1, max_batch_size=_BATCH_SIZE)

    resolve_seconds, resolve_objectives = _run_rounds(
        lambda pool: select_claim_batch(pool, read_costs, config=config),
        candidates,
        rounds,
    )
    engine = PlannerEngine()
    engine_seconds, engine_objectives = _run_rounds(
        lambda pool: engine.plan(pool, read_costs, config=config),
        candidates,
        rounds,
    )

    # Both planners are exact: identical objective value every round.
    for baseline, adaptive in zip(resolve_objectives, engine_objectives):
        assert abs(baseline - adaptive) < 1e-6

    speedup = resolve_seconds / engine_seconds
    payload = {
        "benchmark": "planner_scaling",
        "pool_size": _POOL_SIZE,
        "section_count": _SECTION_COUNT,
        "batch_size": _BATCH_SIZE,
        "rounds": rounds,
        "quick": quick,
        "per_round_resolve": {
            "planning_seconds_per_round": resolve_seconds / rounds,
            "rounds_per_second": rounds / resolve_seconds,
        },
        "engine": {
            "planning_seconds_per_round": engine_seconds / rounds,
            "rounds_per_second": rounds / engine_seconds,
            "claims_pruned": engine.stats.claims_pruned,
            "claims_seen": engine.stats.claims_seen,
        },
        "engine_over_resolve_speedup": speedup,
    }
    write_result("BENCH_planner_scaling.json", payload)
    print(
        f"\nplanner scaling over a {_POOL_SIZE}-claim pool ({rounds} rounds): "
        f"re-solve {resolve_seconds / rounds * 1e3:.1f} ms/round, "
        f"engine {engine_seconds / rounds * 1e3:.1f} ms/round, "
        f"speedup {speedup:.1f}x "
        f"({engine.stats.claims_pruned}/{engine.stats.claims_seen} claims pruned)"
    )

    # The acceptance bar is >=3x; the observed speedup is over an order of
    # magnitude, but CI runners are noisy, so assert the bar itself.
    assert speedup >= 3.0
