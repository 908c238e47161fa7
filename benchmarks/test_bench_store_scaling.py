"""Benchmark: planning over a 100k-claim pool through the out-of-core store.

The all-in-RAM feature path caps ``BENCH_planner_scaling`` at a
2,000-claim pool: a dense 100k x 4096 float64 matrix alone would need
~3.3 GB resident.  This benchmark drives the same serving-shaped loop —
plan a batch, retire it, repeat — over a 100,000-claim pool that lives in
:class:`~repro.store.outofcore.OutOfCoreClaimStore`: features stream
through a ``numpy.memmap`` file in chunks (mappings released as they go,
so dirty pages never pile up), scores live in SQLite, and every planning
round runs the dominance pre-filter *inside* the database
(:meth:`~repro.planning.engine.PlannerEngine.plan_pushdown`).

RSS is sampled from ``/proc/self/status`` throughout (falling back to
``resource.getrusage`` where ``/proc`` is absent) and the benchmark's own
*growth* — peak minus the baseline sampled at entry, i.e. the memory
attributable to the store — is reported against the dense in-RAM matrix
the pool would otherwise require.  The growth is what the assertion
gates (at least 10x headroom in the full configuration): the absolute
peak is also recorded, but inside a full-suite process it carries
hundreds of MB of unrelated resident memory from earlier tests, which
would make an absolute bar meaningless.  A
small-pool parity loop also re-asserts that pushdown planning selects the
exact same claims as the materialized path.

Results merge into ``bench-out/BENCH_planner_scaling.json`` (key
``store_100k``) so the planner-scaling baseline carries the out-of-core row.
``REPRO_BENCH_QUICK=1`` (the ``make bench-store`` CI configuration) keeps
the 100k pool but shrinks the feature width and round count; the RSS
headroom bar scales down with it, and CI gates only the scale-invariant
``plans_per_second`` metric.
"""

from __future__ import annotations

import os
import resource
import tempfile
import time

import numpy as np

from repro.config import BatchingConfig
from repro.planning.batching import BatchCandidate
from repro.planning.engine import PlannerEngine
from repro.store import OutOfCoreClaimStore

from bench_results import latest_result, write_result


_POOL_SIZE = 100_000
_SECTION_COUNT = 64
_BATCH_SIZE = 50
_CHUNK_ROWS = 2_048
#: Release the memmap (flush + unmap) every this many chunks so resident
#: pages stay bounded by the working set, not the file size.
_RELEASE_EVERY = 4


def _sample_rss_bytes() -> int:
    """Current resident set size, preferring the instantaneous /proc value.

    ``ru_maxrss`` is a lifetime high-water mark — useless inside a full
    test-suite process where earlier tests already spent memory — so the
    benchmark samples ``VmRSS`` as it runs and keeps the maximum itself.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class _RssMeter:
    def __init__(self) -> None:
        self.baseline = _sample_rss_bytes()
        self.peak = self.baseline

    def sample(self) -> None:
        self.peak = max(self.peak, _sample_rss_bytes())


def _build_store(directory: str, dimension: int, meter: _RssMeter):
    """Ingest claims, stream features into the memmap, score into SQLite."""
    rng = np.random.default_rng(29)
    store = OutOfCoreClaimStore(directory, dtype="float32")
    ids = [f"c{index:06d}" for index in range(_POOL_SIZE)]
    sections = [f"sec{index % _SECTION_COUNT:02d}" for index in range(_POOL_SIZE)]
    store.register_claims(zip(ids, sections))
    meter.sample()

    # Fixed projection vectors: scores are a deterministic function of the
    # (seeded) features, like real cost/utility estimates are.
    cost_weights = rng.normal(size=dimension) / np.sqrt(dimension)
    utility_weights = rng.normal(size=dimension) / np.sqrt(dimension)

    featurize_seconds = 0.0
    score_seconds = 0.0
    for chunk_index, start in enumerate(range(0, _POOL_SIZE, _CHUNK_ROWS)):
        chunk_ids = ids[start : start + _CHUNK_ROWS]
        started = time.perf_counter()
        chunk = rng.standard_normal((len(chunk_ids), dimension)).astype(np.float32)
        store.write_features(0, chunk_ids, chunk)
        featurize_seconds += time.perf_counter() - started

        started = time.perf_counter()
        costs = 20.0 + 50.0 * np.abs(chunk @ cost_weights)
        utilities = np.abs(chunk @ utility_weights) * 4.0
        store.write_scores(0, chunk_ids, costs, utilities)
        score_seconds += time.perf_counter() - started

        if (chunk_index + 1) % _RELEASE_EVERY == 0:
            store.release()
        meter.sample()
    store.release()
    meter.sample()
    read_costs = {
        f"sec{section:02d}": 30.0 + float(section % 7)
        for section in range(_SECTION_COUNT)
    }
    return store, read_costs


def _parity_check() -> None:
    """Small pool: pushdown planning == materialized planning, claim for claim."""
    rng = np.random.default_rng(31)
    size = 2_000
    ids = [f"p{index:04d}" for index in range(size)]
    sections = [f"sec{index % 16:02d}" for index in range(size)]
    costs = rng.uniform(20.0, 90.0, size)
    utilities = rng.uniform(0.05, 4.0, size)
    read_costs = {f"sec{section:02d}": 30.0 for section in range(16)}
    config = BatchingConfig(min_batch_size=1, max_batch_size=_BATCH_SIZE)
    with tempfile.TemporaryDirectory() as scratch:
        store = OutOfCoreClaimStore(scratch)
        store.register_claims(zip(ids, sections))
        store.write_scores(0, ids, costs, utilities)
        candidates = [
            BatchCandidate(
                claim_id=claim_id,
                section_id=section_id,
                verification_cost=float(cost),
                training_utility=float(utility),
            )
            for claim_id, section_id, cost, utility in zip(
                ids, sections, costs, utilities
            )
        ]
        engine = PlannerEngine()
        for _ in range(3):
            materialized = engine.plan(candidates, read_costs, config=config)
            pushed = engine.plan_pushdown(store, read_costs, config, generation=0)
            assert materialized.claim_ids == pushed.claim_ids
            chosen = set(pushed.claim_ids)
            store.retire(pushed.claim_ids)
            candidates = [
                candidate
                for candidate in candidates
                if candidate.claim_id not in chosen
            ]
        store.close()


def test_bench_store_scaling(tmp_path):
    quick = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
    dimension = 512 if quick else 4_096
    rounds = 2 if quick else 5
    # Quick mode maps a 8x narrower matrix, so the provable headroom
    # shrinks with it; the committed baseline row comes from a full run.
    headroom_bar = 2.0 if quick else 10.0

    _parity_check()

    meter = _RssMeter()
    build_started = time.perf_counter()
    store, read_costs = _build_store(str(tmp_path / "store"), dimension, meter)
    build_seconds = time.perf_counter() - build_started

    config = BatchingConfig(min_batch_size=1, max_batch_size=_BATCH_SIZE)
    engine = PlannerEngine()
    planning_seconds = 0.0
    selected_total = 0
    for _ in range(rounds):
        started = time.perf_counter()
        selection = engine.plan_pushdown(store, read_costs, config, generation=0)
        planning_seconds += time.perf_counter() - started
        assert len(selection.claim_ids) == _BATCH_SIZE
        selected_total += len(selection.claim_ids)
        store.retire(selection.claim_ids)
        meter.sample()
    store.close()
    meter.sample()

    dense_bytes = _POOL_SIZE * dimension * np.dtype(np.float64).itemsize
    rss_growth = max(meter.peak - meter.baseline, 1)
    headroom = dense_bytes / rss_growth
    row = {
        "pool_size": _POOL_SIZE,
        "section_count": _SECTION_COUNT,
        "feature_dimension": dimension,
        "batch_size": _BATCH_SIZE,
        "rounds": rounds,
        "quick": quick,
        "build_seconds": build_seconds,
        "planning_seconds_per_round": planning_seconds / rounds,
        "plans_per_second": rounds / planning_seconds,
        "claims_prefiltered_in_sql": engine.stats.pushdown_prefiltered,
        "peak_rss_bytes": meter.peak,
        "baseline_rss_bytes": meter.baseline,
        "rss_growth_bytes": rss_growth,
        "dense_inram_matrix_bytes": dense_bytes,
        "rss_headroom_vs_dense": headroom,
    }

    payload = latest_result("BENCH_planner_scaling.json")
    payload["store_100k"] = row
    write_result("BENCH_planner_scaling.json", payload)
    print(
        f"\nout-of-core planning over a {_POOL_SIZE}-claim pool "
        f"(dim {dimension}, {rounds} rounds): build {build_seconds:.1f}s, "
        f"{planning_seconds / rounds * 1e3:.0f} ms/round, RSS growth "
        f"{rss_growth / 1e6:.0f} MB (peak {meter.peak / 1e6:.0f} MB) vs "
        f"{dense_bytes / 1e9:.1f} GB dense ({headroom:.1f}x headroom, "
        f"{engine.stats.pushdown_prefiltered} claims pre-filtered in SQL)"
    )

    assert selected_total == rounds * _BATCH_SIZE
    assert headroom >= headroom_bar
