"""Benchmark regenerating Table 2 (simulation summary over a full report)."""

from __future__ import annotations

import statistics

from repro.experiments import table2


def test_bench_table2(benchmark, simulator, simulation_summary):
    # The full three-system comparison runs once per session (fixture); the
    # benchmarked kernel is one assisted verification pass over two batches.
    benchmark.pedantic(
        simulator.run_scrutinizer, kwargs={"max_batches": 2}, rounds=1, iterations=1
    )
    outcome = {
        "rows": simulation_summary.table_rows(),
        "paper_rows": table2.PAPER_TABLE2,
        "summary": simulation_summary,
    }
    print("\n" + table2.format_rows(outcome))

    # Shape checks against the paper's Table 2: both assisted processes beat
    # Manual (how close Scrutinizer stays to Sequential is checked over ten
    # seeds below).
    manual = simulation_summary.get("Manual")
    sequential = simulation_summary.get("Sequential")
    scrutinizer = simulation_summary.get("Scrutinizer")
    assert scrutinizer.total_weeks < manual.total_weeks
    assert sequential.total_weeks < manual.total_weeks
    assert simulation_summary.savings("Scrutinizer") > 0.2
    # Computational overheads stay small relative to checker time.
    assert scrutinizer.computation_minutes * 60 < scrutinizer.report.total_seconds


def test_bench_table2_ordering_ratio(ordering_ratios):
    """Scrutinizer (with claim ordering) stays close to Sequential.

    The paper reports near-parity in total time (95 vs 97 weeks, ~2%).  At
    this scaled-down size (150 claims, batches of 25) one seed's
    Scrutinizer/Sequential ratio is ordering noise, not a translator
    regression: 0.92-1.21 across the fixed bench seeds, and on seed 13 it
    moves by 2% with which of the tied cold-start batches is verified
    first.  So the bound is on the mean over the ten seeds, which is
    steady enough for 10%.
    """
    mean = statistics.fmean(ordering_ratios.values())
    print(
        "\nScrutinizer/Sequential total weeks: "
        + " ".join(f"{seed}:{ratio:.3f}" for seed, ratio in ordering_ratios.items())
        + f" (mean {mean:.3f})"
    )
    assert mean <= 1.10
