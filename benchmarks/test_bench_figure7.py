"""Benchmark regenerating Figure 7 (accumulated verification time)."""

from __future__ import annotations

from repro.experiments import figure7


def test_bench_figure7(benchmark, simulation_summary):
    outcome = benchmark(figure7.run, summary=simulation_summary)
    print("\n" + figure7.format_rows(outcome))
    series = outcome["series"]
    assert set(series) == {"Manual", "Sequential", "Scrutinizer"}
    # Accumulated time is monotone for every system.
    for points in series.values():
        weeks = [value for _, value in points]
        assert weeks == sorted(weeks)
    # Shape check: at the end of the run Manual has accumulated the most
    # verification time.  (How close Scrutinizer stays to Sequential is
    # checked over ten seeds by test_bench_table2_ordering_ratio.)
    finals = {name: points[-1][1] for name, points in series.items()}
    assert finals["Manual"] > finals["Sequential"]
    assert finals["Manual"] > finals["Scrutinizer"]
