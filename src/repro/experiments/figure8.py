"""Figure 8 — evolution of average classifier accuracy, Scrutinizer vs Sequential.

The paper shows the average (over the four classifiers) accuracy as a
function of verified claims: Scrutinizer's active claim selection invests
in uncertain claims early, learns faster, dominates the sequential baseline
over most of the run, and only drops below it at the very end when the
hardest claims are left.
"""

from __future__ import annotations

from repro.simulation.results import SimulationSummary, SystemRunResult
from repro.simulation.scenarios import SimulationScenario, small_scenario
from repro.simulation.simulator import ReportSimulator


def run(
    scenario: SimulationScenario | None = None,
    summary: SimulationSummary | None = None,
    max_batches: int | None = None,
) -> dict[str, object]:
    """Return the average-accuracy-per-batch series for the two systems."""
    if summary is None:
        simulator = ReportSimulator(scenario if scenario is not None else small_scenario())
        summary = SimulationSummary()
        summary.add(simulator.run_sequential(max_batches=max_batches))
        summary.add(simulator.run_scrutinizer(max_batches=max_batches))
    series: dict[str, list[float]] = {}
    for name in ("Scrutinizer", "Sequential"):
        if name in summary.runs:
            series[name] = _accuracy_series(summary.runs[name])
    return {"series": series, "summary": summary}


def _accuracy_series(run_result: SystemRunResult) -> list[float]:
    return [round(value, 3) for value in run_result.accuracy_series("average")]


def format_rows(outcome: dict[str, object]) -> str:
    lines = ["Figure 8 — average classifier accuracy per batch"]
    for name, values in outcome["series"].items():
        lines.append(f"{name:<14}{values}")
    return "\n".join(lines)
