"""Full-report verification simulator (Section 6.2).

The simulator builds a synthetic corpus for a scenario, then runs the three
compared processes over it in a cold-start setting:

* **Manual** — every claim checked by hand,
* **Sequential** — Scrutinizer without claim ordering,
* **Scrutinizer** — the full system with ILP-based batch selection.

Outputs feed Table 2 and Figures 7–9 of the paper.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from repro.api.builder import ScrutinizerBuilder
from repro.api.service import BatchResult
from repro.claims.corpus import ClaimCorpus
from repro.core.baselines import ManualBaseline
from repro.simulation.results import SimulationSummary, SystemRunResult
from repro.simulation.scenarios import SimulationScenario, small_scenario
from repro.synth.report_generator import generate_corpus
from repro.translation.preprocess import ClaimPreprocessor
from repro.translation.translator import ClaimTranslator

#: Progress hook: called with the system name and each completed batch.
SimulationProgress = Callable[[str, BatchResult], None]


class ReportSimulator:
    """Runs the compared verification processes over one synthetic report.

    ``progress`` (optional) receives ``(system_name, batch_result)`` after
    every batch of the assisted runs, so long simulations can report
    incremental state instead of going dark until the end.
    """

    def __init__(
        self,
        scenario: SimulationScenario | None = None,
        progress: SimulationProgress | None = None,
    ) -> None:
        self.scenario = scenario if scenario is not None else small_scenario()
        self._corpus: ClaimCorpus | None = None
        self._progress = progress

    # ------------------------------------------------------------------ #
    # corpus management
    # ------------------------------------------------------------------ #
    @property
    def corpus(self) -> ClaimCorpus:
        if self._corpus is None:
            self._corpus = generate_corpus(self.scenario.corpus)
        return self._corpus

    def use_corpus(self, corpus: ClaimCorpus) -> None:
        """Inject a pre-built corpus (used by tests and benchmarks)."""
        self._corpus = corpus

    # ------------------------------------------------------------------ #
    # individual runs
    # ------------------------------------------------------------------ #
    def _build_translator(self) -> ClaimTranslator:
        translator = ClaimTranslator(
            self.corpus.database,
            config=self.scenario.system.translation,
            preprocessor=ClaimPreprocessor(self.scenario.featurizer),
        )
        claims = [annotated.claim for annotated in self.corpus]
        translator.bootstrap(claims)
        return translator

    def run_manual(self) -> SystemRunResult:
        started = time.perf_counter()
        baseline = ManualBaseline(self.corpus, config=self.scenario.system)
        report = baseline.verify()
        return SystemRunResult(
            system_name="Manual",
            report=report,
            wall_clock_seconds=time.perf_counter() - started,
        )

    def _run_assisted(self, system_name: str, max_batches: int | None) -> SystemRunResult:
        """Build one assisted system through the builder API and run it."""
        started = time.perf_counter()
        builder = (
            ScrutinizerBuilder(self.corpus)
            .with_config(self.scenario.system)
            .with_translator(self._build_translator())
            .with_accuracy_sample_size(self.scenario.accuracy_sample_size)
        )
        if system_name == "Sequential":
            builder.sequential_baseline()
        if self._progress is not None:
            progress = self._progress
            builder.on_batch_complete(lambda result: progress(system_name, result))
        report = builder.build_service().run_to_completion(max_batches=max_batches)
        return SystemRunResult(
            system_name=system_name,
            report=report,
            wall_clock_seconds=time.perf_counter() - started,
        )

    def run_sequential(self, max_batches: int | None = None) -> SystemRunResult:
        return self._run_assisted("Sequential", max_batches)

    def run_scrutinizer(self, max_batches: int | None = None) -> SystemRunResult:
        return self._run_assisted("Scrutinizer", max_batches)

    # ------------------------------------------------------------------ #
    # full comparison (Table 2)
    # ------------------------------------------------------------------ #
    def run_all(self, max_batches: int | None = None) -> SimulationSummary:
        """Run Manual, Sequential and Scrutinizer over the same corpus."""
        summary = SimulationSummary()
        summary.add(self.run_manual())
        summary.add(self.run_sequential(max_batches=max_batches))
        summary.add(self.run_scrutinizer(max_batches=max_batches))
        return summary
