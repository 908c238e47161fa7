"""Shared fixtures for the benchmark harness.

The expensive artefacts — the synthetic corpus and the three-system
simulation — are computed once per session and shared by every benchmark
that reproduces a table or figure of the paper.
"""

from __future__ import annotations

import pytest

from repro.config import BatchingConfig, ScrutinizerConfig
from repro.simulation.scenarios import SimulationScenario
from repro.simulation.simulator import ReportSimulator
from repro.synth.energy_data import EnergyDataConfig
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus
from repro.synth.study import UserStudyConfig
from repro.text.features import FeaturizerConfig
from repro.translation.preprocess import ClaimPreprocessor
from repro.translation.translator import ClaimTranslator


def bench_scenario(claim_count: int = 150, seed: int = 13) -> SimulationScenario:
    """The benchmark scenario: a scaled-down version of the paper's setup."""
    return SimulationScenario(
        name="benchmark",
        corpus=SyntheticCorpusConfig(
            claim_count=claim_count,
            section_count=12,
            explicit_fraction=0.5,
            error_fraction=0.25,
            data=EnergyDataConfig(relation_count=18, rows_per_relation=14, seed=seed + 1),
            seed=seed,
        ),
        system=ScrutinizerConfig(
            checker_count=3,
            options_per_property=10,
            batching=BatchingConfig(min_batch_size=1, max_batch_size=25),
            seed=seed,
        ),
        featurizer=FeaturizerConfig(word_max_features=400, char_max_features=400, seed=seed),
        accuracy_sample_size=40,
    )


@pytest.fixture(scope="session")
def scenario() -> SimulationScenario:
    return bench_scenario()


@pytest.fixture(scope="session")
def corpus(scenario):
    return generate_corpus(scenario.corpus)


@pytest.fixture(scope="session")
def simulator(scenario, corpus) -> ReportSimulator:
    instance = ReportSimulator(scenario)
    instance.use_corpus(corpus)
    return instance


@pytest.fixture(scope="session")
def simulation_summary(simulator):
    """The Manual / Sequential / Scrutinizer comparison, run once."""
    return simulator.run_all()


#: The fixed bench seeds the Scrutinizer/Sequential total-time ratio is
#: averaged over; the session scenario's seed 13 is one of them.  The list
#: is fixed, not tuned: single-seed ratios at this scale are claim-ordering
#: noise (0.92-1.21 across these seeds), so only their mean is checked.
ORDERING_RATIO_SEEDS = (11, 13, 17, 23, 29, 31, 37, 41, 43, 47)


@pytest.fixture(scope="session")
def ordering_ratios(scenario, simulation_summary) -> dict[int, float]:
    """Scrutinizer over Sequential total weeks, per bench seed."""
    ratios = {}
    for seed in ORDERING_RATIO_SEEDS:
        if seed == scenario.corpus.seed:
            sequential = simulation_summary.get("Sequential")
            scrutinizer = simulation_summary.get("Scrutinizer")
        else:
            seeded = ReportSimulator(bench_scenario(seed=seed))
            sequential = seeded.run_sequential()
            scrutinizer = seeded.run_scrutinizer()
        ratios[seed] = scrutinizer.total_weeks / sequential.total_weeks
    return ratios


@pytest.fixture(scope="session")
def warm_translator(corpus, scenario) -> ClaimTranslator:
    translator = ClaimTranslator(
        corpus.database,
        config=scenario.system.translation,
        preprocessor=ClaimPreprocessor(scenario.featurizer),
    )
    claims = [annotated.claim for annotated in corpus]
    truths = [annotated.ground_truth for annotated in corpus]
    translator.bootstrap(claims, truths)
    return translator


@pytest.fixture(scope="session")
def study_config() -> UserStudyConfig:
    return UserStudyConfig(study_claim_count=40, time_budget_seconds=20 * 60.0, seed=13)
