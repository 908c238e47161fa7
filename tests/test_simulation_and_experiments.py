"""Integration tests: user study, report simulation and experiment harness."""

from __future__ import annotations

import pytest

from repro.config import BatchingConfig, ScrutinizerConfig
from repro.experiments import figure10, table1, table3
from repro.simulation.results import SimulationSummary
from repro.simulation.scenarios import SimulationScenario, default_scenario
from repro.simulation.simulator import ReportSimulator
from repro.synth.energy_data import EnergyDataConfig
from repro.synth.report_generator import SyntheticCorpusConfig
from repro.synth.study import UserStudyConfig, run_user_study, select_study_claims
from repro.text.features import FeaturizerConfig


@pytest.fixture(scope="module")
def tiny_scenario() -> SimulationScenario:
    return SimulationScenario(
        name="tiny",
        corpus=SyntheticCorpusConfig(
            claim_count=60,
            section_count=6,
            error_fraction=0.25,
            data=EnergyDataConfig(relation_count=10, rows_per_relation=10, seed=31),
            seed=29,
        ),
        system=ScrutinizerConfig(
            checker_count=3,
            options_per_property=10,
            batching=BatchingConfig(min_batch_size=1, max_batch_size=15),
            seed=29,
        ),
        featurizer=FeaturizerConfig(word_max_features=250, char_max_features=250),
        accuracy_sample_size=25,
    )


@pytest.fixture(scope="module")
def simulation_summary(tiny_scenario) -> SimulationSummary:
    return ReportSimulator(tiny_scenario).run_all()


class TestUserStudy:
    def test_study_claims_use_frequent_formulas(self, small_corpus):
        config = UserStudyConfig(study_claim_count=20, seed=3)
        claims = select_study_claims(small_corpus, config)
        assert 0 < len(claims) <= 20

    def test_system_checkers_verify_more_claims(self, small_corpus, trained_translator):
        config = UserStudyConfig(
            study_claim_count=25, time_budget_seconds=600.0, seed=5, skip_rate=0.02
        )
        result = run_user_study(small_corpus, config, translator=trained_translator)
        assert len(result.outcomes) == config.manual_checkers + config.system_checkers
        assert result.average_verified(used_system=True) > result.average_verified(used_system=False)

    def test_system_faster_at_same_complexity(self, small_corpus, trained_translator):
        config = UserStudyConfig(
            study_claim_count=25, time_budget_seconds=900.0, seed=5, skip_rate=0.0
        )
        result = run_user_study(small_corpus, config, translator=trained_translator)
        manual = result.time_by_complexity["Manual"]
        system = result.time_by_complexity["System"]
        shared = set(manual) & set(system)
        assert shared
        faster = sum(1 for complexity in shared if system[complexity] < manual[complexity])
        assert faster >= len(shared) / 2

    def test_figure_rows_render(self, small_corpus, trained_translator):
        config = UserStudyConfig(study_claim_count=10, time_budget_seconds=300.0, seed=6)
        result = run_user_study(small_corpus, config, translator=trained_translator)
        assert result.figure5_rows()
        assert isinstance(result.figure6_rows(), list)


class TestReportSimulation:
    def test_all_systems_present(self, simulation_summary):
        assert set(simulation_summary.runs) == {"Manual", "Sequential", "Scrutinizer"}

    def test_all_claims_verified_by_every_system(self, simulation_summary, tiny_scenario):
        expected = tiny_scenario.corpus.claim_count
        for run in simulation_summary.runs.values():
            assert run.report.claim_count == expected

    def test_scrutinizer_saves_time_over_manual(self, simulation_summary):
        assert simulation_summary.savings("Scrutinizer") > 0.15

    def test_sequential_saves_time_over_manual(self, simulation_summary):
        assert simulation_summary.savings("Sequential") > 0.05

    def test_assisted_runs_track_accuracy(self, simulation_summary):
        for name in ("Sequential", "Scrutinizer"):
            assert simulation_summary.runs[name].report.accuracy_history

    def test_table_rows_shape(self, simulation_summary):
        rows = simulation_summary.table_rows()
        assert len(rows) == 3
        assert {row["system"] for row in rows} == {"Manual", "Sequential", "Scrutinizer"}

    def test_cumulative_weeks_monotone(self, simulation_summary):
        series = simulation_summary.runs["Scrutinizer"].cumulative_weeks()
        assert series == sorted(series)

    def test_default_scenario_is_paper_scale(self):
        scenario = default_scenario()
        assert scenario.corpus.claim_count == 1539
        assert scenario.system.batching.max_batch_size == 100
        assert scenario.system.checker_count == 3


class TestExperimentModules:
    def test_table1_rows(self, small_corpus):
        rows = table1.run(corpus=small_corpus)
        assert len(rows) == 4
        assert all("measured_p50" in row and "paper_p50" in row for row in rows)
        assert "Table 1" in table1.format_rows(rows)

    def test_table1_skew_matches_paper_shape(self, small_corpus):
        rows = {row["property"]: row for row in table1.run(corpus=small_corpus)}
        for row in rows.values():
            assert row["measured_p95"] >= row["measured_p50"]

    def test_table3_matches_paper(self):
        outcome = table3.run()
        assert all(outcome["matches"].values())
        assert "Scrutinizer" in table3.format_rows(outcome)

    def test_figure10_top_k_monotone(self, small_corpus):
        outcome = figure10.run(
            corpus=small_corpus,
            max_k=5,
            featurizer_config=FeaturizerConfig(word_max_features=200, char_max_features=200),
        )
        for name, values in outcome["series"].items():
            assert values == sorted(values), name
        saturation = figure10.saturation_k(outcome)
        assert all(1 <= k <= 5 for k in saturation.values())
