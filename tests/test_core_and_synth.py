"""Tests for the synthetic corpus generator, the core system and baselines."""

from __future__ import annotations

import pytest

from repro.api.builder import ScrutinizerBuilder
from repro.claims.model import ClaimProperty
from repro.config import BatchingConfig, ScrutinizerConfig
from repro.core.baselines import SYSTEM_PROFILES, ManualBaseline
from repro.core.report import ClaimVerification, VerificationReport, seconds_to_weeks
from repro.core.session import VerificationSession
from repro.errors import ConfigurationError, SimulationError
from repro.formulas.parser import parse_formula
from repro.sqlengine.executor import QueryExecutor
from repro.sqlengine.parser import parse_query
from repro.synth.energy_data import EnergyDataConfig, build_database
from repro.synth.profiles import frequency_percentiles, zipf_weights
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus


class TestEnergyData:
    def test_database_shape(self):
        database, indicators = build_database(EnergyDataConfig(relation_count=6, rows_per_relation=8))
        assert database.relation_count == 6
        assert all(len(relation) <= 8 for relation in database)
        assert indicators

    def test_values_are_positive(self):
        database, _ = build_database(EnergyDataConfig(relation_count=3, rows_per_relation=5))
        for relation in database:
            for _, _, value in relation.iter_cells():
                assert value > 0

    def test_keys_shared_across_same_region_relations(self):
        database, _ = build_database(EnergyDataConfig(relation_count=12, rows_per_relation=6))
        shared = [key for key in database.all_keys() if len(database.relations_with_key(key)) > 1]
        assert shared

    def test_deterministic_for_seed(self):
        first, _ = build_database(EnergyDataConfig(relation_count=3, rows_per_relation=4, seed=5))
        second, _ = build_database(EnergyDataConfig(relation_count=3, rows_per_relation=4, seed=5))
        names = first.relation_names
        assert first.relation(names[0]) == second.relation(names[0])


class TestProfiles:
    def test_zipf_weights_normalised_and_decreasing(self):
        weights = zipf_weights(10)
        assert weights.sum() == pytest.approx(1.0)
        assert all(weights[i] >= weights[i + 1] for i in range(9))

    def test_frequency_percentiles(self):
        percentiles = frequency_percentiles([1, 1, 2, 10, 100])
        assert percentiles[50] == 2.0

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            zipf_weights(0)


class TestSyntheticCorpus:
    def test_counts_and_structure(self, small_corpus):
        assert small_corpus.claim_count == 90
        assert small_corpus.document.claim_count == 90
        assert small_corpus.document.section_count <= 8
        # Every claim's section exists in the document.
        for annotated in small_corpus:
            assert small_corpus.document.section_of(annotated.claim_id) == annotated.claim.section_id

    def test_explicit_share_near_configured(self, small_corpus):
        assert 0.3 <= small_corpus.explicit_share() <= 0.75

    def test_error_injection_only_on_explicit_claims(self, small_corpus):
        for claim_id in small_corpus.incorrect_claim_ids():
            annotated = small_corpus.annotated(claim_id)
            assert annotated.claim.is_explicit
            assert annotated.ground_truth.correct_value is not None

    def test_ground_truth_sql_reproduces_expected_value(self, small_corpus):
        executor = QueryExecutor(small_corpus.database)
        checked = 0
        for annotated in list(small_corpus)[:25]:
            truth = annotated.ground_truth
            if not truth.sql:
                continue
            result = executor.execute(parse_query(truth.sql))
            assert result.scalar == pytest.approx(truth.expected_value, rel=1e-6)
            checked += 1
        assert checked > 0

    def test_formula_labels_parse(self, small_corpus):
        for annotated in small_corpus:
            parse_formula(annotated.ground_truth.formula_label)

    def test_three_annotations_per_claim(self, small_corpus):
        assert all(len(annotated.annotations) == 3 for annotated in small_corpus)

    def test_explicit_parameter_close_to_expected_for_correct_claims(self, small_corpus):
        for annotated in small_corpus:
            claim, truth = annotated.claim, annotated.ground_truth
            if claim.is_explicit and truth.is_correct and truth.expected_value:
                assert claim.parameter == pytest.approx(truth.expected_value, rel=0.06, abs=0.01)

    def test_skewed_frequencies(self, small_corpus):
        profile = small_corpus.property_profile(ClaimProperty.RELATION)
        assert profile.percentile(95) > profile.percentile(50)

    def test_generation_is_deterministic(self):
        config = SyntheticCorpusConfig(
            claim_count=20, section_count=4,
            data=EnergyDataConfig(relation_count=6, rows_per_relation=8, seed=2), seed=5,
        )
        first = generate_corpus(config)
        second = generate_corpus(config)
        assert first.claim_ids == second.claim_ids
        assert [c.claim.text for c in first] == [c.claim.text for c in second]

    def test_invalid_config_rejected(self):
        with pytest.raises(Exception):
            SyntheticCorpusConfig(claim_count=0)


class TestVerificationReport:
    def _report(self) -> VerificationReport:
        report = VerificationReport(system_name="Test", checker_count=2)
        report.add(ClaimVerification("c1", True, "SELECT 1", 30.0, (True,), batch_index=1))
        report.add(ClaimVerification("c2", False, "SELECT 2", 50.0, (False,), batch_index=1))
        report.add(ClaimVerification("c3", None, None, 5.0, (), skipped=True, batch_index=2))
        return report

    def test_totals(self):
        report = self._report()
        assert report.claim_count == 3
        assert report.decided_count == 2
        assert report.total_seconds == 85.0

    def test_weeks_conversion(self):
        assert seconds_to_weeks(144000.0, checkers=1) == pytest.approx(1.0)
        assert seconds_to_weeks(144000.0, checkers=2) == pytest.approx(0.5)
        with pytest.raises(ConfigurationError):
            seconds_to_weeks(1.0, checkers=0)

    def test_cumulative_series_monotone(self):
        series = self._report().cumulative_seconds()
        assert series == sorted(series)

    def test_savings_against(self):
        fast, slow = self._report(), self._report()
        slow.add(ClaimVerification("c4", True, None, 100.0))
        assert fast.savings_against(slow) > 0

    def test_incorrect_claims_listed(self):
        assert [v.claim_id for v in self._report().incorrect_claims()] == ["c2"]

    def test_accuracy_history_aggregation(self):
        report = self._report()
        report.accuracy_history = [{"average": 0.2}, {"average": 0.4}]
        assert report.average_classifier_accuracy() == pytest.approx(0.3)
        assert report.max_classifier_accuracy() == pytest.approx(0.4)

    def test_to_rows(self):
        rows = self._report().to_rows()
        assert len(rows) == 3 and rows[0]["claim_id"] == "c1"


class TestVerificationSession:
    def test_lifecycle(self):
        session = VerificationSession(["c1", "c2"])
        assert session.pending_count == 2
        session.mark_verified("c1")
        assert session.pending_count == 1
        assert not session.is_complete
        session.mark_verified("c2")
        assert session.is_complete
        assert session.verified_count == 2

    def test_double_verification_rejected(self):
        session = VerificationSession(["c1"])
        session.mark_verified("c1")
        with pytest.raises(SimulationError):
            session.mark_verified("c1")

    def test_empty_session_rejected(self):
        with pytest.raises(SimulationError):
            VerificationSession([])


class TestManualBaseline:
    def test_verifies_every_claim(self, small_corpus):
        baseline = ManualBaseline(small_corpus, config=ScrutinizerConfig(checker_count=3, seed=1))
        report = baseline.verify(claim_ids=list(small_corpus.claim_ids)[:20])
        assert report.claim_count == 20
        assert report.total_seconds > 0
        assert report.verdict_accuracy(small_corpus) > 0.7


class TestScrutinizerSystem:
    @pytest.fixture(scope="class")
    def small_run(self, small_corpus):
        config = ScrutinizerConfig(
            checker_count=3,
            options_per_property=10,
            batching=BatchingConfig(min_batch_size=1, max_batch_size=15),
            seed=11,
        )
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(config)
            .with_accuracy_sample_size(25)
            .build_service()
        )
        report = service.run_to_completion(list(small_corpus.claim_ids)[:45])
        return service, report

    def test_all_claims_processed(self, small_run):
        _, report = small_run
        assert report.claim_count == 45

    def test_batches_recorded(self, small_run):
        service, _ = small_run
        assert service.session is not None
        assert service.batches_run >= 3

    def test_verdicts_mostly_match_ground_truth(self, small_run, small_corpus):
        _, report = small_run
        assert report.verdict_accuracy(small_corpus) > 0.8

    def test_accuracy_history_tracked(self, small_run):
        _, report = small_run
        assert report.accuracy_history
        assert all("average" in entry for entry in report.accuracy_history)

    def test_faster_than_manual(self, small_run, small_corpus):
        _, report = small_run
        manual = ManualBaseline(small_corpus, config=ScrutinizerConfig(checker_count=3, seed=2))
        manual_report = manual.verify(claim_ids=[v.claim_id for v in report.verifications])
        assert report.total_seconds < manual_report.total_seconds

    def test_warm_start_trains_translator(self, small_corpus):
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(ScrutinizerConfig(seed=3))
            .build_service()
        )
        service.warm_start(list(small_corpus.claim_ids)[:40])
        assert service.translator.is_trained

    def test_sequential_config_disables_ordering(self):
        config = ScrutinizerConfig()
        assert config.as_sequential().claim_ordering is False


class TestSystemProfiles:
    def test_table3_rows_present(self):
        names = {profile.name for profile in SYSTEM_PROFILES}
        assert names == {"Scrutinizer", "AggChecker", "BriQ", "StatSearch"}

    def test_scrutinizer_is_the_only_crowd_system(self):
        crowd = [profile for profile in SYSTEM_PROFILES if profile.user_model == "crowd"]
        assert [profile.name for profile in crowd] == ["Scrutinizer"]
