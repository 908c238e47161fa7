"""Tests for the verification-service API: protocols, builder, streaming."""

from __future__ import annotations

import pytest

from repro.api import (
    AnswerSource,
    BatchResult,
    BatchSelector,
    Checker,
    ScrutinizerBuilder,
    TranslationBackend,
)
from repro.config import BatchingConfig, ScrutinizerConfig
from repro.crowd.oracle import GroundTruthOracle
from repro.crowd.worker import CheckerResponse, SimulatedChecker
from repro.errors import InfeasibleSelectionError
from repro.planning.batching import ClaimSelection
from repro.planning.planner import QuestionPlanner
from repro.translation.translator import ClaimTranslator


# --------------------------------------------------------------------- #
# custom in-test implementations of the protocols
# --------------------------------------------------------------------- #
class ScriptedChecker:
    """A deterministic checker answering from the corpus ground truth.

    Unlike :class:`SimulatedChecker` it never skips, never errs and takes a
    constant second per claim, so test assertions are exact.
    """

    def __init__(self, corpus, checker_id: str = "scripted-1") -> None:
        self.checker_id = checker_id
        self._corpus = corpus
        self.manual_calls = 0
        self.plan_calls = 0

    def verify_manually(self, claim) -> CheckerResponse:
        self.manual_calls += 1
        return self._respond(claim, used_system=False)

    def verify_with_plan(self, claim, plan) -> CheckerResponse:
        self.plan_calls += 1
        return self._respond(claim, used_system=True)

    def _respond(self, claim, used_system: bool) -> CheckerResponse:
        return CheckerResponse(
            claim_id=claim.claim_id,
            checker_id=self.checker_id,
            verdict=self._corpus.ground_truth(claim.claim_id).is_correct,
            elapsed_seconds=1.0,
            used_system=used_system,
        )


class RecordingAnswerSource:
    """An answer source counting every protocol call (wraps the oracle)."""

    def __init__(self, corpus) -> None:
        self._oracle = GroundTruthOracle(corpus)
        self.screen_calls = 0
        self.final_calls = 0

    def answer_screen(self, claim_id, screen):
        self.screen_calls += 1
        return self._oracle.answer_screen(claim_id, screen)

    def answer_final(self, claim_id, query_options):
        self.final_calls += 1
        return self._oracle.answer_final(claim_id, query_options)

    def is_claim_correct(self, claim_id):
        return self._oracle.is_claim_correct(claim_id)

    def reference_value(self, claim_id):
        return self._oracle.reference_value(claim_id)

    def reference_sql(self, claim_id):
        return self._oracle.reference_sql(claim_id)

    def claim_complexity(self, claim_id):
        return self._oracle.claim_complexity(claim_id)


class TakeFirstSelector:
    """A trivial batch selector: the first ``size`` pending claims."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.calls = 0

    def plan_batch(self, candidates, section_read_costs, document_order=None):
        self.calls += 1
        chosen = list(candidates)[: self.size]
        sections = tuple(sorted({candidate.section_id for candidate in chosen}))
        return ClaimSelection(
            claim_ids=tuple(candidate.claim_id for candidate in chosen),
            total_cost=sum(candidate.verification_cost for candidate in chosen),
            total_utility=sum(candidate.training_utility for candidate in chosen),
            sections_read=sections,
            solver="take-first",
        )


def small_config(batch_size: int = 6) -> ScrutinizerConfig:
    return ScrutinizerConfig(
        checker_count=1,
        votes_per_claim=1,
        batching=BatchingConfig(min_batch_size=1, max_batch_size=batch_size),
        seed=5,
    )


# --------------------------------------------------------------------- #
# protocol conformance of the stock implementations
# --------------------------------------------------------------------- #
class TestProtocolConformance:
    def test_simulated_checker_is_a_checker(self, small_corpus):
        oracle = GroundTruthOracle(small_corpus)
        checker = SimulatedChecker(checker_id="S1", oracle=oracle)
        assert isinstance(checker, Checker)

    def test_oracle_is_an_answer_source(self, small_corpus):
        assert isinstance(GroundTruthOracle(small_corpus), AnswerSource)

    def test_translator_is_a_translation_backend(self, trained_translator):
        assert isinstance(trained_translator, TranslationBackend)

    def test_planner_is_a_batch_selector(self):
        assert isinstance(QuestionPlanner(), BatchSelector)

    def test_custom_implementations_conform(self, small_corpus):
        assert isinstance(ScriptedChecker(small_corpus), Checker)
        assert isinstance(RecordingAnswerSource(small_corpus), AnswerSource)
        assert isinstance(TakeFirstSelector(4), BatchSelector)


# --------------------------------------------------------------------- #
# swapping backends through the builder (no subclassing)
# --------------------------------------------------------------------- #
class TestPluggableBackends:
    def test_custom_checker_and_answer_source_drive_the_loop(
        self, small_corpus, monkeypatch
    ):
        checker = ScriptedChecker(small_corpus)
        answers = RecordingAnswerSource(small_corpus)
        builder = (
            ScrutinizerBuilder(small_corpus)
            .with_config(small_config())
            .with_checkers([checker])
            .with_answer_source(answers)
        )

        # With both roles replaced, the loop must never instantiate or call
        # the simulated defaults.
        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("simulated default used despite custom backend")

        monkeypatch.setattr(SimulatedChecker, "__init__", forbidden)
        monkeypatch.setattr(GroundTruthOracle, "__init__", forbidden)

        service = builder.build_service()
        ids = list(small_corpus.claim_ids)[:12]
        report = service.run_to_completion(ids)

        assert report.claim_count == 12
        assert checker.manual_calls + checker.plan_calls == 12
        # After the cold-start batch the planner asks the answer source to
        # validate context screens.
        assert checker.plan_calls > 0
        assert answers.screen_calls > 0
        # The scripted checker answers exactly from the ground truth.
        assert report.verdict_accuracy(small_corpus) == 1.0
        assert all(
            verification.elapsed_seconds == pytest.approx(1.0)
            for verification in report.verifications
        )

    def test_custom_batch_selector(self, small_corpus):
        selector = TakeFirstSelector(size=5)
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(small_config())
            .with_checkers([ScriptedChecker(small_corpus)])
            .with_batch_selector(selector)
            .build_service()
        )
        service.submit(list(small_corpus.claim_ids)[:10])
        first = service.run_batch()
        assert first is not None
        assert first.solver == "take-first"
        assert first.batch_size == 5
        assert selector.calls == 1

    def test_sequential_baseline_flag(self, small_corpus):
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(small_config())
            .sequential_baseline()
            .build_service()
        )
        assert service.config.claim_ordering is False
        assert service.report.system_name == "Sequential"


# --------------------------------------------------------------------- #
# incremental / streaming use
# --------------------------------------------------------------------- #
class TestStreamingService:
    def _service(self, corpus, batch_size: int = 6):
        return (
            ScrutinizerBuilder(corpus)
            .with_config(small_config(batch_size))
            .with_checkers([ScriptedChecker(corpus)])
            .build_service()
        )

    def test_run_batch_returns_batch_results(self, small_corpus):
        service = self._service(small_corpus)
        service.submit(list(small_corpus.claim_ids)[:10])
        result = service.run_batch()
        assert isinstance(result, BatchResult)
        assert result.batch_index == 1
        assert result.batch_size == 6
        assert result.pending_after == 4
        assert len(result.verifications) == 6
        assert not service.is_complete

    def test_iter_results_streams_every_claim(self, small_corpus):
        service = self._service(small_corpus)
        ids = list(small_corpus.claim_ids)[:10]
        service.submit(ids)
        streamed = [verification.claim_id for verification in service.iter_results()]
        assert sorted(streamed) == sorted(ids)
        assert service.is_complete
        assert service.run_batch() is None

    def test_submit_between_batches(self, small_corpus):
        service = self._service(small_corpus, batch_size=5)
        ids = list(small_corpus.claim_ids)
        service.submit(ids[:5])
        service.run_batch()
        assert service.is_complete
        service.submit(ids[5:10])
        assert not service.is_complete
        service.run_batch()
        assert service.is_complete
        assert service.report.claim_count == 10
        assert service.batches_run == 2

    def test_empty_submit_is_a_noop(self, small_corpus):
        service = self._service(small_corpus)
        service.submit([])
        assert service.is_complete
        assert service.run_batch() is None
        assert service.report.claim_count == 0

    def test_submitting_unknown_claims_fails_fast(self, small_corpus):
        from repro.errors import ClaimError

        service = self._service(small_corpus)
        with pytest.raises(ClaimError):
            service.submit(["no-such-claim"])
        assert service.session is None

    def test_resubmitting_verified_claims_is_a_noop(self, small_corpus):
        service = self._service(small_corpus, batch_size=5)
        ids = list(small_corpus.claim_ids)[:5]
        service.submit(ids)
        service.run_batch()
        service.submit(ids)
        assert service.is_complete
        assert service.run_batch() is None
        assert service.report.claim_count == 5

    def test_on_batch_complete_callbacks(self, small_corpus):
        seen: list[BatchResult] = []
        service = self._service(small_corpus, batch_size=4)
        service.on_batch_complete(seen.append)
        service.submit(list(small_corpus.claim_ids)[:10])
        service.run_to_completion()
        assert [result.batch_index for result in seen] == [1, 2, 3]
        assert sum(result.batch_size for result in seen) == 10

    def test_failed_selection_does_not_advance_the_batch_counter(self, small_corpus):
        config = ScrutinizerConfig(
            checker_count=1,
            votes_per_claim=1,
            batching=BatchingConfig(min_batch_size=0, max_batch_size=5, cost_threshold=1.0),
            seed=5,
        )
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(config)
            .with_checkers([ScriptedChecker(small_corpus)])
            .build_service()
        )
        service.submit(list(small_corpus.claim_ids)[:10])
        for _ in range(2):
            with pytest.raises(InfeasibleSelectionError) as outcome:
                service.run_batch()
            assert outcome.value.constraint == "cost_threshold"
            assert service.batches_run == 0
        assert service.report.claim_count == 0
        assert service.pending_count == 10
        assert service.snapshot().batch_index == 0

    def test_batches_after_a_failed_selection_are_numbered_from_one(self, small_corpus):
        class FailOnceSelector(TakeFirstSelector):
            def plan_batch(self, candidates, section_read_costs, document_order=None):
                if self.calls == 0:
                    self.calls += 1
                    raise InfeasibleSelectionError(
                        "no batch fits yet", constraint="cost_threshold"
                    )
                return super().plan_batch(candidates, section_read_costs, document_order)

        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(small_config())
            .with_checkers([ScriptedChecker(small_corpus)])
            .with_batch_selector(FailOnceSelector(4))
            .build_service()
        )
        service.submit(list(small_corpus.claim_ids)[:8])
        with pytest.raises(InfeasibleSelectionError):
            service.run_batch()
        result = service.run_batch()
        assert result.batch_index == 1
        assert {verification.batch_index for verification in result.verifications} == {1}
        service.run_to_completion(max_batches=2)
        assert service.batches_run == 2
        assert service.is_complete

    def test_each_claim_is_translated_once_whatever_its_votes(
        self, small_corpus, monkeypatch
    ):
        """Every checker voting on a claim works through the same plan, so
        the claim is planned and translated once, not once per vote."""
        checkers = [ScriptedChecker(small_corpus, f"scripted-{index}") for index in range(3)]
        config = ScrutinizerConfig(
            checker_count=3,
            votes_per_claim=3,
            batching=BatchingConfig(min_batch_size=1, max_batch_size=6),
            seed=5,
        )
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(config)
            .with_checkers(checkers)
            .build_service()
        )
        translated: list[str] = []
        translate = ClaimTranslator.translate

        def counting_translate(self, claim, *args, **kwargs):
            translated.append(claim.claim_id)
            return translate(self, claim, *args, **kwargs)

        monkeypatch.setattr(ClaimTranslator, "translate", counting_translate)
        report = service.run_to_completion(list(small_corpus.claim_ids)[:24])

        assert report.claim_count == 24
        assert translated
        assert len(translated) == len(set(translated))
        # All three checkers vote on every claim and each planned claim
        # reached all three through its one plan.
        assert [checker.plan_calls for checker in checkers] == [len(translated)] * 3


class TestLifecycleEvents:
    def _service(self, corpus, batch_size: int = 6):
        return (
            ScrutinizerBuilder(corpus)
            .with_config(small_config(batch_size))
            .with_checkers([ScriptedChecker(corpus)])
            .build_service()
        )

    def test_events_fire_in_order_over_a_run(self, small_corpus):
        events: list[str] = []
        service = self._service(small_corpus, batch_size=5)
        service.on_lifecycle_event(lambda event, _service: events.append(event))
        service.submit(list(small_corpus.claim_ids)[:10])
        assert events == ["submitted"]
        service.run_batch()
        assert events == ["submitted", "batch"]
        service.run_batch()
        assert events == ["submitted", "batch", "batch", "completed"]
        service.snapshot()
        assert events[-1] == "snapshot"

    def test_restore_emits_restored(self, small_corpus):
        service = self._service(small_corpus, batch_size=5)
        service.submit(list(small_corpus.claim_ids)[:10])
        service.run_batch()
        snapshot = service.snapshot()
        from repro.api.builder import ScrutinizerBuilder as Builder

        events: list[str] = []
        builder = Builder.from_snapshot(snapshot, small_corpus)
        restored = builder.with_checkers(
            [ScriptedChecker(small_corpus)]
        ).build_service()
        # The callback is registered post-restore; a fresh run batch still
        # reports through it, proving callbacks and state are independent.
        restored.on_lifecycle_event(lambda event, _service: events.append(event))
        restored.run_batch()
        assert events == ["batch", "completed"]

    def test_callbacks_survive_reset_and_empty_submit_is_silent(self, small_corpus):
        events: list[str] = []
        service = self._service(small_corpus)
        service.on_lifecycle_event(lambda event, _service: events.append(event))
        service.submit([])
        assert events == []
        service.submit(list(small_corpus.claim_ids)[:6])
        assert events == ["submitted"]


class TestScrutinizerFacade:
    def test_verify_runs_through_the_service(self, small_corpus):
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(small_config())
            .with_checkers([ScriptedChecker(small_corpus)])
            .build_service()
        )
        batches: list[int] = []
        service.on_batch_complete(lambda result: batches.append(result.batch_index))
        report = service.run_to_completion(list(small_corpus.claim_ids)[:9])
        assert report.claim_count == 9
        assert batches == [1, 2]
        assert service.session is not None
        assert service.session.verified_count == 9
        assert service.is_complete
