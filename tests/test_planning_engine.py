"""Tests for the adaptive batch-planning engine (``repro.planning.engine``)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.service import VerificationService
from repro.config import BatchingConfig, ScrutinizerConfig
from repro.errors import InfeasibleSelectionError
from repro.planning import ilp as ilp_module
from repro.planning.batching import BatchCandidate, ClaimSelection, select_claim_batch
from repro.planning.engine import FusionRequest, PlannerEngine
from repro.planning.planner import QuestionPlanner
from repro.serving.server import AdmissionPolicy, VerificationServer


def _candidates(utilities, costs, sections):
    return [
        BatchCandidate(
            claim_id=f"c{index:04d}",
            section_id=f"sec{section:02d}",
            verification_cost=float(cost),
            training_utility=float(utility),
        )
        for index, (utility, cost, section) in enumerate(zip(utilities, costs, sections))
    ]


def _combined_objective(selection, utility_weight):
    """The Definition 9 combined objective of a concrete selection."""
    return selection.total_cost - utility_weight * selection.total_utility


# --------------------------------------------------------------------------- #
# instance strategy shared by the property tests
# --------------------------------------------------------------------------- #
@st.composite
def _instances(draw):
    size = draw(st.integers(min_value=3, max_value=16))
    section_count = draw(st.integers(min_value=1, max_value=4))
    utilities = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0),
            min_size=size,
            max_size=size,
        )
    )
    costs = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=60.0),
            min_size=size,
            max_size=size,
        )
    )
    sections = draw(
        st.lists(
            st.integers(min_value=0, max_value=section_count - 1),
            min_size=size,
            max_size=size,
        )
    )
    reads = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=40.0),
            min_size=section_count,
            max_size=section_count,
        )
    )
    max_batch = draw(st.integers(min_value=1, max_value=size))
    return utilities, costs, sections, reads, max_batch


class TestEngineExactness:
    """The engine must be an exact drop-in for the per-round re-solve."""

    @settings(deadline=None, max_examples=30)
    @given(_instances())
    def test_pinned_regime_matches_full_milp(self, instance):
        """Per-section aggregation never changes the objective."""
        utilities, costs, sections, reads, max_batch = instance
        config = BatchingConfig(
            min_batch_size=1, max_batch_size=max_batch, utility_weight=5.0
        )
        candidates = _candidates(utilities, costs, sections)
        read_costs = {f"sec{j:02d}": reads[j] for j in range(len(reads))}
        baseline = select_claim_batch(candidates, read_costs, config=config)
        engine = PlannerEngine().plan(candidates, read_costs, config=config)
        assert _combined_objective(engine, 5.0) == pytest.approx(
            _combined_objective(baseline, 5.0), abs=1e-6
        )
        assert len(engine.claim_ids) == len(baseline.claim_ids)

    @settings(deadline=None, max_examples=25)
    @given(_instances(), st.floats(min_value=50.0, max_value=400.0))
    def test_cost_threshold_regime_matches_full_milp(self, instance, threshold):
        utilities, costs, sections, reads, max_batch = instance
        config = BatchingConfig(
            min_batch_size=0,
            max_batch_size=max_batch,
            cost_threshold=threshold,
            utility_weight=30.0,
        )
        candidates = _candidates(utilities, costs, sections)
        read_costs = {f"sec{j:02d}": reads[j] for j in range(len(reads))}
        baseline = select_claim_batch(candidates, read_costs, config=config)
        engine = PlannerEngine().plan(candidates, read_costs, config=config)
        assert _combined_objective(engine, 30.0) == pytest.approx(
            _combined_objective(baseline, 30.0), abs=1e-6
        )

    def test_pure_utility_shortcut_picks_top_batch(self):
        candidates = _candidates([1.0, 4.0, 2.0, 4.0], [10.0] * 4, [0, 1, 0, 1])
        config = BatchingConfig(min_batch_size=1, max_batch_size=2, utility_weight=0.0)
        selection = PlannerEngine().plan(candidates, {}, config=config)
        assert selection.solver == "engine-direct"
        # Top-2 utilities, lowest index first on the tie between c1 and c3.
        assert selection.claim_ids == ("c0001", "c0003")

    def test_equal_scores_take_the_lowest_index_batch(self):
        """Cold start scores every claim the same, so many batches tie; the
        engine takes the earliest sections' lowest-index claims."""
        candidates = _candidates([1.0] * 6, [60.0] * 6, [0, 0, 1, 1, 2, 2])
        reads = {f"sec{j:02d}": 30.0 for j in range(3)}
        selection = PlannerEngine().plan(
            candidates, reads, config=BatchingConfig(max_batch_size=3)
        )
        assert selection.claim_ids == ("c0000", "c0001", "c0002")

    def test_small_pool_selects_everything(self):
        candidates = _candidates([1.0, 2.0], [10.0, 20.0], [0, 0])
        selection = PlannerEngine().plan(
            candidates, {"sec00": 5.0}, config=BatchingConfig(max_batch_size=10)
        )
        assert selection.solver == "engine-direct"
        assert selection.claim_ids == ("c0000", "c0001")


class TestEngineCaches:
    def test_greedy_fallback_when_milp_disabled(self, monkeypatch):
        # Under a cost threshold a failed MILP solve falls back to the greedy.
        monkeypatch.setattr(
            ilp_module, "milp", lambda **_: SimpleNamespace(success=False, x=None)
        )
        candidates = _candidates([3.0, 1.0, 2.0], [10.0, 10.0, 10.0], [0, 1, 2])
        reads = {f"sec{j:02d}": 5.0 for j in range(3)}
        config = BatchingConfig(
            min_batch_size=1, max_batch_size=2, cost_threshold=200.0, utility_weight=30.0
        )
        engine = PlannerEngine()
        selection = engine.plan(candidates, reads, config=config)
        assert selection.solver == "greedy"
        assert engine.stats.plans == 1
        assert 1 <= selection.batch_size <= 2

    def test_infeasible_minimum_batch_raises(self):
        candidates = _candidates([1.0], [10.0], [0])
        engine = PlannerEngine()
        with pytest.raises(InfeasibleSelectionError) as outcome:
            engine.plan(
                candidates,
                {},
                config=BatchingConfig(
                    min_batch_size=3, max_batch_size=5, cost_threshold=100.0
                ),
            )
        assert outcome.value.constraint == "min_batch_size"

    def test_pinned_regime_allows_a_partial_final_batch(self):
        """A tail pool smaller than min_batch_size stays selectable when the
        batch size is pinned (no cost threshold) — matching
        select_claim_batch."""
        candidates = _candidates([1.0, 2.0], [10.0, 12.0], [0, 0])
        selection = PlannerEngine().plan(
            candidates,
            {"sec00": 5.0},
            config=BatchingConfig(min_batch_size=10, max_batch_size=100),
        )
        assert selection.batch_size == 2

    def test_zero_budget_raises_through_engine(self):
        candidates = _candidates([1.0, 2.0], [10.0, 10.0], [0, 1])
        reads = {"sec00": 5.0, "sec01": 5.0}
        config = BatchingConfig(
            min_batch_size=1, max_batch_size=2, cost_threshold=1.0, utility_weight=30.0
        )
        with pytest.raises(InfeasibleSelectionError) as outcome:
            PlannerEngine().plan(candidates, reads, config=config)
        assert outcome.value.constraint == "cost_threshold"


class TestServiceIntegration:
    @pytest.fixture()
    def engine_service(self, small_corpus):
        engine = PlannerEngine()
        config = ScrutinizerConfig(
            checker_count=3,
            batching=BatchingConfig(min_batch_size=1, max_batch_size=20),
        )
        service = VerificationService(
            small_corpus, config, planner=QuestionPlanner(config, engine=engine)
        )
        return service, engine

    def test_engine_service_completes_the_corpus(self, small_corpus, engine_service):
        service, engine = engine_service
        report = service.run_to_completion()
        assert len(report.verifications) == len(list(small_corpus.claim_ids))
        assert engine.stats.plans == service.batches_run
        # After warm-up every batch plans through the engine's exact DP.
        assert engine.stats.direct_solves >= 1

    def test_empty_selection_surfaces_instead_of_spinning(self, small_corpus):
        """A legal-but-empty selection (possible under a genuine cost
        threshold) must raise, not loop forever verifying nothing."""

        class _EmptySelector:
            def plan_batch(self, candidates, section_read_costs, document_order=None):
                return ClaimSelection(
                    claim_ids=(),
                    total_cost=0.0,
                    total_utility=0.0,
                    sections_read=(),
                    solver="stub",
                )

        service = VerificationService(
            small_corpus,
            ScrutinizerConfig(checker_count=3),
            batch_selector=_EmptySelector(),
        )
        service.submit()
        with pytest.raises(InfeasibleSelectionError) as outcome:
            service.run_batch()
        assert outcome.value.constraint == "cost_threshold"

class TestServingIntegration:
    def test_tenants_share_one_engine(self, small_corpus, tmp_path):
        config = ScrutinizerConfig(
            checker_count=3,
            batching=BatchingConfig(min_batch_size=1, max_batch_size=15),
        )
        with VerificationServer(
            small_corpus,
            config,
            policy=AdmissionPolicy(max_tenants=4, max_resident_sessions=2),
            # Thread executor on purpose: two tenant sessions plan through
            # the shared engine concurrently, exercising its locking.
            executor="thread",
            snapshot_dir=tmp_path / "snaps",
        ) as server:
            engine = server.planner_engine
            claim_ids = list(small_corpus.claim_ids)
            server.submit("alpha", claim_ids[:30])
            server.submit("beta", claim_ids[30:60])
            server.run_until_idle()
            assert len(server.verified_claim_ids("alpha")) == 30
            assert len(server.verified_claim_ids("beta")) == 30
            for tenant_id in ("alpha", "beta"):
                service = server._tenants[tenant_id].service
                assert service is not None
                assert service.planner.engine is engine
        assert engine.stats.plans >= 2


# --------------------------------------------------------------------------- #
# one planning path: every production round is exact and freshly scored
# --------------------------------------------------------------------------- #
_ORACLE_CONFIG = ScrutinizerConfig(
    checker_count=3,
    batching=BatchingConfig(min_batch_size=1, max_batch_size=8),
)


class _RecordingSelector:
    """A batch selector that delegates to a planner and records each round."""

    def __init__(self, planner):
        self.planner = planner
        self.rounds = []

    def plan_batch(self, candidates, section_read_costs, document_order=None):
        selection = self.planner.plan_batch(
            candidates, section_read_costs, document_order=document_order
        )
        self.rounds.append((tuple(candidates), dict(section_read_costs), selection))
        return selection


def _assert_matches_oracle(candidates, read_costs, config, selection):
    """The round's selection has the MILP oracle's objective and size."""
    oracle = select_claim_batch(candidates, dict(read_costs), config=config)
    weight = config.utility_weight
    assert _combined_objective(selection, weight) == pytest.approx(
        _combined_objective(oracle, weight), rel=1e-9, abs=1e-6
    )
    assert selection.batch_size == oracle.batch_size


def _fresh_candidates(service):
    """Every pending claim scored by a fresh ``predict_many`` of the
    session's current translator: what the next round must plan on."""
    pending = service.session.pending_claim_ids
    predictions = service.translator.predict_many(
        [service.corpus.claim(claim_id) for claim_id in pending]
    )
    costs = service.planner.estimate_costs_batch(predictions)
    utilities = service.planner.estimate_utilities_batch(predictions)
    return [
        BatchCandidate(
            claim_id=claim_id,
            section_id=service.corpus.claim(claim_id).section_id,
            verification_cost=float(cost),
            training_utility=float(utility),
        )
        for claim_id, cost, utility in zip(pending, costs, utilities)
    ]


def _record_engine_rounds(engine, monkeypatch):
    """Record every selection the engine makes."""
    rounds = []
    plan = engine.plan

    def recording_plan(candidates, section_read_costs, config=None, **options):
        selection = plan(candidates, section_read_costs, config=config, **options)
        rounds.append((tuple(candidates), dict(section_read_costs), config, selection))
        return selection

    monkeypatch.setattr(engine, "plan", recording_plan)
    return rounds


class TestOnePlanningPath:
    def test_every_service_round_matches_the_milp_oracle(self, small_corpus):
        recorder = _RecordingSelector(QuestionPlanner(_ORACLE_CONFIG))
        service = VerificationService(
            small_corpus,
            _ORACLE_CONFIG,
            planner=recorder.planner,
            batch_selector=recorder,
        )
        report = service.run_to_completion()
        assert len(report.verifications) == small_corpus.claim_count
        assert len(recorder.rounds) == service.batches_run
        for candidates, read_costs, selection in recorder.rounds:
            assert selection.solver.startswith("engine-")
            _assert_matches_oracle(
                candidates, read_costs, _ORACLE_CONFIG.batching, selection
            )

    def test_every_tenant_round_matches_the_milp_oracle(self, small_corpus, monkeypatch):
        server = VerificationServer(
            small_corpus,
            _ORACLE_CONFIG,
            policy=AdmissionPolicy(max_tenants=3, max_resident_sessions=3),
            executor="serial",
        )
        rounds = _record_engine_rounds(server.planner_engine, monkeypatch)
        claim_ids = list(small_corpus.claim_ids)
        for index, tenant_id in enumerate(("alpha", "beta", "gamma")):
            server.submit(tenant_id, claim_ids[index * 30 : (index + 1) * 30])
        server.run_until_idle()
        stats = server.stats
        server.close()
        assert stats.claims_verified == 90
        assert len(rounds) == stats.batches
        for candidates, read_costs, config, selection in rounds:
            _assert_matches_oracle(candidates, read_costs, config, selection)

    def test_service_rounds_plan_on_fresh_scores(self, small_corpus, monkeypatch):
        service = VerificationService(small_corpus, _ORACLE_CONFIG)
        rounds = _record_engine_rounds(service.planner.engine, monkeypatch)
        service.submit()
        # A cold-start round, then a trained one: the classifiers have
        # retrained after each, so scores from either round are stale now.
        service.run_batch()
        service.run_batch()
        expected = _fresh_candidates(service)
        service.run_batch()
        assert list(rounds[-1][0]) == expected

    def test_tenant_rounds_plan_on_fresh_scores(self, small_corpus, monkeypatch):
        server = VerificationServer(
            small_corpus,
            _ORACLE_CONFIG,
            policy=AdmissionPolicy(max_tenants=1, max_resident_sessions=1),
            executor="serial",
        )
        rounds = _record_engine_rounds(server.planner_engine, monkeypatch)
        server.submit("alpha", list(small_corpus.claim_ids)[:40])
        server.run_round()
        server.run_round()
        service = server._tenants["alpha"].service
        expected = _fresh_candidates(service)
        server.run_round()
        server.close()
        assert list(rounds[-1][0]) == expected


# --------------------------------------------------------------------------- #
# plan_fused: a loop over plan, kept for the repository benchmark's tracer
# --------------------------------------------------------------------------- #
def _fusion_request(instance, utility_weight):
    utilities, costs, sections, reads, max_batch = instance
    return FusionRequest(
        candidates=tuple(_candidates(utilities, costs, sections)),
        section_read_costs={f"sec{j:02d}": reads[j] for j in range(len(reads))},
        config=BatchingConfig(
            min_batch_size=1,
            max_batch_size=max_batch,
            utility_weight=utility_weight,
        ),
    )


class TestFusedPlanning:
    """``plan_fused`` must equal per-request ``plan`` claim-for-claim."""

    def test_fused_matches_per_request_plans(self):
        rng = np.random.default_rng(21)
        requests = []
        for weight in [0.0, 0.5, 1.3, 5.0]:
            size = int(rng.integers(4, 14))
            instance = (
                rng.uniform(0.0, 5.0, size).tolist(),
                rng.uniform(0.5, 60.0, size).tolist(),
                rng.integers(0, 3, size).tolist(),
                rng.uniform(0.0, 40.0, 3).tolist(),
                int(rng.integers(1, size + 1)),
            )
            requests.append(_fusion_request(instance, weight))
        fused = PlannerEngine().plan_fused(requests)
        assert len(fused) == len(requests)
        for request, selection in zip(requests, fused):
            solo = PlannerEngine().plan(
                request.candidates, request.section_read_costs, config=request.config
            )
            assert selection.claim_ids == solo.claim_ids
            assert selection.total_cost == pytest.approx(solo.total_cost)
            assert selection.total_utility == pytest.approx(solo.total_utility)

    def test_empty_request_list_is_a_no_op(self):
        engine = PlannerEngine()
        assert engine.plan_fused([]) == []
