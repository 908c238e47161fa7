"""Tests for the question-planning component (Section 5)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.claims.model import Claim, ClaimProperty
from repro.config import BatchingConfig, CostModelConfig, ScrutinizerConfig
from repro.errors import ConfigurationError, InfeasibleSelectionError
from repro.ml.base import Prediction
from repro.planning import ilp as ilp_module
from repro.planning.batching import BatchCandidate, batch_cost, select_claim_batch
from repro.planning.costmodel import VerificationCostModel, expected_reading_cost
from repro.planning.ilp import solve_claim_selection_ilp
from repro.planning.options import (
    AnswerOption,
    expected_option_cost,
    hit_probability,
    options_from_prediction,
    order_options,
)
from repro.planning.planner import QuestionPlanner
from repro.planning.pruning import PruningPowerCalculator
from repro.planning.utility import claim_training_utility, expected_claim_cost


def _prediction(labels, probabilities) -> Prediction:
    return Prediction.from_distribution(labels, probabilities)


def _fail_milp(monkeypatch) -> None:
    """Make the MILP solver fail, so the greedy fallback answers."""
    monkeypatch.setattr(
        ilp_module, "milp", lambda **_: SimpleNamespace(success=False, x=None)
    )


def _predictions() -> dict[ClaimProperty, Prediction]:
    return {
        ClaimProperty.RELATION: _prediction(["GED", "WEO"], [0.8, 0.2]),
        ClaimProperty.KEY: _prediction(["PGElecDemand", "PGINCoal", "TFCelec"], [0.5, 0.3, 0.2]),
        ClaimProperty.ATTRIBUTE: _prediction(["2017", "2016"], [0.6, 0.4]),
        ClaimProperty.FORMULA: _prediction(["a", "a / b - 1"], [0.7, 0.3]),
    }


class TestCostModelConfig:
    def test_corollary_one_settings_bound_overhead_by_three(self):
        config = CostModelConfig()
        model = VerificationCostModel(config)
        budget = model.corollary_budget()
        overhead = model.worst_case_overhead(budget.option_count, budget.screen_count)
        assert overhead <= 3.0 + 1e-9

    def test_invalid_cost_ordering_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModelConfig(property_verify_cost=50, query_verify_cost=10)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModelConfig(property_verify_cost=-1)

    def test_theorem1_formula(self):
        config = CostModelConfig()
        model = VerificationCostModel(config)
        expected = (
            5 * config.query_verify_cost
            + 3 * (config.property_verify_cost + config.property_suggest_cost)
        ) / config.query_suggest_cost
        assert model.worst_case_overhead(5, 3) == pytest.approx(expected)


class TestExpectedReadingCost:
    def test_theorem2_example(self):
        # vp * [(1 - 0) + (1 - 0.6) + (1 - 0.9)]
        assert expected_reading_cost([0.6, 0.3, 0.1], 2.0) == pytest.approx(2.0 * 1.5)

    def test_ordering_by_probability_minimises_cost(self):
        sorted_cost = expected_reading_cost([0.6, 0.3, 0.1], 1.0)
        reversed_cost = expected_reading_cost([0.1, 0.3, 0.6], 1.0)
        assert sorted_cost <= reversed_cost

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            expected_reading_cost([0.5], -1.0)

    @given(st.lists(st.floats(min_value=0, max_value=0.3), min_size=1, max_size=8))
    def test_corollary2_property(self, probabilities):
        """Sorting options by decreasing probability never increases the cost."""
        ordered = sorted(probabilities, reverse=True)
        assert expected_reading_cost(ordered, 1.0) <= expected_reading_cost(probabilities, 1.0) + 1e-9


class TestOptions:
    def test_order_options(self):
        options = [AnswerOption("x", 0.1), AnswerOption("y", 0.8)]
        assert [option.label for option in order_options(options)] == ["y", "x"]

    def test_options_from_prediction(self):
        options = options_from_prediction(_prediction(["a", "b", "c"], [0.5, 0.3, 0.2]), 2)
        assert len(options) == 2
        assert options[0].probability == pytest.approx(0.5)

    def test_hit_probability_capped_at_one(self):
        assert hit_probability([AnswerOption("a", 0.8), AnswerOption("b", 0.8)]) == 1.0

    def test_expected_option_cost_matches_reading_cost(self):
        options = [AnswerOption("a", 0.6), AnswerOption("b", 0.4)]
        assert expected_option_cost(options, 2.0) == pytest.approx(
            expected_reading_cost([0.6, 0.4], 2.0)
        )

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            AnswerOption("a", 1.5)


class TestPruningPower:
    def _calculator(self) -> PruningPowerCalculator:
        candidates = [
            {ClaimProperty.RELATION: "GED", ClaimProperty.KEY: "X"},
            {ClaimProperty.RELATION: "GED", ClaimProperty.KEY: "Y"},
            {ClaimProperty.RELATION: "WEO", ClaimProperty.KEY: "X"},
        ]
        probabilities = {
            ClaimProperty.RELATION: {"GED": 0.7, "WEO": 0.3},
            ClaimProperty.KEY: {"X": 0.6, "Y": 0.4},
        }
        return PruningPowerCalculator(candidates, probabilities)

    def test_pruning_power_matches_theorem3(self):
        calculator = self._calculator()
        power = calculator.pruning_power([ClaimProperty.RELATION])
        # Survival: GED candidates 0.7, WEO candidate 0.3 -> pruned 0.3+0.3+0.7
        assert power == pytest.approx(0.3 + 0.3 + 0.7)

    def test_empty_set_has_zero_power(self):
        assert self._calculator().pruning_power([]) == 0.0

    def test_monotonicity(self):
        calculator = self._calculator()
        single = calculator.pruning_power([ClaimProperty.RELATION])
        both = calculator.pruning_power([ClaimProperty.RELATION, ClaimProperty.KEY])
        assert both >= single

    def test_submodularity_on_example(self):
        calculator = self._calculator()
        gain_from_empty = calculator.pruning_power([ClaimProperty.KEY])
        gain_after_relation = calculator.pruning_power(
            [ClaimProperty.RELATION, ClaimProperty.KEY]
        ) - calculator.pruning_power([ClaimProperty.RELATION])
        assert gain_from_empty >= gain_after_relation - 1e-12

    def test_greedy_select_prefers_stronger_property(self):
        calculator = self._calculator()
        selected = calculator.greedy_select(list(ClaimProperty.ordered()), count=1)
        assert selected and selected[0] in (ClaimProperty.RELATION, ClaimProperty.KEY)

    def test_greedy_select_respects_count(self):
        assert len(self._calculator().greedy_select(list(ClaimProperty.ordered()), 2)) <= 2

    def test_candidate_without_property_never_pruned_by_it(self):
        calculator = PruningPowerCalculator(
            [{ClaimProperty.KEY: "X"}], {ClaimProperty.RELATION: {"GED": 1.0}}
        )
        assert calculator.pruning_power([ClaimProperty.RELATION]) == 0.0

    @settings(deadline=None, max_examples=30)
    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_greedy_within_bound_of_exhaustive_for_two_properties(self, relation_probability):
        candidates = [
            {ClaimProperty.RELATION: "GED", ClaimProperty.KEY: "X"},
            {ClaimProperty.RELATION: "WEO", ClaimProperty.KEY: "Y"},
        ]
        probabilities = {
            ClaimProperty.RELATION: {"GED": relation_probability, "WEO": 1 - relation_probability},
            ClaimProperty.KEY: {"X": 0.5, "Y": 0.5},
        }
        calculator = PruningPowerCalculator(candidates, probabilities)
        greedy = calculator.greedy_select([ClaimProperty.RELATION, ClaimProperty.KEY], 1)
        best = max(
            calculator.pruning_power([prop])
            for prop in (ClaimProperty.RELATION, ClaimProperty.KEY)
        )
        achieved = calculator.pruning_power(greedy) if greedy else 0.0
        assert achieved >= (1 - 1 / np.e) * best - 1e-9


class TestUtility:
    def test_training_utility_is_summed_entropy(self):
        predictions = _predictions()
        expected = sum(prediction.entropy() for prediction in predictions.values())
        assert claim_training_utility(predictions) == pytest.approx(expected)

    def test_expected_claim_cost_below_manual_when_confident(self):
        confident = {
            prop: _prediction(["x", "y"], [0.99, 0.01]) for prop in ClaimProperty.ordered()
        }
        model = VerificationCostModel(CostModelConfig())
        cost = expected_claim_cost(confident, option_count=10, cost_model=model)
        assert cost < model.manual_cost

    def test_uncertain_claims_cost_more(self):
        model = VerificationCostModel(CostModelConfig())
        confident = {
            prop: _prediction(["x", "y"], [0.95, 0.05]) for prop in ClaimProperty.ordered()
        }
        uncertain = {
            prop: _prediction([f"l{i}" for i in range(20)], [0.05] * 20)
            for prop in ClaimProperty.ordered()
        }
        assert expected_claim_cost(uncertain, 10, cost_model=model) > expected_claim_cost(
            confident, 10, cost_model=model
        )


class TestIlp:
    def test_selects_high_utility_claims(self):
        solution = solve_claim_selection_ilp(
            utilities=[1.0, 5.0, 2.0],
            verification_costs=[10.0, 10.0, 10.0],
            claim_sections=[0, 1, 2],
            section_read_costs=[5.0, 5.0, 5.0],
            min_batch_size=1,
            max_batch_size=1,
        )
        assert solution.selected_indices == (1,)

    def test_respects_batch_bounds(self):
        solution = solve_claim_selection_ilp(
            utilities=[1.0, 1.0, 1.0, 1.0],
            verification_costs=[1.0] * 4,
            claim_sections=[0, 0, 1, 1],
            section_read_costs=[1.0, 1.0],
            min_batch_size=2,
            max_batch_size=3,
        )
        assert 2 <= len(solution.selected_indices) <= 3

    def test_cost_threshold_limits_selection(self):
        solution = solve_claim_selection_ilp(
            utilities=[3.0, 3.0, 3.0],
            verification_costs=[60.0, 60.0, 60.0],
            claim_sections=[0, 1, 2],
            section_read_costs=[10.0, 10.0, 10.0],
            min_batch_size=0,
            max_batch_size=3,
            cost_threshold=150.0,
        )
        assert len(solution.selected_indices) <= 2

    def test_section_sharing_preferred_with_combined_objective(self):
        # Claims 0 and 1 share a section; claim 2 sits alone in an expensive one.
        solution = solve_claim_selection_ilp(
            utilities=[1.0, 1.0, 1.05],
            verification_costs=[10.0, 10.0, 10.0],
            claim_sections=[0, 0, 1],
            section_read_costs=[5.0, 100.0],
            min_batch_size=0,
            max_batch_size=2,
            utility_weight=1.0,
        )
        assert set(solution.selected_indices) <= {0, 1}

    def test_greedy_fallback_matches_constraints(self, monkeypatch):
        _fail_milp(monkeypatch)
        solution = solve_claim_selection_ilp(
            utilities=[1.0, 5.0, 2.0],
            verification_costs=[10.0, 10.0, 10.0],
            claim_sections=[0, 1, 2],
            section_read_costs=[5.0, 5.0, 5.0],
            min_batch_size=1,
            max_batch_size=2,
        )
        assert solution.solver == "greedy"
        assert 1 <= len(solution.selected_indices) <= 2
        assert 1 in solution.selected_indices

    def test_empty_input_rejected(self):
        with pytest.raises(InfeasibleSelectionError):
            solve_claim_selection_ilp([], [], [], [], 1, 1)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_claim_selection_ilp([1.0], [1.0, 2.0], [0], [1.0], 1, 1)

    def test_zero_budget_with_costly_claims_is_infeasible(self):
        """A genuine zero budget is expressible — and infeasible here."""
        with pytest.raises(InfeasibleSelectionError) as outcome:
            solve_claim_selection_ilp(
                utilities=[1.0, 2.0],
                verification_costs=[10.0, 10.0],
                claim_sections=[0, 1],
                section_read_costs=[5.0, 5.0],
                min_batch_size=1,
                max_batch_size=2,
                cost_threshold=0.0,
            )
        assert outcome.value.constraint == "cost_threshold"

    def test_zero_budget_selects_free_claims(self):
        solution = solve_claim_selection_ilp(
            utilities=[1.0, 2.0],
            verification_costs=[0.0, 10.0],
            claim_sections=[0, 1],
            section_read_costs=[0.0, 5.0],
            min_batch_size=1,
            max_batch_size=2,
            cost_threshold=0.0,
        )
        assert solution.selected_indices == (0,)

    def test_none_cost_threshold_disables_the_cap(self):
        solution = solve_claim_selection_ilp(
            utilities=[1.0, 2.0, 3.0],
            verification_costs=[50.0, 50.0, 50.0],
            claim_sections=[0, 1, 2],
            section_read_costs=[10.0, 10.0, 10.0],
            min_batch_size=3,
            max_batch_size=3,
            cost_threshold=None,
        )
        assert len(solution.selected_indices) == 3

    def test_negative_cost_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_claim_selection_ilp([1.0], [1.0], [0], [1.0], 1, 1, cost_threshold=-1.0)

    def test_min_batch_above_pool_raises_in_both_paths(self, monkeypatch):
        for solver_fails in (False, True):
            with monkeypatch.context() as patch:
                if solver_fails:
                    _fail_milp(patch)
                with pytest.raises(InfeasibleSelectionError) as outcome:
                    solve_claim_selection_ilp(
                        utilities=[1.0, 2.0],
                        verification_costs=[1.0, 1.0],
                        claim_sections=[0, 0],
                        section_read_costs=[1.0],
                        min_batch_size=5,
                        max_batch_size=8,
                    )
            assert outcome.value.constraint == "min_batch_size"

    def test_greedy_ties_break_by_lowest_index(self, monkeypatch):
        """Equal-score claims select lowest-index-first on every platform."""
        _fail_milp(monkeypatch)
        solution = solve_claim_selection_ilp(
            utilities=[2.0, 2.0, 2.0, 2.0],
            verification_costs=[10.0, 10.0, 10.0, 10.0],
            claim_sections=[0, 0, 0, 0],
            section_read_costs=[5.0],
            min_batch_size=1,
            max_batch_size=2,
        )
        assert solution.selected_indices == (0, 1)

    def test_milp_and_greedy_agree_when_greedy_is_optimal(self, monkeypatch):
        """On a single-section, uniform-cost, pinned-size instance the greedy
        heuristic is optimal; both solvers must return the same batch and
        report the same objective value."""
        kwargs = dict(
            utilities=[1.0, 5.0, 3.0, 4.0],
            verification_costs=[10.0, 10.0, 10.0, 10.0],
            claim_sections=[0, 0, 0, 0],
            section_read_costs=[5.0],
            min_batch_size=2,
            max_batch_size=2,
            utility_weight=5.0,
        )
        milp_solution = solve_claim_selection_ilp(**kwargs)
        _fail_milp(monkeypatch)
        greedy_solution = solve_claim_selection_ilp(**kwargs)
        assert milp_solution.solver == "scipy-milp"
        assert greedy_solution.solver == "greedy"
        assert set(milp_solution.selected_indices) == set(greedy_solution.selected_indices)
        assert greedy_solution.objective_value == pytest.approx(
            milp_solution.objective_value, abs=1e-9
        )

    def test_greedy_skips_over_budget_claims_instead_of_stopping(self, monkeypatch):
        """A too-expensive top-scored claim no longer ends the greedy pass:
        cheaper claims further down the ranking still fill the batch."""
        _fail_milp(monkeypatch)
        solution = solve_claim_selection_ilp(
            utilities=[9.0, 1.0, 1.0],
            verification_costs=[100.0, 5.0, 5.0],
            claim_sections=[0, 0, 0],
            section_read_costs=[0.0],
            min_batch_size=0,
            max_batch_size=3,
            cost_threshold=20.0,
            utility_weight=30.0,
        )
        assert solution.selected_indices == (1, 2)


class TestBatchSelection:
    def _candidates(self) -> list[BatchCandidate]:
        return [
            BatchCandidate("c1", "sec1", verification_cost=40.0, training_utility=2.0),
            BatchCandidate("c2", "sec1", verification_cost=45.0, training_utility=1.0),
            BatchCandidate("c3", "sec2", verification_cost=50.0, training_utility=4.0),
        ]

    def test_batch_cost_counts_sections_once(self):
        cost = batch_cost(self._candidates()[:2], {"sec1": 30.0})
        assert cost == pytest.approx(40.0 + 45.0 + 30.0)

    def test_select_claim_batch_returns_selection(self):
        selection = select_claim_batch(
            self._candidates(),
            {"sec1": 30.0, "sec2": 30.0},
            config=BatchingConfig(min_batch_size=1, max_batch_size=2),
        )
        assert 1 <= selection.batch_size <= 2
        assert selection.total_cost > 0

    def test_empty_candidates_rejected(self):
        with pytest.raises(InfeasibleSelectionError) as outcome:
            select_claim_batch([], {}, config=BatchingConfig())
        assert outcome.value.constraint == "pool"

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchCandidate("c1", "s", verification_cost=-1.0, training_utility=0.0)

    def test_min_batch_above_pool_surfaces_the_constraint(self, monkeypatch):
        """No more silent short batches: both solver paths refuse, and the
        error names the violated constraint."""
        for solver_fails in (False, True):
            with monkeypatch.context() as patch:
                if solver_fails:
                    _fail_milp(patch)
                with pytest.raises(InfeasibleSelectionError) as outcome:
                    select_claim_batch(
                        self._candidates(),
                        {"sec1": 30.0, "sec2": 30.0},
                        config=BatchingConfig(
                            min_batch_size=5, max_batch_size=8, cost_threshold=500.0
                        ),
                    )
            assert outcome.value.constraint == "min_batch_size"

    def test_pinned_regime_still_allows_a_partial_final_batch(self):
        """Without a cost threshold, min_batch_size is replaced by the pin:
        a tail pool smaller than the configured minimum stays selectable."""
        selection = select_claim_batch(
            self._candidates(),
            {"sec1": 30.0, "sec2": 30.0},
            config=BatchingConfig(min_batch_size=5, max_batch_size=100),
        )
        assert selection.batch_size == 3

    def test_config_zero_threshold_is_a_zero_budget(self):
        config = BatchingConfig(cost_threshold=0.0)
        assert config.cost_threshold == 0.0
        with pytest.raises(InfeasibleSelectionError) as outcome:
            select_claim_batch(
                self._candidates(), {"sec1": 30.0, "sec2": 30.0}, config=config
            )
        assert outcome.value.constraint == "cost_threshold"


class TestQuestionPlanner:
    def _claim(self) -> Claim:
        return Claim(
            claim_id="c1",
            text="demand grew by 3%",
            sentence_text="In 2017 demand grew by 3%.",
            section_id="sec1",
            is_explicit=True,
            parameter=0.03,
        )

    def test_plan_without_generation_uses_uncertainty_order(self):
        planner = QuestionPlanner(ScrutinizerConfig(options_per_property=5))
        plan = planner.plan_questions(self._claim(), _predictions())
        assert plan.screen_count == 4
        assert plan.expected_cost > 0
        # Options on every screen are sorted by decreasing probability.
        for screen in plan.screens:
            probabilities = [option.probability for option in screen.options]
            assert probabilities == sorted(probabilities, reverse=True)

    def test_option_count_respected(self):
        planner = QuestionPlanner(ScrutinizerConfig(options_per_property=2))
        plan = planner.plan_questions(self._claim(), _predictions())
        assert all(screen.option_count <= 2 for screen in plan.screens)

    def test_estimates_are_positive(self):
        planner = QuestionPlanner(ScrutinizerConfig())
        assert planner.estimate_cost(_predictions()) > 0
        assert planner.estimate_utility(_predictions()) > 0

    def test_sequential_batch_keeps_document_order(self):
        planner = QuestionPlanner(ScrutinizerConfig(claim_ordering=False))
        candidates = [
            BatchCandidate("c2", "sec1", 10.0, 1.0),
            BatchCandidate("c1", "sec1", 10.0, 5.0),
        ]
        selection = planner.plan_batch(candidates, {"sec1": 10.0}, document_order=["c1", "c2"])
        assert selection.claim_ids[0] == "c1"
        assert selection.solver == "sequential"

    def test_ordering_batch_prefers_utility(self):
        planner = QuestionPlanner(
            ScrutinizerConfig(batching=BatchingConfig(min_batch_size=1, max_batch_size=1))
        )
        candidates = [
            BatchCandidate("c1", "sec1", 10.0, 0.5),
            BatchCandidate("c2", "sec2", 10.0, 5.0),
        ]
        selection = planner.plan_batch(candidates, {"sec1": 10.0, "sec2": 10.0})
        assert selection.claim_ids == ("c2",)
