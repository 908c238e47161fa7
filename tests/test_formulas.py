"""Tests for the formula AST, parser, extraction and instantiation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormulaBindingError, FormulaError, FormulaSyntaxError
from repro.formulas.extraction import FormulaExtractor, cagr_trace, const, lookup, op
from repro.formulas.instantiate import FormulaInstantiator, ValueRef
from repro.formulas.parser import parse_formula
from repro.formulas.variables import (
    VariableBinding,
    attribute_variable_name,
    value_variable_name,
)

CAGR_TEXT = "POWER(a / b, 1 / (A1 - A2)) - 1"


class TestFormulaParser:
    def test_parse_cagr_formula(self):
        formula = parse_formula(CAGR_TEXT)
        assert formula.value_variables() == ("a", "b")
        assert formula.attribute_variables() == ("A1", "A2")
        assert "POWER" in formula.function_names()

    def test_round_trip_render_parse(self):
        formula = parse_formula(CAGR_TEXT)
        assert parse_formula(formula.render()).render() == formula.render()

    def test_comparison_formula(self):
        formula = parse_formula("(a - b) > 0")
        assert formula.comparison_operator() == ">"

    def test_attribute_variable_recognised(self):
        formula = parse_formula("A1 - A2")
        assert formula.attribute_variables() == ("A1", "A2")
        assert formula.value_variables() == ()

    def test_empty_text_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("   ")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("a + b extra")

    def test_complexity_counts(self):
        formula = parse_formula("a / b - 1")
        # two variables, one constant, two operations
        assert formula.complexity() == 5


class TestVariables:
    def test_value_variable_names(self):
        assert value_variable_name(0) == "a"
        assert value_variable_name(25) == "z"
        assert value_variable_name(26) == "a1"

    def test_attribute_variable_names(self):
        assert attribute_variable_name(0) == "A1"

    def test_binding_lookup(self):
        binding = VariableBinding(values={"a": 2.0}, attributes={"A1": "2017"})
        assert binding.value("a") == 2.0
        assert binding.attribute_numeric("A1") == 2017.0

    def test_unbound_variable_raises(self):
        with pytest.raises(FormulaBindingError):
            VariableBinding().value("a")

    def test_non_numeric_attribute_raises(self):
        binding = VariableBinding(attributes={"A1": "Total"})
        with pytest.raises(FormulaBindingError):
            binding.attribute_numeric("A1")

    def test_with_values_is_immutable_update(self):
        binding = VariableBinding(values={"a": 1.0})
        updated = binding.with_values(b=2.0)
        assert "b" not in binding.values and updated.value("b") == 2.0


class TestExtraction:
    def test_cagr_trace_generalises_to_paper_formula(self):
        trace = cagr_trace("GED", "PGElecDemand", "2017", "2016")
        generalized = FormulaExtractor().generalize(trace)
        formula = generalized.formula
        assert formula.value_variables() == ("a", "b")
        assert formula.attribute_variables() == ("A1", "A2")
        assert generalized.value_assignment["a"] == ValueRef("GED", "PGElecDemand", "2017")
        assert generalized.attribute_assignment == {"A1": "2017", "A2": "2016"}

    def test_identical_lookups_share_a_variable(self):
        trace = op("+", lookup("GED", "X", "2017"), lookup("GED", "X", "2017"))
        generalized = FormulaExtractor().generalize(trace)
        assert generalized.formula.value_variables() == ("a",)

    def test_constants_preserved(self):
        trace = op("-", op("/", lookup("GED", "X", "2017"), lookup("GED", "X", "2016")), const(1))
        generalized = FormulaExtractor().generalize(trace)
        assert 1.0 in generalized.formula.constants()

    def test_attribute_constant_generalisation_can_be_disabled(self):
        trace = cagr_trace("GED", "PGElecDemand", "2017", "2016")
        generalized = FormulaExtractor(generalize_attribute_constants=False).generalize(trace)
        assert generalized.formula.attribute_variables() == ()

    def test_comparison_trace(self):
        trace = op(">", lookup("GED", "X", "2017"), const(100))
        generalized = FormulaExtractor().generalize(trace)
        assert generalized.formula.comparison_operator() == ">"

    def test_metadata_properties(self):
        trace = op("+", lookup("GED", "X", "2017"), lookup("WEO", "Y", "2016"))
        generalized = FormulaExtractor().generalize(trace)
        assert generalized.relations == ("GED", "WEO")
        assert generalized.keys == ("X", "Y")
        assert generalized.attributes == ("2017", "2016")

    def test_operation_without_operands_rejected(self):
        with pytest.raises(FormulaError):
            op("+")


class TestInstantiation:
    def test_evaluate_cagr_on_database(self, ged_database):
        instantiator = FormulaInstantiator(ged_database)
        formula = parse_formula(CAGR_TEXT)
        value = instantiator.evaluate(
            formula,
            {
                "a": ValueRef("GED", "PGElecDemand", "2017"),
                "b": ValueRef("GED", "PGElecDemand", "2016"),
            },
            {"A1": "2017", "A2": "2016"},
        )
        assert value == pytest.approx(0.0298, abs=1e-3)

    def test_to_query_round_trips_through_executor(self, ged_database):
        from repro.sqlengine.executor import QueryExecutor

        instantiator = FormulaInstantiator(ged_database)
        formula = parse_formula(CAGR_TEXT)
        assignment = {
            "a": ValueRef("GED", "PGElecDemand", "2017"),
            "b": ValueRef("GED", "PGElecDemand", "2016"),
        }
        attributes = {"A1": "2017", "A2": "2016"}
        query = instantiator.to_query(formula, assignment, attributes)
        direct = instantiator.evaluate(formula, assignment, attributes)
        executed = QueryExecutor(ged_database).execute_scalar(query)
        assert executed == pytest.approx(direct)

    def test_to_query_keys_each_alias_on_its_relation_key_column(self, code_database):
        from repro.sqlengine.executor import QueryExecutor

        formula = parse_formula("a / b")
        assignment = {"a": ValueRef("T", "X", "2017"), "b": ValueRef("T", "X", "2016")}
        query = FormulaInstantiator(code_database).to_query(formula, assignment)
        assert query.render().endswith("WHERE a.Code = 'X' AND b.Code = 'X'")
        assert QueryExecutor(code_database).execute_scalar(query) == pytest.approx(1.2)

    def test_missing_assignment_raises(self, ged_database):
        instantiator = FormulaInstantiator(ged_database)
        formula = parse_formula("a + b")
        with pytest.raises(FormulaBindingError):
            instantiator.to_query(formula, {"a": ValueRef("GED", "PGElecDemand", "2017")})

    def test_missing_cell_raises_binding_error(self, ged_database):
        instantiator = FormulaInstantiator(ged_database)
        with pytest.raises(FormulaBindingError):
            instantiator.evaluate(
                parse_formula("a"), {"a": ValueRef("GED", "Unknown", "2017")}
            )

    def test_instantiate_tolerates_evaluation_failure(self, ged_database):
        ged_database.relation("GED").set_value("PGINCoal", "2016", 0)
        instantiator = FormulaInstantiator(ged_database)
        result = instantiator.instantiate(
            parse_formula("a / b"),
            {
                "a": ValueRef("GED", "PGINCoal", "2017"),
                "b": ValueRef("GED", "PGINCoal", "2016"),
            },
        )
        assert result.value is None
        assert "SELECT" in result.sql

    def test_boolean_formula_flagged(self, ged_database):
        instantiator = FormulaInstantiator(ged_database)
        result = instantiator.instantiate(
            parse_formula("(a - b) > 0"),
            {
                "a": ValueRef("GED", "PGElecDemand", "2017"),
                "b": ValueRef("GED", "PGElecDemand", "2016"),
            },
        )
        assert result.is_boolean
        assert result.value == 1.0


class TestExtractionInstantiationProperty:
    @settings(deadline=None, max_examples=25)
    @given(
        end=st.floats(min_value=10.0, max_value=1e5),
        start=st.floats(min_value=10.0, max_value=1e5),
    )
    def test_generalised_check_reproduces_growth(self, end, start):
        """Generalising a growth check and re-evaluating it gives the same value."""
        from repro.dataset.database import Database
        from repro.dataset.relation import Relation

        relation = Relation("GED", "Index", ["2016", "2017"])
        relation.insert({"Index": "TFCelec", "2016": start, "2017": end})
        ged_database = Database([relation])
        trace = op("-", op("/", lookup("GED", "TFCelec", "2017"), lookup("GED", "TFCelec", "2016")), const(1))
        generalized = FormulaExtractor().generalize(trace)
        value = FormulaInstantiator(ged_database).evaluate(
            generalized.formula,
            generalized.value_assignment,
            generalized.attribute_assignment,
        )
        assert value == pytest.approx(end / start - 1, rel=1e-9)
