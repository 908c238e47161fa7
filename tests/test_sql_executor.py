"""Tests for query execution over the database corpus."""

from __future__ import annotations

import pytest

from repro.errors import SQLExecutionError, UnknownRelationError
from repro.sqlengine.executor import QueryExecutor


@pytest.fixture()
def executor(ged_database) -> QueryExecutor:
    return QueryExecutor(ged_database)


class TestExecution:
    def test_simple_lookup(self, executor):
        result = executor.execute("SELECT a.2017 FROM GED a WHERE a.Index = 'PGElecDemand'")
        assert result.scalar == 22209.0

    def test_predicate_on_a_non_key_column_raises(self, code_database):
        executor = QueryExecutor(code_database)
        assert executor.execute_scalar("SELECT a.2017 FROM T a WHERE a.Code = 'X'") == 12.0
        for where in ("a.2016 = 'X'", "a.Index = 'X'", "(a.Code = 'X' OR a.2016 = 'X')"):
            with pytest.raises(SQLExecutionError, match="key column 'Code'"):
                executor.execute(f"SELECT a.2017 FROM T a WHERE {where}")

    def test_cagr_from_paper_example(self, executor):
        sql = (
            "SELECT POWER(a.2017/b.2016, 1/(2017-2016)) - 1 FROM GED a, GED b "
            "WHERE a.Index = 'PGElecDemand' AND b.Index = 'PGElecDemand'"
        )
        assert executor.execute_scalar(sql) == pytest.approx(0.0298, abs=1e-3)

    def test_nine_fold_wind_example(self, executor):
        sql = (
            "SELECT a.2017 / b.2000 FROM GED a, GED b "
            "WHERE a.Index = 'CapAddTotal_Wind' AND b.Index = 'CapAddTotal_Wind'"
        )
        assert executor.execute_scalar(sql) == pytest.approx(9.0)

    def test_cross_relation_query(self, executor):
        sql = (
            "SELECT a.2017 - b.2017 FROM WEO_Power a, GED b "
            "WHERE a.Index = 'PGElecDemand' AND b.Index = 'PGElecDemand'"
        )
        assert executor.execute_scalar(sql) == pytest.approx(22250.0 - 22209.0)

    def test_disjunction_yields_multiple_values(self, executor):
        sql = "SELECT a.2017 FROM GED a WHERE (a.Index = 'PGElecDemand' OR a.Index = 'PGINCoal')"
        result = executor.execute(sql)
        assert sorted(result.values) == [2390.0, 22209.0]
        assert result.scalar is None

    def test_no_matching_key_is_empty(self, executor):
        result = executor.execute("SELECT a.2017 FROM GED a WHERE a.Index = 'Unknown'")
        assert result.is_empty

    def test_boolean_comparison_result(self, executor):
        sql = "SELECT a.2017 > 20000 FROM GED a WHERE a.Index = 'PGElecDemand'"
        assert executor.execute_scalar(sql) == 1.0

    def test_division_by_zero_recorded_as_error(self, ged_database):
        ged_database.relation("GED").set_value("PGINCoal", "2000", 0)
        executor = QueryExecutor(ged_database)
        sql = (
            "SELECT a.2017 / b.2000 FROM GED a, GED b "
            "WHERE a.Index = 'PGINCoal' AND b.Index = 'PGINCoal'"
        )
        result = executor.execute(sql)
        assert result.is_empty
        assert any("zero" in error for error in result.errors)

    def test_unknown_relation_raises(self, executor):
        with pytest.raises(UnknownRelationError):
            executor.execute("SELECT a.2017 FROM Missing a WHERE a.Index = 'X'")

    def test_unknown_attribute_is_an_execution_error(self, executor):
        result = executor.execute("SELECT a.1999 FROM GED a WHERE a.Index = 'PGElecDemand'")
        assert result.is_empty and result.errors

    def test_execute_scalar_requires_single_value(self, executor):
        with pytest.raises(SQLExecutionError):
            executor.execute_scalar(
                "SELECT a.2017 FROM GED a WHERE (a.Index = 'PGElecDemand' OR a.Index = 'PGINCoal')"
            )

    def test_binding_limit_enforced(self, ged_database):
        executor = QueryExecutor(ged_database, max_bindings=2)
        with pytest.raises(SQLExecutionError):
            executor.execute("SELECT a.2017 + b.2017 FROM GED a, GED b")
