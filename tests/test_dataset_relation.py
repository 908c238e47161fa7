"""Unit tests for the Relation and Database substrate."""

from __future__ import annotations

import pytest

from repro.dataset.relation import Relation
from repro.errors import (
    DatasetError,
    SchemaError,
    UnknownAttributeError,
    UnknownKeyError,
    UnknownRelationError,
)


class TestRelationSchema:
    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Relation(name="", key_attribute="Index", attributes=["2017"])

    def test_rejects_key_in_attributes(self):
        with pytest.raises(SchemaError):
            Relation(name="T", key_attribute="Index", attributes=["Index", "2017"])

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(SchemaError):
            Relation(name="T", key_attribute="Index", attributes=["2017", "2017"])

    def test_attributes_preserved_in_order(self, ged_relation):
        assert ged_relation.attributes == ("2000", "2016", "2017", "2030", "2040")


class TestRelationRows:
    def test_insert_and_lookup(self, ged_relation):
        assert ged_relation.value("PGElecDemand", "2017") == 22209.0

    def test_row_returns_key_column(self, ged_relation):
        row = ged_relation.row("PGINCoal")
        assert row["Index"] == "PGINCoal"
        assert row["2016"] == 2380.0

    def test_duplicate_key_rejected(self, ged_relation):
        with pytest.raises(SchemaError):
            ged_relation.insert({"Index": "PGElecDemand", "2017": 1.0})

    def test_missing_key_attribute_rejected(self, ged_relation):
        with pytest.raises(SchemaError):
            ged_relation.insert({"2017": 1.0})

    def test_unknown_attribute_rejected(self, ged_relation):
        with pytest.raises(SchemaError):
            ged_relation.insert({"Index": "New", "2055": 1.0})

    def test_unknown_key_lookup_raises(self, ged_relation):
        with pytest.raises(UnknownKeyError):
            ged_relation.value("DoesNotExist", "2017")

    def test_unknown_attribute_lookup_raises(self, ged_relation):
        with pytest.raises(UnknownAttributeError):
            ged_relation.value("PGElecDemand", "1999")

    def test_get_with_default(self, ged_relation):
        assert ged_relation.get("DoesNotExist", "2017", default=-1.0) == -1.0

    def test_set_value_overwrites(self, ged_relation):
        ged_relation.set_value("PGElecDemand", "2017", 22300)
        assert ged_relation.value("PGElecDemand", "2017") == 22300.0

    def test_partial_row_has_missing_cells(self):
        relation = Relation("T", "Index", ["2016", "2017"])
        relation.insert({"Index": "A", "2017": 5})
        assert relation.value("A", "2016") is None

    def test_iter_cells_skips_missing(self):
        relation = Relation("T", "Index", ["2016", "2017"])
        relation.insert({"Index": "A", "2017": 5})
        cells = list(relation.iter_cells())
        assert cells == [("A", "2017", 5.0)]

    def test_len_and_contains(self, ged_relation):
        assert len(ged_relation) == 4
        assert "PGElecDemand" in ged_relation
        assert "Nope" not in ged_relation

    def test_numeric_column(self, ged_relation):
        assert len(ged_relation.numeric_column("2017")) == 4

    def test_equality(self):
        first = Relation("T", "Index", ["2017"], rows=[{"Index": "A", "2017": 1}])
        second = Relation("T", "Index", ["2017"], rows=[{"Index": "A", "2017": 1}])
        assert first == second


class TestDatabase:
    def test_add_and_lookup(self, ged_database):
        assert ged_database.lookup("GED", "PGElecDemand", "2017") == 22209.0

    def test_duplicate_relation_rejected(self, ged_database, ged_relation):
        with pytest.raises(DatasetError):
            ged_database.add(Relation("GED", "Index", ["2017"]))

    def test_unknown_relation_raises(self, ged_database):
        with pytest.raises(UnknownRelationError):
            ged_database.relation("Missing")

    def test_try_lookup_returns_none(self, ged_database):
        assert ged_database.try_lookup("Missing", "x", "y") is None
        assert ged_database.try_lookup("GED", "Missing", "2017") is None

    def test_relations_with_key(self, ged_database):
        assert set(ged_database.relations_with_key("PGElecDemand")) == {"GED", "WEO_Power"}

    def test_relations_with_attribute(self, ged_database):
        assert set(ged_database.relations_with_attribute("2040")) == {"GED", "WEO_Power"}

    def test_all_keys_union(self, ged_database):
        assert "SolarPV_Gen" in ged_database.all_keys()
        assert "PGINCoal" in ged_database.all_keys()

    def test_remove(self, ged_database):
        removed = ged_database.remove("WEO_Power")
        assert removed.name == "WEO_Power"
        assert "WEO_Power" not in ged_database

    def test_total_cells(self, ged_database):
        assert ged_database.total_cells() == 4 * 5 + 2 * 5
