"""Shared fixtures for the test suite.

The expensive fixtures (synthetic corpus, trained translator) are
session-scoped so the several hundred tests stay fast.
"""

from __future__ import annotations

import pytest

from repro.config import ScrutinizerConfig
from repro.dataset.database import Database
from repro.dataset.relation import Relation
from repro.synth.energy_data import EnergyDataConfig
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus
from repro.text.features import FeaturizerConfig
from repro.translation.preprocess import ClaimPreprocessor
from repro.translation.translator import ClaimTranslator


@pytest.fixture()
def ged_relation() -> Relation:
    """A small relation shaped like Figure 1 of the paper."""
    relation = Relation(
        name="GED",
        key_attribute="Index",
        attributes=["2000", "2016", "2017", "2030", "2040"],
        description="Global energy demand history and estimates",
    )
    relation.insert(
        {"Index": "PGElecDemand", "2000": 15000, "2016": 21567, "2017": 22209, "2030": 29349, "2040": 35526}
    )
    relation.insert(
        {"Index": "PGINCoal", "2000": 2100, "2016": 2380, "2017": 2390, "2030": 2341, "2040": 2353}
    )
    relation.insert(
        {"Index": "TFCelec", "2000": 14000, "2016": 21465, "2017": 22040, "2030": 28566, "2040": 34790}
    )
    relation.insert(
        {"Index": "CapAddTotal_Wind", "2000": 20, "2016": 160, "2017": 180, "2030": 400, "2040": 520}
    )
    return relation


@pytest.fixture()
def ged_database(ged_relation: Relation) -> Database:
    """A two-relation corpus sharing some keys."""
    other = Relation(
        name="WEO_Power",
        key_attribute="Index",
        attributes=["2000", "2016", "2017", "2030", "2040"],
    )
    other.insert(
        {"Index": "PGElecDemand", "2000": 15100, "2016": 21600, "2017": 22250, "2030": 29400, "2040": 35600}
    )
    other.insert(
        {"Index": "SolarPV_Gen", "2000": 1, "2016": 330, "2017": 450, "2030": 2500, "2040": 4800}
    )
    return Database([ged_relation, other], name="test-corpus")


@pytest.fixture()
def code_database() -> Database:
    """One relation keyed on ``Code`` rather than the usual ``Index``."""
    relation = Relation(name="T", key_attribute="Code", attributes=["2016", "2017"])
    relation.insert({"Code": "X", "2016": 10, "2017": 12})
    return Database([relation], name="code-keyed")


@pytest.fixture(scope="session")
def small_corpus():
    """A session-scoped synthetic corpus used across integration tests."""
    config = SyntheticCorpusConfig(
        claim_count=90,
        section_count=8,
        explicit_fraction=0.5,
        error_fraction=0.2,
        data=EnergyDataConfig(relation_count=12, rows_per_relation=12, seed=21),
        seed=17,
    )
    return generate_corpus(config)


@pytest.fixture(scope="session")
def trained_translator(small_corpus):
    """A translator warm-started on the whole small corpus."""
    translator = ClaimTranslator(
        small_corpus.database,
        preprocessor=ClaimPreprocessor(
            FeaturizerConfig(word_max_features=300, char_max_features=300)
        ),
    )
    claims = [annotated.claim for annotated in small_corpus]
    truths = [annotated.ground_truth for annotated in small_corpus]
    translator.bootstrap(claims, truths)
    return translator


@pytest.fixture()
def default_config() -> ScrutinizerConfig:
    return ScrutinizerConfig()
