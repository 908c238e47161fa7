"""Tests for claim preprocessing, the classifier suite and query generation."""

from __future__ import annotations

import copy

import pytest

from repro.claims.model import Claim, ClaimProperty
from repro.config import TranslationConfig
from repro.errors import ConfigurationError, NotFittedError, TranslationError
from repro.formulas.parser import parse_formula
from repro.ml.base import Prediction
from repro.translation.classifiers import PropertyClassifierSuite, SuiteConfig, TrainingExample
from repro.translation.preprocess import ClaimPreprocessor
from repro.translation.querygen import QueryGenerator
from repro.translation.translator import ClaimTranslator


def _claim(claim_id: str, text: str, explicit: bool = True, parameter: float | None = 0.03) -> Claim:
    return Claim(
        claim_id=claim_id,
        text=text,
        sentence_text=text + " Policy settings continue to evolve.",
        section_id="sec1",
        is_explicit=explicit,
        parameter=parameter if explicit else None,
    )


class TestPreprocessor:
    def test_fit_and_preprocess(self):
        claims = [
            _claim("c1", "electricity demand grew by 3% in 2017"),
            _claim("c2", "coal supply fell by 2% in 2016"),
        ]
        preprocessor = ClaimPreprocessor().fit(claims)
        row = preprocessor.feature_matrix(claims[:1])
        assert row.shape == (1, preprocessor.featurizer.dimension)
        # A claim featurizes the same alone as inside a batch.
        assert row[0].tobytes() == preprocessor.feature_matrix(claims)[0].tobytes()

    def test_feature_matrix_shape(self):
        claims = [_claim("c1", "demand grew"), _claim("c2", "supply fell")]
        preprocessor = ClaimPreprocessor().fit(claims)
        assert preprocessor.feature_matrix(claims).shape[0] == 2

    def test_copies_share_fitted_tables(self):
        def fitted_tables(preprocessor):
            featurizer = preprocessor.featurizer
            return [featurizer._embeddings._context_means] + [
                table
                for vectorizer in (featurizer._word_tfidf, featurizer._char_tfidf)
                for table in (vectorizer._vocabulary, vectorizer._idf)
            ]

        claims = [
            _claim("c1", "electricity demand grew by 3% in 2017"),
            _claim("c2", "coal supply fell by 2% in 2016"),
            _claim("c3", "wind capacity additions doubled since 2010"),
        ]
        template = ClaimPreprocessor().fit(claims[:2])
        before = template.feature_matrix(claims)
        for clone in (copy.deepcopy(template), copy.deepcopy(template)):
            assert all(
                mine is theirs
                for mine, theirs in zip(fitted_tables(clone), fitted_tables(template))
            )
            assert clone.featurizer._embeddings._cache is not (
                template.featurizer._embeddings._cache
            )
            assert clone.feature_matrix(claims).tobytes() == before.tobytes()

    def test_second_fit_raises(self):
        claims = [_claim("c1", "demand grew"), _claim("c2", "supply fell")]
        preprocessor = ClaimPreprocessor().fit(claims[:1])
        before = preprocessor.feature_matrix(claims)
        with pytest.raises(ConfigurationError, match="fitted once"):
            preprocessor.fit(claims)
        with pytest.raises(ConfigurationError, match="fitted once"):
            preprocessor.fit_texts([claim.text for claim in claims])
        assert preprocessor.feature_matrix(claims).tobytes() == before.tobytes()

    def test_unfitted_preprocessor_raises(self):
        with pytest.raises(NotFittedError):
            ClaimPreprocessor().feature_matrix([_claim("c1", "demand grew")])


class TestClassifierSuite:
    def _examples(self, count: int = 12) -> list[TrainingExample]:
        examples = []
        for index in range(count):
            if index % 2 == 0:
                claim = _claim(f"c{index}", f"electricity demand grew by 3% in 201{index % 8}")
                labels = {
                    ClaimProperty.RELATION: "GED",
                    ClaimProperty.KEY: "PGElecDemand",
                    ClaimProperty.ATTRIBUTE: "2017",
                    ClaimProperty.FORMULA: "((a / b) - 1)",
                }
            else:
                claim = _claim(f"c{index}", f"coal supply reached 2 390 Mtoe in 201{index % 8}")
                labels = {
                    ClaimProperty.RELATION: "WEO_Power",
                    ClaimProperty.KEY: "PGINCoal",
                    ClaimProperty.ATTRIBUTE: "2016",
                    ClaimProperty.FORMULA: "a",
                }
            examples.append(TrainingExample(claim=claim, labels=labels))
        return examples

    def _suite(self) -> PropertyClassifierSuite:
        examples = self._examples()
        preprocessor = ClaimPreprocessor().fit([example.claim for example in examples])
        suite = PropertyClassifierSuite(preprocessor, SuiteConfig(parametric_threshold=100))
        suite.fit(examples)
        return suite

    def test_predict_all_properties(self):
        suite = self._suite()
        batch = suite.predict_proba_many([_claim("q", "electricity demand grew by 2% in 2016")])
        predictions = batch.predictions_at(0)
        assert set(predictions) == set(ClaimProperty.ordered())
        assert predictions[ClaimProperty.KEY].top_label in {"PGElecDemand", "PGINCoal"}

    def test_learns_separable_texts(self):
        suite = self._suite()
        batch = suite.predict_proba_many(
            [
                _claim("q1", "electricity demand grew by 2% in 2016"),
                _claim("q2", "coal supply reached 2 100 Mtoe in 2014"),
            ]
        )
        assert batch.predictions_for("q1")[ClaimProperty.KEY].top_label == "PGElecDemand"
        assert batch.predictions_for("q2")[ClaimProperty.KEY].top_label == "PGINCoal"

    def test_untrained_predict_raises(self):
        preprocessor = ClaimPreprocessor().fit([_claim("c", "x demand")])
        suite = PropertyClassifierSuite(preprocessor)
        with pytest.raises(NotFittedError):
            suite.predict_proba_many([_claim("q", "demand")])

    def test_retrain_adds_examples(self):
        suite = self._suite()
        before = len(suite.to_state()["examples"])
        suite.retrain(self._examples(2))
        assert len(suite.to_state()["examples"]) == before + 2
        assert suite.retrain_count == 2

    def test_fit_without_examples_raises(self):
        preprocessor = ClaimPreprocessor().fit([_claim("c", "demand")])
        with pytest.raises(TranslationError):
            PropertyClassifierSuite(preprocessor).fit([])

    def test_evaluate_accuracy_bounds(self):
        suite = self._suite()
        examples = self._examples(4)
        claims = [example.claim for example in examples]
        from repro.claims.model import ClaimGroundTruth

        truths = [
            ClaimGroundTruth(
                claim_id=example.claim.claim_id,
                relations=(example.labels[ClaimProperty.RELATION],),
                keys=(example.labels[ClaimProperty.KEY],),
                attributes=(example.labels[ClaimProperty.ATTRIBUTE],),
                formula_label=example.labels[ClaimProperty.FORMULA],
            )
            for example in examples
        ]
        scores = suite.evaluate_accuracy(claims, truths)
        assert set(scores) == set(ClaimProperty.ordered())
        assert all(0.0 <= score <= 1.0 for score in scores.values())


class TestQueryGenerator:
    def test_explicit_claim_match_found(self, ged_database):
        generator = QueryGenerator(ged_database, TranslationConfig(admissible_error=0.05))
        result = generator.generate(
            relations=["GED"],
            keys=["PGElecDemand"],
            attributes=["2017", "2016"],
            formulas=[parse_formula("POWER(a / b, 1 / (A1 - A2)) - 1")],
            parameter=0.03,
        )
        assert result.has_match
        best = result.best
        assert best.matches_parameter
        assert best.value == pytest.approx(0.0298, abs=1e-3)
        assert "POWER" in best.sql

    def test_false_claim_yields_alternatives_only(self, ged_database):
        generator = QueryGenerator(ged_database)
        result = generator.generate(
            relations=["GED"],
            keys=["PGElecDemand"],
            attributes=["2017", "2016"],
            formulas=[parse_formula("POWER(a / b, 1 / (A1 - A2)) - 1")],
            parameter=0.025,
        )
        assert not result.has_match
        assert result.alternatives
        assert any(value == pytest.approx(0.0298, abs=1e-3) for value in result.suggested_values())

    def test_general_claim_produces_alternatives(self, ged_database):
        generator = QueryGenerator(ged_database)
        result = generator.generate(
            relations=["GED"],
            keys=["CapAddTotal_Wind"],
            attributes=["2017", "2000"],
            formulas=[parse_formula("a / b")],
            parameter=None,
        )
        assert result.alternatives
        assert result.best is not None

    def test_nine_fold_example(self, ged_database):
        generator = QueryGenerator(ged_database)
        result = generator.generate(
            relations=["GED"],
            keys=["CapAddTotal_Wind"],
            attributes=["2017", "2000"],
            formulas=[parse_formula("a / b")],
            parameter=9.0,
        )
        assert result.has_match

    def test_unknown_context_is_empty(self, ged_database):
        generator = QueryGenerator(ged_database)
        result = generator.generate(
            relations=["Missing"],
            keys=["Nope"],
            attributes=["1999"],
            formulas=[parse_formula("a")],
            parameter=1.0,
        )
        assert not result.has_match and not result.alternatives

    def test_permutation_cap_truncates(self, ged_database):
        generator = QueryGenerator(ged_database, TranslationConfig(max_permutations=3))
        result = generator.generate(
            relations=["GED"],
            keys=["PGElecDemand", "PGINCoal", "TFCelec"],
            attributes=["2017", "2016", "2000"],
            formulas=[parse_formula("a / b")],
            parameter=None,
        )
        assert result.truncated
        assert result.assignments_tried <= 4


class TestClaimTranslator:
    def _translator(self, ged_database, config=None) -> ClaimTranslator:
        translator = ClaimTranslator(ged_database, config=config)
        claims = []
        truths = []
        from repro.claims.model import ClaimGroundTruth

        for index in range(12):
            if index % 2 == 0:
                claims.append(_claim(f"c{index}", "electricity demand grew by 3% in 2017"))
                truths.append(
                    ClaimGroundTruth(
                        claim_id=f"c{index}",
                        relations=("GED",),
                        keys=("PGElecDemand",),
                        attributes=("2017", "2016"),
                        formula_label="(POWER((a / b), (1 / (A1 - A2))) - 1)",
                    )
                )
            else:
                claims.append(_claim(f"c{index}", "wind capacity increased nine-fold from 2000 to 2017", parameter=9.0))
                truths.append(
                    ClaimGroundTruth(
                        claim_id=f"c{index}",
                        relations=("GED",),
                        keys=("CapAddTotal_Wind",),
                        attributes=("2017", "2000"),
                        formula_label="(a / b)",
                    )
                )
        translator.bootstrap(claims, truths)
        return translator

    def test_bootstrap_and_predict(self, ged_database):
        translator = self._translator(ged_database)
        assert translator.is_trained
        claim = _claim("q", "electricity demand grew by 3% in 2017")
        predictions = translator.predict(claim)
        assert predictions[ClaimProperty.KEY].top_label in {"PGElecDemand", "CapAddTotal_Wind"}
        assert predictions == translator.predict_many([claim]).predictions_at(0)

    def test_translate_with_validated_context(self, ged_database):
        translator = self._translator(ged_database)
        claim = _claim("q", "electricity demand grew by 3% in 2017")
        result = translator.translate(
            claim,
            translator.predict(claim),
            validated_context={
                ClaimProperty.RELATION: ["GED"],
                ClaimProperty.KEY: ["PGElecDemand"],
                ClaimProperty.ATTRIBUTE: ["2017", "2016"],
            },
        )
        assert result.verdict is True
        assert result.generation.best is not None

    def test_translate_detects_false_claim(self, ged_database):
        translator = self._translator(ged_database)
        claim = _claim("q", "electricity demand grew by 9% in 2017", parameter=0.09)
        result = translator.translate(
            claim,
            translator.predict(claim),
            validated_context={
                ClaimProperty.RELATION: ["GED"],
                ClaimProperty.KEY: ["PGElecDemand"],
                ClaimProperty.ATTRIBUTE: ["2017", "2016"],
            },
        )
        assert result.verdict is False
        assert result.suggested_values

    def test_general_claim_has_no_automatic_verdict(self, ged_database):
        translator = self._translator(ged_database)
        claim = _claim("q", "wind capacity expanded aggressively", explicit=False)
        result = translator.translate(claim, translator.predict(claim))
        assert result.verdict is None

    def test_bootstrap_requires_claims(self, ged_database):
        with pytest.raises(TranslationError):
            ClaimTranslator(ged_database).bootstrap([])

    def test_candidate_labels_limit(self, ged_database):
        """Unvalidated properties fall back to the top-k of the claim's row."""
        claim = _claim("q", "electricity demand grew by 3% in 2017")
        context = {ClaimProperty.ATTRIBUTE: ["2017", "2000"]}

        def referenced_keys(top_k_keys: int) -> set[str]:
            translator = self._translator(
                ged_database, TranslationConfig(top_k_keys=top_k_keys)
            )
            predictions = {
                **translator.predict(claim),
                ClaimProperty.RELATION: Prediction(labels=("GED",), probabilities=(1.0,)),
                ClaimProperty.KEY: Prediction.from_distribution(
                    ["CapAddTotal_Wind", "PGElecDemand"], [0.6, 0.4]
                ),
            }
            generation = translator.translate(claim, predictions, context).generation
            return {
                reference.key
                for candidate in generation.candidates + generation.alternatives
                for reference in candidate.instantiated.value_assignment.values()
            }

        assert referenced_keys(1) == {"CapAddTotal_Wind"}
        assert referenced_keys(2) == {"CapAddTotal_Wind", "PGElecDemand"}
