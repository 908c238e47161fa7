"""Tests for the vectorized claim pipeline.

Covers the shared feature store, one-row-vs-batch prediction equivalence
across the cold-start (k-NN) and parametric (softmax) regimes, incremental
retraining (warm starts over a featurizer fitted once), vectorized batch
scoring, and the one prediction path of the verification service.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.builder import ScrutinizerBuilder
from repro.claims.model import Claim, ClaimProperty
from repro.config import BatchingConfig, ScrutinizerConfig
from repro.crowd.worker import CheckerResponse
from repro.errors import ConfigurationError
from repro.ml.base import Prediction
from repro.ml.knn import KNearestNeighborsClassifier
from repro.ml.logistic import SoftmaxRegressionClassifier
from repro.pipeline.feature_store import ClaimFeatureStore
from repro.planning.planner import QuestionPlanner
from repro.translation.classifiers import (
    PropertyClassifierSuite,
    SuiteConfig,
    TrainingExample,
)
from repro.translation.preprocess import ClaimPreprocessor
from repro.translation.translator import ClaimTranslator


def _claim(claim_id: str, text: str) -> Claim:
    return Claim(
        claim_id=claim_id,
        text=text,
        sentence_text=text,
        section_id="s1",
        is_explicit=True,
        parameter=0.03,
    )


def _examples(count: int = 12, offset: int = 0) -> list[TrainingExample]:
    examples = []
    for index in range(count):
        if index % 2 == 0:
            claim = _claim(
                f"c{offset + index}",
                f"electricity demand grew by 3% in 201{index % 8}",
            )
            labels = {
                ClaimProperty.RELATION: "GED",
                ClaimProperty.KEY: "PGElecDemand",
                ClaimProperty.ATTRIBUTE: "2017",
                ClaimProperty.FORMULA: "((a / b) - 1)",
            }
        else:
            claim = _claim(
                f"c{offset + index}",
                f"coal supply reached 2 390 Mtoe in 201{index % 8}",
            )
            labels = {
                ClaimProperty.RELATION: "WEO_Power",
                ClaimProperty.KEY: "PGINCoal",
                ClaimProperty.ATTRIBUTE: "2016",
                ClaimProperty.FORMULA: "a",
            }
        examples.append(TrainingExample(claim=claim, labels=labels))
    return examples


def _blobs(seed: int = 0, samples_per_class: int = 30, dimension: int = 10):
    rng = np.random.default_rng(seed)
    features, labels = [], []
    for index, label in enumerate(["alpha", "beta", "gamma"]):
        center = np.zeros(dimension)
        center[index] = 5.0
        features.append(
            rng.normal(loc=center, scale=0.5, size=(samples_per_class, dimension))
        )
        labels.extend([label] * samples_per_class)
    return np.vstack(features), labels


# --------------------------------------------------------------------- #
# feature store
# --------------------------------------------------------------------- #
class TestClaimFeatureStore:
    def _store(self):
        examples = _examples()
        claims = [example.claim for example in examples]
        preprocessor = ClaimPreprocessor().fit(claims)
        return ClaimFeatureStore(preprocessor), claims, preprocessor

    def test_vector_is_cached_and_read_only(self):
        store, claims, preprocessor = self._store()
        first = store.matrix(claims[:1])
        assert store.cached_count == 1
        np.testing.assert_array_equal(first, preprocessor.feature_matrix(claims[:1]))
        # Served matrices are copies: writing one leaves the cache intact.
        expected = first.copy()
        first[:] = 0.0
        np.testing.assert_array_equal(store.matrix(claims[:1]), expected)
        assert store.cached_count == 1

    def test_matrix_matches_per_claim_vectors(self):
        store, claims, preprocessor = self._store()
        matrix = store.matrix(claims)
        assert matrix.shape[0] == len(claims)
        for index, claim in enumerate(claims):
            alone = ClaimFeatureStore(preprocessor).matrix([claim])
            np.testing.assert_array_equal(matrix[index], alone[0])

    def test_matrix_serves_cached_rows(self, monkeypatch):
        store, claims, preprocessor = self._store()
        full = store.matrix(claims)
        assert store.cached_count == len(claims)

        def forbidden(batch):  # pragma: no cover - failure path
            raise AssertionError("a cached claim was featurized again")

        monkeypatch.setattr(preprocessor, "feature_matrix", forbidden)
        np.testing.assert_array_equal(store.matrix([claims[3]])[0], full[3])
        np.testing.assert_array_equal(store.matrix(claims), full)

    def test_empty_matrix_has_feature_width(self):
        store, claims, preprocessor = self._store()
        matrix = store.matrix([])
        assert matrix.shape == (0, preprocessor.featurizer.dimension)


# --------------------------------------------------------------------- #
# one-row-vs-batch equivalence: a single claim is a one-row batch, and it
# must rank like its row of a larger batch
# --------------------------------------------------------------------- #
def _ranked(classes, probabilities) -> tuple[str, ...]:
    return Prediction.from_distribution(classes, probabilities).labels


class TestBatchSingleEquivalence:
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**16), queries=st.integers(1, 8))
    def test_softmax_proba_batch_matches_single(self, seed, queries):
        features, labels = _blobs(seed=seed % 7, samples_per_class=20)
        model = SoftmaxRegressionClassifier(epochs=40).fit(features, labels)
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(queries, features.shape[1]))
        stacked = model.predict_proba_batch(batch)
        for index in range(queries):
            np.testing.assert_allclose(
                stacked[index],
                model.predict_proba_batch(batch[index : index + 1])[0],
                rtol=1e-12,
            )

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 2**16),
        k=st.integers(1, 10),
        samples=st.integers(1, 15),
        queries=st.integers(1, 6),
    )
    def test_knn_batch_matches_single_cold_start(self, seed, k, samples, queries):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(samples, 6))
        labels = [f"l{index % 3}" for index in range(samples)]
        model = KNearestNeighborsClassifier(k=k).fit(features, labels)
        batch = rng.normal(size=(queries, 6))
        stacked = model.predict_proba_batch(batch)
        for index in range(queries):
            single = model.predict_proba_batch(batch[index : index + 1])[0]
            np.testing.assert_allclose(stacked[index], single, rtol=1e-12)
            assert _ranked(model.classes, single) == _ranked(model.classes, stacked[index])

    def test_knn_tie_breaking_is_deterministic_lowest_index(self):
        # Four identical rows, different labels: every similarity ties at
        # 1.0, so the k=2 neighbourhood must be rows 0 and 1 — never an
        # arbitrary pair — and one-row and larger batches must agree exactly.
        features = np.tile(np.array([[1.0, 2.0, 3.0]]), (4, 1))
        labels = ["a", "b", "c", "d"]
        model = KNearestNeighborsClassifier(k=2).fit(features, labels)
        query = np.array([[1.0, 2.0, 3.0]])
        single = model.predict_proba_batch(query)[0]
        prediction = Prediction.from_distribution(model.classes, single)
        assert set(label for label, p in prediction.top_k(2) if p > 0) == {"a", "b"}
        repeated = model.predict_proba_batch(np.tile(query, (5, 1)))
        for row in repeated:
            np.testing.assert_array_equal(row, repeated[0])
        np.testing.assert_array_equal(repeated[0], single)

    def _suite(self, parametric_threshold: int):
        examples = _examples(16)
        preprocessor = ClaimPreprocessor().fit([example.claim for example in examples])
        suite = PropertyClassifierSuite(
            preprocessor, SuiteConfig(parametric_threshold=parametric_threshold)
        )
        suite.fit(examples)
        return suite

    @pytest.mark.parametrize("parametric_threshold", [1, 100])
    def test_predict_many_matches_predict(self, parametric_threshold):
        """A claim's row of a batch == its one-claim batch, in both regimes.

        ``ClaimTranslator.predict`` is a one-claim batch, and the service
        plans each claim from its row of the pending pool's batch; both
        must rank labels alike.  ``parametric_threshold=1`` trains softmax
        models (parametric regime), ``100`` keeps every property on the
        k-NN fallback (cold-start regime).
        """
        suite = self._suite(parametric_threshold)
        queries = [
            _claim("q1", "electricity demand grew by 2% in 2016"),
            _claim("q2", "coal supply reached 2 100 Mtoe in 2014"),
            _claim("q3", "demand grew"),
        ]
        many = suite.predict_proba_many(queries)
        for index, query in enumerate(queries):
            batched = many.predictions_at(index)
            single = suite.predict_proba_many([query]).predictions_at(0)
            assert set(batched) == set(single)
            for claim_property in ClaimProperty.ordered():
                assert batched[claim_property].labels == single[claim_property].labels
                np.testing.assert_allclose(
                    batched[claim_property].probabilities,
                    single[claim_property].probabilities,
                    rtol=1e-12,
                )


# --------------------------------------------------------------------- #
# incremental retraining
# --------------------------------------------------------------------- #
class TestWarmStart:
    def test_softmax_warm_start_keeps_label_indices_and_adds_classes(self):
        features, labels = _blobs(seed=1)
        model = SoftmaxRegressionClassifier(epochs=30)
        model.fit(features, labels)
        first_classes = model.classes
        rng = np.random.default_rng(5)
        center = np.zeros(features.shape[1])
        center[3] = 5.0
        new_rows = rng.normal(loc=center, scale=0.5, size=(20, features.shape[1]))
        model.fit(
            np.vstack([features, new_rows]), list(labels) + ["delta"] * 20
        )
        assert model.classes[: len(first_classes)] == first_classes
        assert "delta" in model.classes
        probabilities = model.predict_proba_batch(center[None, :])[0]
        assert _ranked(model.classes, probabilities)[0] == "delta"

    def test_warm_start_converges_from_previous_weights(self):
        features, labels = _blobs(seed=2)
        warm = SoftmaxRegressionClassifier(epochs=30)
        warm.fit(features, labels)
        first_weights = warm._weights.copy()
        warm.fit(features, labels)
        # The second fit continued from the first solution instead of
        # re-initialising to small random weights.
        assert np.linalg.norm(warm._weights) >= np.linalg.norm(first_weights) * 0.5
        assert not np.allclose(warm._weights, first_weights)

    def test_cold_restart_on_feature_dimension_change(self):
        """A fit on another feature dimension is refused, not restarted cold.

        The featurizer is fitted once, so a dimension change is a caller
        error; a cold fit is a new instance.
        """
        features, labels = _blobs(seed=3)
        model = SoftmaxRegressionClassifier(epochs=10)
        model.fit(features, labels)
        weights = model._weights.copy()
        with pytest.raises(ConfigurationError, match="feature dimension"):
            model.fit(features[:, :5], labels)
        np.testing.assert_array_equal(model._weights, weights)

    def test_suite_reuses_softmax_models_across_retrains(self):
        examples = _examples(16)
        preprocessor = ClaimPreprocessor().fit([example.claim for example in examples])
        suite = PropertyClassifierSuite(
            preprocessor,
            SuiteConfig(parametric_threshold=1, epochs=20),
        )
        suite.fit(examples)
        first_models = dict(suite._models)
        suite.retrain(_examples(2, offset=100))
        for claim_property in ClaimProperty.ordered():
            assert suite._models[claim_property] is first_models[claim_property]


# --------------------------------------------------------------------- #
# vectorized batch scoring
# --------------------------------------------------------------------- #
class TestVectorizedScoring:
    def _batch_and_dicts(self):
        examples = _examples(16)
        preprocessor = ClaimPreprocessor().fit([example.claim for example in examples])
        suite = PropertyClassifierSuite(
            preprocessor, SuiteConfig(parametric_threshold=1)
        )
        suite.fit(examples)
        queries = [example.claim for example in _examples(10, offset=50)]
        batch = suite.predict_proba_many(queries)
        return batch, [batch.predictions_at(index) for index in range(len(batch))]

    def test_estimate_costs_batch_matches_scalar(self):
        batch, dicts = self._batch_and_dicts()
        planner = QuestionPlanner(ScrutinizerConfig())
        vectorized = planner.estimate_costs_batch(batch)
        scalar = [planner.estimate_cost(predictions) for predictions in dicts]
        np.testing.assert_allclose(vectorized, scalar, rtol=1e-9)

    def test_estimate_utilities_batch_matches_scalar(self):
        batch, dicts = self._batch_and_dicts()
        planner = QuestionPlanner(ScrutinizerConfig())
        vectorized = planner.estimate_utilities_batch(batch)
        scalar = [planner.estimate_utility(predictions) for predictions in dicts]
        np.testing.assert_allclose(vectorized, scalar, rtol=1e-9)

    def test_property_batch_entropies_match_prediction_entropy(self):
        batch, dicts = self._batch_and_dicts()
        for claim_property, property_batch in batch.by_property.items():
            entropies = property_batch.entropies()
            for index, predictions in enumerate(dicts):
                assert entropies[index] == pytest.approx(
                    predictions[claim_property].entropy(), rel=1e-9
                )


# --------------------------------------------------------------------- #
# verification-service integration
# --------------------------------------------------------------------- #
class _ConstantChecker:
    """Deterministic checker: always correct, one second per claim."""

    def __init__(self, corpus) -> None:
        self.checker_id = "const-1"
        self._corpus = corpus

    def verify_manually(self, claim) -> CheckerResponse:
        return self._respond(claim, used_system=False)

    def verify_with_plan(self, claim, plan) -> CheckerResponse:
        return self._respond(claim, used_system=True)

    def _respond(self, claim, used_system: bool) -> CheckerResponse:
        return CheckerResponse(
            claim_id=claim.claim_id,
            checker_id=self.checker_id,
            verdict=self._corpus.ground_truth(claim.claim_id).is_correct,
            elapsed_seconds=1.0,
            used_system=used_system,
        )


def _config(batch_size: int = 6) -> ScrutinizerConfig:
    return ScrutinizerConfig(
        checker_count=1,
        votes_per_claim=1,
        batching=BatchingConfig(min_batch_size=1, max_batch_size=batch_size),
        seed=5,
    )


def _corpus_fitted_rows(corpus, claims):
    """Feature rows of ``claims`` under a featurizer fitted on the corpus."""
    preprocessor = ClaimPreprocessor().fit([annotated.claim for annotated in corpus])
    return preprocessor.feature_matrix(claims)


class TestFitOnce:
    """The featurizer is fitted once, on the corpus, and never refitted."""

    def test_warm_start_keeps_the_corpus_featurizer(self, small_corpus):
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(_config())
            .with_checkers([_ConstantChecker(small_corpus)])
            .build_service()
        )
        ids = list(small_corpus.claim_ids)
        service.warm_start(ids[:20])
        assert service.translator.is_trained
        claims = [small_corpus.claim(claim_id) for claim_id in ids[20:30]]
        rows = service.translator.suite.feature_store.matrix(claims)
        expected = _corpus_fitted_rows(small_corpus, claims)
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()

    def test_service_fits_an_unfitted_translator_at_construction(self, small_corpus):
        translator = ClaimTranslator(small_corpus.database)
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(_config())
            .with_translator(translator)
            .with_checkers([_ConstantChecker(small_corpus)])
            .build_service()
        )
        claims = [small_corpus.claim(claim_id) for claim_id in small_corpus.claim_ids[:5]]
        rows = translator.suite.feature_store.matrix(claims)
        assert rows.tobytes() == _corpus_fitted_rows(small_corpus, claims).tobytes()
        service.submit(list(small_corpus.claim_ids)[:12])
        result = service.run_batch()
        assert result is not None and result.batch_size > 0
        assert translator.is_trained


class TestServiceBatchFrontDoor:
    def test_predict_pending_issues_no_per_claim_predicts(self, small_corpus):
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(_config())
            .with_checkers([_ConstantChecker(small_corpus)])
            .build_service()
        )
        service.warm_start()

        def forbidden(claim):  # pragma: no cover - failure path
            raise AssertionError("per-claim predict called on the hot path")

        service.translator.predict = forbidden
        pending = list(small_corpus.claim_ids)[:12]
        batch = service._predict_pending(pending)
        assert batch is not None
        assert batch.claim_ids == tuple(pending)
        assert len(service._batch_candidates(pending, batch)) == len(pending)

    def test_warm_run_batch_plans_from_the_batch_rows(self, small_corpus):
        """A whole warm batch — selection, plans, translation — predicts once.

        Every selected claim is planned and translated from its row of the
        one ``predict_many`` call over the pending pool; nothing predicts a
        single claim again.
        """
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(_config())
            .with_checkers([_ConstantChecker(small_corpus)])
            .build_service()
        )
        service.warm_start()
        translator = service.translator
        batches = []
        translations = []
        predict_many = translator.predict_many
        translate = translator.translate

        def forbidden(claim):  # pragma: no cover - failure path
            raise AssertionError("per-claim predict called inside run_batch")

        def counting_predict_many(claims):
            batches.append(predict_many(claims))
            return batches[-1]

        def recording_translate(claim, *args, **kwargs):
            translations.append((claim.claim_id, args[0]))
            return translate(claim, *args, **kwargs)

        translator.predict = forbidden
        translator.predict_many = counting_predict_many
        translator.translate = recording_translate
        service.submit(list(small_corpus.claim_ids)[:12])
        result = service.run_batch()
        assert result is not None and result.batch_size > 0
        assert len(batches) == 1
        assert [claim_id for claim_id, _ in translations] == list(result.claim_ids)
        for claim_id, predictions in translations:
            assert predictions == batches[0].predictions_for(claim_id)

    def test_backend_without_predict_many_is_refused(self, small_corpus):
        class LegacyBackend:
            """Every TranslationBackend member except predict_many."""

            @property
            def is_trained(self):
                return False

            def bootstrap(self, claims, truths=None):
                return self

            def retrain(self, claims, truths):
                return None

            def translate(self, claim, predictions, validated_context=None):
                raise AssertionError("never reached")

            def evaluate_accuracy(self, claims, truths, top_k=1):
                return {}

        builder = (
            ScrutinizerBuilder(small_corpus)
            .with_config(_config())
            .with_translator(LegacyBackend())
            .with_checkers([_ConstantChecker(small_corpus)])
        )
        with pytest.raises(ConfigurationError, match="predict_many"):
            builder.build_service()

    def test_retrain_seconds_counted_once(self, small_corpus):
        service = (
            ScrutinizerBuilder(small_corpus)
            .with_config(_config())
            .with_checkers([_ConstantChecker(small_corpus)])
            .build_service()
        )
        results = []
        service.on_batch_complete(results.append)
        service.run_to_completion(list(small_corpus.claim_ids)[:12])
        assert results
        for result in results:
            assert result.retrain_seconds >= 0.0
            assert result.planning_seconds >= 0.0
        # Every machine-time bucket lands in the report exactly once:
        # computation == sum of planning + retraining across batches.
        total = sum(r.planning_seconds + r.retrain_seconds for r in results)
        assert service.report.computation_seconds == pytest.approx(total, rel=1e-6)
