"""Checkpoint/restore: model state hooks and service snapshots.

The core guarantee under test: a run interrupted at any batch boundary and
resumed from its snapshot behaves *byte-identically* to an uninterrupted
run — same batch selections, same predictions, same verdicts, same
simulated seconds.  The property test exercises that across both
classifier backends (softmax and k-NN) and several interruption points.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.builder import ScrutinizerBuilder
from repro.config import BatchingConfig, ScrutinizerConfig
from repro.errors import SerializationError
from repro.ml import (
    KNearestNeighborsClassifier,
    SoftmaxRegressionClassifier,
    model_from_state,
)
from repro.ml.state import decode_array, encode_array
from repro.runtime.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    ServiceSnapshot,
    scrutinizer_config_from_dict,
    scrutinizer_config_to_dict,
)
from repro.synth.energy_data import EnergyDataConfig
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus
from repro.text.features import FeaturizerConfig
from repro.translation.classifiers import SuiteConfig
from repro.translation.preprocess import ClaimPreprocessor
from repro.translation.translator import ClaimTranslator

BACKENDS = ("softmax", "knn")

#: The ``parametric_threshold`` that pins each backend from the first fit:
#: softmax at once, k-NN for good, or the default auto rule (40 examples).
PARAMETRIC_THRESHOLDS = {"softmax": 1, "knn": 10**9, "auto": 40}


@pytest.fixture(scope="module")
def runtime_corpus():
    """A small corpus sized so service runs stay fast under hypothesis."""
    return generate_corpus(
        SyntheticCorpusConfig(
            claim_count=30,
            section_count=5,
            explicit_fraction=0.5,
            error_fraction=0.25,
            data=EnergyDataConfig(relation_count=8, rows_per_relation=10, seed=5),
            seed=4,
        )
    )


def _service_config() -> ScrutinizerConfig:
    return ScrutinizerConfig(
        batching=BatchingConfig(min_batch_size=1, max_batch_size=10),
        seed=19,
    )


def _make_service(corpus, backend: str):
    """A service whose translator is warm-started on a pinned backend."""
    config = _service_config()
    translator = ClaimTranslator(
        corpus.database,
        config=config.translation,
        preprocessor=ClaimPreprocessor(
            FeaturizerConfig(word_max_features=150, char_max_features=150)
        ),
        suite_config=SuiteConfig(parametric_threshold=PARAMETRIC_THRESHOLDS[backend]),
    )
    claims = [annotated.claim for annotated in corpus]
    truths = [annotated.ground_truth for annotated in corpus]
    translator.bootstrap(claims, truths)
    return (
        ScrutinizerBuilder(corpus)
        .with_config(config)
        .with_translator(translator)
        .build_service()
        .submit()
    )


# ---------------------------------------------------------------------- #
# model state hooks
# ---------------------------------------------------------------------- #
#: Training matrices of shape (60, 15) in three memory layouts.
TRAINING_LAYOUTS = (
    lambda rng: rng.random((60, 15)),
    lambda rng: rng.random((15, 60)).T,
    lambda rng: rng.random((120, 30))[::2, ::2],
)


@pytest.mark.parametrize(
    "make_model",
    [
        pytest.param(SoftmaxRegressionClassifier, id="SoftmaxRegressionClassifier"),
        pytest.param(KNearestNeighborsClassifier, id="KNearestNeighborsClassifier"),
    ],
)
def test_model_state_round_trip_is_byte_identical(make_model):
    rng = np.random.default_rng(3)
    labels = [f"label-{index % 5}" for index in range(60)]
    for layout in TRAINING_LAYOUTS:
        model = make_model().fit(layout(rng), labels)
        restored = model_from_state(json.loads(json.dumps(model.to_state())))
        queries = rng.random((20, 15))
        assert restored.classes == model.classes
        assert (
            restored.predict_proba_batch(queries.copy()).tobytes()
            == model.predict_proba_batch(queries.copy()).tobytes()
        )
        # The restored arrays are writeable: a warm-started softmax fit on
        # the same classes updates them in place, landing on the original's
        # bytes.
        more_features = rng.random((30, 15))
        model.fit(more_features, labels[:30])
        restored.fit(more_features, labels[:30])
        assert (
            restored.predict_proba_batch(queries).tobytes()
            == model.predict_proba_batch(queries).tobytes()
        )


#: Arrays whose every bit must survive the state encoding.
ENCODED_ARRAYS = {
    "non-finite": np.array([[np.nan, np.inf], [-np.inf, 1.5]]),
    "signed-zeros": np.array([-0.0, 0.0, -0.0]),
    "subnormals": np.array([5e-324, -2.5e-310, np.finfo(float).tiny / 3]),
    "zero-rows": np.zeros((0, 15)),
    "transposed": np.arange(12.0).reshape(3, 4).T,
    "sliced": np.arange(40.0).reshape(5, 8)[::2, 1::3],
    "int64-targets": np.array([3, 0, 2**40, -1], dtype=np.int64),
}


@pytest.mark.parametrize("array", ENCODED_ARRAYS.values(), ids=ENCODED_ARRAYS)
def test_encoded_array_round_trip_is_bit_exact(array):
    decoded = decode_array(json.loads(json.dumps(encode_array(array))), "field")
    assert decoded.dtype == array.dtype and decoded.shape == array.shape
    assert decoded.tobytes() == array.tobytes()
    assert decoded.flags.writeable and decoded.flags.owndata


_ENCODED = encode_array(np.arange(3.0))
#: Payloads the decoder must reject, each with a typed error.
MALFORMED_ARRAYS = {
    "float-list": [0.0, 1.0, 2.0],
    "invalid-base64": {**_ENCODED, "data": "not base64!"},
    "truncated-base64": {**_ENCODED, "data": _ENCODED["data"][:-1]},
    "byte-count-mismatch": {**_ENCODED, "shape": [4]},
    "float32": {**_ENCODED, "dtype": "<f4"},
    "big-endian": {**_ENCODED, "dtype": ">f8"},
    "unhashable-dtype": {**_ENCODED, "dtype": ["<f8"]},
    "negative-shape": {**_ENCODED, "shape": [-3]},
}


@pytest.mark.parametrize("payload", MALFORMED_ARRAYS.values(), ids=MALFORMED_ARRAYS)
def test_decode_array_rejects_malformed_payloads(payload):
    with pytest.raises(SerializationError, match="softmax.weights"):
        decode_array(payload, "softmax.weights")


def _number_lists_over(limit: int, value: object, path: str) -> list[str]:
    """Paths of the lists in ``value`` holding more than ``limit`` numbers
    (counted through nested lists, so a matrix counts all its cells)."""

    def numbers(item: object) -> int:
        if isinstance(item, list):
            return sum(numbers(element) for element in item)
        return int(isinstance(item, (int, float)) and not isinstance(item, bool))

    if isinstance(value, dict):
        return [
            found
            for key, item in value.items()
            for found in _number_lists_over(limit, item, f"{path}.{key}")
        ]
    if isinstance(value, list) and numbers(value) > limit:
        return [path]
    return []


def test_snapshot_model_arrays_are_not_float_lists(small_corpus, runtime_corpus):
    """Fitted arrays reach a snapshot binary-encoded, never as number lists.

    Bootstrapped on 90 claims the suite is past the softmax threshold (40
    examples); on 30 claims it is still on k-NN.
    """
    for corpus, kind in ((small_corpus, "softmax"), (runtime_corpus, "knn")):
        payload = _make_service(corpus, "auto").snapshot().to_dict()
        models = payload["translator"]["suite"]["models"]
        assert kind in {state["kind"] for state in models.values()}
        assert _number_lists_over(64, models, "models") == []


def test_model_state_unfitted_round_trip():
    model = SoftmaxRegressionClassifier(epochs=7, l2=0.5)
    restored = model_from_state(model.to_state())
    assert not restored.is_fitted
    assert restored.epochs == 7 and restored.l2 == 0.5


def test_model_from_state_rejects_unknown_kind():
    with pytest.raises(SerializationError):
        model_from_state({"kind": "gradient-boosted-mystery"})


def test_translator_state_round_trip_predicts_identically(small_corpus, trained_translator):
    state = json.loads(json.dumps(trained_translator.to_state()))
    restored = ClaimTranslator.from_state(
        small_corpus.database, state, small_corpus.claim
    )
    claims = [annotated.claim for annotated in small_corpus][:20]
    original = trained_translator.predict_many(claims)
    rebuilt = restored.predict_many(claims)
    for claim_property, batch in original.by_property.items():
        assert (
            batch.probabilities.tobytes()
            == rebuilt.by_property[claim_property].probabilities.tobytes()
        )
        assert batch.labels == rebuilt.by_property[claim_property].labels


# ---------------------------------------------------------------------- #
# config round trip
# ---------------------------------------------------------------------- #
def test_config_round_trip():
    config = _service_config()
    restored = scrutinizer_config_from_dict(
        json.loads(json.dumps(scrutinizer_config_to_dict(config)))
    )
    assert restored == config


def test_config_round_trip_preserves_none_options():
    config = ScrutinizerConfig(options_per_property=None)
    restored = scrutinizer_config_from_dict(scrutinizer_config_to_dict(config))
    assert restored.options_per_property is None


# ---------------------------------------------------------------------- #
# snapshot mechanics
# ---------------------------------------------------------------------- #
def test_snapshot_json_round_trip(runtime_corpus):
    service = _make_service(runtime_corpus, "softmax")
    service.run_batch()
    snapshot = service.snapshot(metadata={"note": "after batch 1"})
    restored = ServiceSnapshot.from_json(snapshot.to_json())
    assert restored == snapshot
    assert restored.metadata == {"note": "after batch 1"}
    assert restored.batch_index == 1
    assert restored.verified_count + restored.pending_count == runtime_corpus.claim_count


def test_snapshot_save_load(tmp_path, runtime_corpus):
    service = _make_service(runtime_corpus, "knn")
    service.run_batch()
    path = service.snapshot().save(tmp_path / "run.json")
    assert path.exists()
    assert ServiceSnapshot.load(path) == service.snapshot()


def test_snapshot_rejects_other_schema_versions(runtime_corpus):
    service = _make_service(runtime_corpus, "knn")
    payload = service.snapshot().to_dict()
    payload["schema_version"] = SNAPSHOT_SCHEMA_VERSION + 1
    with pytest.raises(SerializationError):
        ServiceSnapshot.from_dict(payload)


def test_snapshot_before_submit_restores_idle_service(runtime_corpus):
    config = _service_config()
    service = ScrutinizerBuilder(runtime_corpus).with_config(config).build_service()
    snapshot = service.snapshot()
    restored = ScrutinizerBuilder.from_snapshot(snapshot, runtime_corpus).build_service()
    assert restored.session is None
    assert restored.batches_run == 0
    assert restored.is_complete


# ---------------------------------------------------------------------- #
# the core guarantee
# ---------------------------------------------------------------------- #
@settings(max_examples=6, deadline=None)
@given(backend=st.sampled_from(BACKENDS), cut=st.integers(min_value=0, max_value=2))
def test_snapshot_restore_run_batch_is_byte_identical(runtime_corpus, backend, cut):
    """snapshot -> restore -> run_batch equals the uninterrupted run.

    Identical batch selections, byte-identical pending-pool predictions
    and equal verification records, across every backend and several
    interruption points.
    """
    reference = _make_service(runtime_corpus, backend)
    interrupted = _make_service(runtime_corpus, backend)
    for _ in range(cut):
        result_a = reference.run_batch()
        result_b = interrupted.run_batch()
        assert result_a.claim_ids == result_b.claim_ids
    snapshot = ServiceSnapshot.from_json(interrupted.snapshot().to_json())
    resumed = ScrutinizerBuilder.from_snapshot(snapshot, runtime_corpus).build_service()

    pending = [runtime_corpus.claim(cid) for cid in reference.session.pending_claim_ids]
    expected = reference.translator.predict_many(list(pending))
    actual = resumed.translator.predict_many(list(pending))
    for claim_property, batch in expected.by_property.items():
        assert (
            batch.probabilities.tobytes()
            == actual.by_property[claim_property].probabilities.tobytes()
        )

    result_a = reference.run_batch()
    result_b = resumed.run_batch()
    assert result_a.claim_ids == result_b.claim_ids
    assert result_a.solver == result_b.solver
    assert result_a.verifications == result_b.verifications
    assert result_a.seconds_spent == result_b.seconds_spent
    assert result_a.accuracy_by_property == result_b.accuracy_by_property


def test_interrupted_run_reaches_same_verified_set(runtime_corpus):
    """Acceptance: interrupt mid-stream, resume, match the straight run."""
    straight = _make_service(runtime_corpus, "softmax")
    straight_report = straight.run_to_completion()

    interrupted = _make_service(runtime_corpus, "softmax")
    interrupted.run_batch()
    snapshot_text = interrupted.snapshot().to_json()
    del interrupted  # the "crashed" process

    resumed = ScrutinizerBuilder.from_snapshot(
        ServiceSnapshot.from_json(snapshot_text), runtime_corpus
    ).build_service()
    resumed_report = resumed.run_to_completion()

    assert {v.claim_id for v in resumed_report.verifications} == {
        v.claim_id for v in straight_report.verifications
    }
    assert {v.claim_id: v.verdict for v in resumed_report.verifications} == {
        v.claim_id: v.verdict for v in straight_report.verifications
    }
    assert resumed_report.total_seconds == straight_report.total_seconds


def test_restored_service_accepts_new_submissions(runtime_corpus):
    """A warm restart keeps serving: new claims join the restored pool."""
    first_half = list(runtime_corpus.claim_ids)[:15]
    second_half = list(runtime_corpus.claim_ids)[15:]
    service = (
        ScrutinizerBuilder(runtime_corpus)
        .with_config(_service_config())
        .build_service()
        .submit(first_half)
    )
    service.run_to_completion()
    snapshot = service.snapshot()

    restored = ScrutinizerBuilder.from_snapshot(snapshot, runtime_corpus).build_service()
    assert restored.is_complete
    restored.submit(second_half)
    report = restored.run_to_completion()
    assert {v.claim_id for v in report.verifications} == set(runtime_corpus.claim_ids)
