"""Sharded runs on the verification server: partition, merge and resume."""

from __future__ import annotations

import pytest

from repro.config import BatchingConfig, ScrutinizerConfig
from repro.errors import ConfigurationError
from repro.serving.server import VerificationServer
from repro.serving.sharding import (
    merge_shard_reports,
    reconcile_translator,
    run_sharded,
    shard_claims,
)
from repro.synth.energy_data import EnergyDataConfig
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus


@pytest.fixture(scope="module")
def shard_corpus():
    return generate_corpus(
        SyntheticCorpusConfig(
            claim_count=40,
            section_count=6,
            explicit_fraction=0.5,
            error_fraction=0.25,
            data=EnergyDataConfig(relation_count=8, rows_per_relation=10, seed=9),
            seed=8,
        )
    )


def _config() -> ScrutinizerConfig:
    return ScrutinizerConfig(
        batching=BatchingConfig(min_batch_size=1, max_batch_size=10), seed=13
    )


def _run(corpus, shard_count, *, executor="serial", snapshot_dir=None, max_rounds=None):
    """A sharded run on a fresh server, plus each shard tenant's report."""
    with VerificationServer(
        corpus, _config(), executor=executor, snapshot_dir=snapshot_dir
    ) as server:
        merged = run_sharded(
            server, corpus.claim_ids, shard_count, max_rounds=max_rounds
        )
        shards = [server.report(tenant_id) for tenant_id in sorted(server.tenant_ids)]
    return merged, shards


def _verdicts(report):
    return {v.claim_id: v.verdict for v in report.verifications}


@pytest.fixture(scope="module")
def straight(shard_corpus):
    merged, _ = _run(shard_corpus, 3)
    return merged


# ---------------------------------------------------------------------- #
# partitioning
# ---------------------------------------------------------------------- #
def test_shard_claims_partitions_completely(shard_corpus):
    ids = list(shard_corpus.claim_ids)
    shards = shard_claims(ids, 4)
    assert len(shards) == 4
    flattened = [claim_id for shard in shards for claim_id in shard]
    assert sorted(flattened) == sorted(ids)
    # Within a shard the document order is preserved.
    position = {claim_id: index for index, claim_id in enumerate(ids)}
    for shard in shards:
        assert list(shard) == sorted(shard, key=position.__getitem__)


def test_shard_claims_is_stable(shard_corpus):
    ids = list(shard_corpus.claim_ids)
    assert shard_claims(ids, 3) == shard_claims(ids, 3)
    # The key is content-based, not enumeration-based: shuffling the input
    # moves no claim to a different shard.
    shuffled = list(reversed(ids))
    direct = {cid: index for index, shard in enumerate(shard_claims(ids, 3)) for cid in shard}
    rotated = {
        cid: index for index, shard in enumerate(shard_claims(shuffled, 3)) for cid in shard
    }
    assert direct == rotated


def test_shard_claims_rejects_bad_counts():
    with pytest.raises(ConfigurationError):
        shard_claims(["c1"], 0)


def test_single_shard_contains_everything(shard_corpus):
    shards = shard_claims(list(shard_corpus.claim_ids), 1)
    assert shards == [tuple(shard_corpus.claim_ids)]


# ---------------------------------------------------------------------- #
# running and merging
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("executor", ["serial", "thread"])
def test_sharded_run_verifies_every_claim_once(shard_corpus, executor):
    merged, shards = _run(shard_corpus, 3, executor=executor)
    claim_ids = [v.claim_id for v in merged.verifications]
    assert sorted(claim_ids) == sorted(shard_corpus.claim_ids)
    assert len(set(claim_ids)) == len(claim_ids)
    assert len(shards) == 3
    # Machine time sums over shards.
    assert merged.computation_seconds == pytest.approx(
        sum(shard.computation_seconds for shard in shards)
    )


def test_sharded_run_is_deterministic(shard_corpus, straight):
    again, _ = _run(shard_corpus, 3)
    assert [v.claim_id for v in again.verifications] == [
        v.claim_id for v in straight.verifications
    ]
    assert _verdicts(again) == _verdicts(straight)
    # Each shard is its own seeded session, so the pool kind cannot matter.
    threaded, _ = _run(shard_corpus, 3, executor="thread")
    assert _verdicts(threaded) == _verdicts(straight)
    assert threaded.total_seconds == pytest.approx(straight.total_seconds)


def test_merge_orders_by_round_then_shard(shard_corpus, straight):
    shard_of = {
        claim_id: index
        for index, shard in enumerate(shard_claims(shard_corpus.claim_ids, 3))
        for claim_id in shard
    }
    keys = [(v.batch_index, shard_of[v.claim_id]) for v in straight.verifications]
    assert keys == sorted(keys)


def test_merge_averages_accuracy_history(shard_corpus):
    merged, shards = _run(shard_corpus, 2)
    rounds = max(len(shard.accuracy_history) for shard in shards)
    assert len(merged.accuracy_history) == rounds
    for round_index, entry in enumerate(merged.accuracy_history):
        contributions = [
            shard.accuracy_history[round_index]
            for shard in shards
            if round_index < len(shard.accuracy_history)
        ]
        for series, value in entry.items():
            values = [c[series] for c in contributions if series in c]
            assert value == pytest.approx(sum(values) / len(values))


def test_merge_shard_reports_empty():
    merged = merge_shard_reports([], system_name="empty", checker_count=1)
    assert merged.claim_count == 0
    assert merged.accuracy_history == []


def test_reconciled_translator_predicts(shard_corpus, straight):
    translator = reconcile_translator(shard_corpus, _config(), straight)
    assert translator is not None and translator.is_trained
    predictions = translator.predict(shard_corpus.claim(shard_corpus.claim_ids[0]))
    assert len(predictions) == 4
    # The merged report covers the whole corpus, so every claim trains it.
    assert translator.suite.example_count == shard_corpus.claim_count
    empty = merge_shard_reports([], system_name="empty", checker_count=1)
    assert reconcile_translator(shard_corpus, _config(), empty) is None


# ---------------------------------------------------------------------- #
# checkpoint / resume by rerunning
# ---------------------------------------------------------------------- #
def test_interrupted_sharded_run_resumes_to_same_result(tmp_path, shard_corpus, straight):
    """Acceptance: stop after one round, rerun, match the straight run."""
    partial, _ = _run(shard_corpus, 3, snapshot_dir=tmp_path, max_rounds=1)
    assert partial.claim_count < shard_corpus.claim_count
    assert sorted(path.name for path in tmp_path.glob("shard-*.json")) == [
        "shard-0.json",
        "shard-1.json",
        "shard-2.json",
    ]

    resumed, _ = _run(shard_corpus, 3, snapshot_dir=tmp_path)
    assert _verdicts(resumed) == _verdicts(straight)
    assert resumed.total_seconds == pytest.approx(straight.total_seconds)


def test_resume_of_completed_run_is_a_no_op(tmp_path, shard_corpus):
    finished, _ = _run(shard_corpus, 2, snapshot_dir=tmp_path)
    resumed, _ = _run(shard_corpus, 2, snapshot_dir=tmp_path)
    assert _verdicts(resumed) == _verdicts(finished)


def test_resume_folds_completed_shards_without_rerunning(tmp_path, shard_corpus):
    """Completed shards come back from their snapshots, not from services."""
    _run(shard_corpus, 2, snapshot_dir=tmp_path)
    mtimes = {path.name: path.stat().st_mtime_ns for path in tmp_path.glob("shard-*.json")}
    with VerificationServer(
        shard_corpus, _config(), executor="serial", snapshot_dir=tmp_path
    ) as server:
        resumed = run_sharded(server, shard_corpus.claim_ids, 2)
        assert server.stats.rehydrations == 0
        assert server.stats.sessions_started == 0
        assert server.stats.batches == 0
    # No shard was re-executed, so no snapshot was rewritten...
    assert {
        path.name: path.stat().st_mtime_ns for path in tmp_path.glob("shard-*.json")
    } == mtimes
    # ...yet the merge still carries every claim and reconciles the model.
    assert sorted(v.claim_id for v in resumed.verifications) == sorted(
        shard_corpus.claim_ids
    )
    translator = reconcile_translator(shard_corpus, _config(), resumed)
    assert translator is not None and translator.is_trained


def test_resume_reruns_shards_that_never_checkpointed(tmp_path, shard_corpus, straight):
    """A crash before a shard's first checkpoint must not drop its claims."""
    _run(shard_corpus, 3, snapshot_dir=tmp_path, max_rounds=1)
    # Simulate a crash that happened before shard 1 ever wrote a snapshot.
    (tmp_path / "shard-1.json").unlink()

    with VerificationServer(
        shard_corpus, _config(), executor="serial", snapshot_dir=tmp_path
    ) as server:
        resumed = run_sharded(server, shard_corpus.claim_ids, 3)
        # Only shard 1 starts a fresh session; the others resume.
        assert server.stats.sessions_started == 1
    assert _verdicts(resumed) == _verdicts(straight)


def test_killed_run_resumes_from_per_round_checkpoints(tmp_path, shard_corpus, straight):
    """Without ``close()`` only the per-round checkpoints survive a kill."""
    killed = VerificationServer(
        shard_corpus, _config(), executor="serial", snapshot_dir=tmp_path
    )
    run_sharded(killed, shard_corpus.claim_ids, 3, max_rounds=1)
    # Every shard ran in the first round, so every shard left a snapshot
    # while its session is still resident.
    assert killed.resident_count == 3
    assert sorted(path.name for path in tmp_path.glob("shard-*.json")) == [
        "shard-0.json",
        "shard-1.json",
        "shard-2.json",
    ]

    resumed, _ = _run(shard_corpus, 3, snapshot_dir=tmp_path)
    assert _verdicts(resumed) == _verdicts(straight)
    assert resumed.total_seconds == pytest.approx(straight.total_seconds)
