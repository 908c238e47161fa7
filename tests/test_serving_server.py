"""Multi-tenant server: admission, scheduling, eviction and durability."""

from __future__ import annotations

import io
import json

import pytest

from repro.config import BatchingConfig, ScrutinizerConfig
from repro.errors import (
    AdmissionError,
    BackpressureError,
    ClaimError,
    ConfigurationError,
    ServingError,
    UnknownTenantError,
)
from repro.runtime.snapshot import SnapshotStore
from repro.serving.cli import main as serving_main
from repro.serving.cli import workload_corpus
from repro.serving.server import AdmissionPolicy, VerificationServer
from repro.serving.workloads import build_workload, drive_workload
from repro.synth.energy_data import EnergyDataConfig
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus


@pytest.fixture(scope="module")
def serving_corpus():
    return generate_corpus(
        SyntheticCorpusConfig(
            claim_count=36,
            section_count=6,
            explicit_fraction=0.5,
            error_fraction=0.25,
            data=EnergyDataConfig(relation_count=8, rows_per_relation=10, seed=4),
            seed=3,
        )
    )


def _config() -> ScrutinizerConfig:
    return ScrutinizerConfig(
        batching=BatchingConfig(min_batch_size=1, max_batch_size=6), seed=11
    )


def _split(corpus, tenant_count):
    allotments = [[] for _ in range(tenant_count)]
    for index, claim_id in enumerate(corpus.claim_ids):
        allotments[index % tenant_count].append(claim_id)
    return {f"t{index}": tuple(ids) for index, ids in enumerate(allotments)}


# ---------------------------------------------------------------------- #
# admission policy
# ---------------------------------------------------------------------- #
def test_policy_validation():
    with pytest.raises(ConfigurationError):
        AdmissionPolicy(max_tenants=0)
    with pytest.raises(ConfigurationError):
        AdmissionPolicy(max_resident_sessions=0)
    with pytest.raises(ConfigurationError):
        AdmissionPolicy(max_pending_claims_per_tenant=0)
    with pytest.raises(ConfigurationError):
        AdmissionPolicy(max_queued_submissions=0)
    with pytest.raises(ConfigurationError):
        AdmissionPolicy(max_cached_features_per_tenant=0)


def test_server_rejects_process_executor(serving_corpus):
    with pytest.raises(ConfigurationError):
        VerificationServer(serving_corpus, _config(), executor="process")


def test_registry_bound_rejects_new_tenants(serving_corpus):
    server = VerificationServer(
        serving_corpus, _config(), policy=AdmissionPolicy(max_tenants=2), executor="serial"
    )
    ids = list(serving_corpus.claim_ids)
    server.submit("a", [ids[0]])
    server.submit("b", [ids[1]])
    with pytest.raises(AdmissionError):
        server.submit("c", [ids[2]])
    # Known tenants keep submitting fine.
    server.submit("a", [ids[3]])
    assert server.stats.rejected_submissions == 1
    server.close()


def test_per_tenant_quota(serving_corpus):
    server = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_pending_claims_per_tenant=3),
        executor="serial",
    )
    ids = list(serving_corpus.claim_ids)
    server.submit("a", ids[:3])
    with pytest.raises(AdmissionError):
        server.submit("a", ids[3:4])
    # Another tenant has its own quota.
    server.submit("b", ids[3:6])
    # An idempotent retry of claims already in flight never double-counts
    # against the quota — it is a safe no-op, mirroring session semantics.
    assert server.submit("a", ids[:3]) == 0
    # Once claims are decided the quota frees up.
    server.run_until_idle()
    server.submit("a", ids[6:9])
    server.close()


def test_backpressure_when_queue_full(serving_corpus):
    server = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_queued_submissions=2),
        executor="serial",
    )
    ids = list(serving_corpus.claim_ids)
    server.submit("a", [ids[0]])
    server.submit("b", [ids[1]])
    with pytest.raises(BackpressureError):
        server.submit("c", [ids[2]])
    # A round drains the queue; the retry then succeeds.
    server.run_round()
    server.submit("c", [ids[2]])
    server.close()


def test_unknown_claims_and_tenants(serving_corpus):
    server = VerificationServer(serving_corpus, _config(), executor="serial")
    with pytest.raises(ClaimError):
        server.submit("a", ["no-such-claim"])
    with pytest.raises(UnknownTenantError):
        server.report("never-admitted")
    assert server.submit("a", []) == 0
    server.close()


def test_closed_server_refuses_work(serving_corpus):
    server = VerificationServer(serving_corpus, _config(), executor="serial")
    server.close()
    with pytest.raises(ServingError):
        server.submit("a", [serving_corpus.claim_ids[0]])
    with pytest.raises(ServingError):
        server.run_round()
    server.close()  # idempotent


# ---------------------------------------------------------------------- #
# scheduling
# ---------------------------------------------------------------------- #
def test_all_tenants_drain_to_their_exact_claim_sets(serving_corpus):
    tenants = _split(serving_corpus, 3)
    server = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=2),
        executor="thread",
    )
    for tenant_id, claims in tenants.items():
        server.submit(tenant_id, claims)
    outcomes = server.run_until_idle()
    assert server.is_idle
    assert outcomes, "at least one batch should have run"
    for tenant_id, claims in tenants.items():
        assert server.verified_claim_ids(tenant_id) == tuple(sorted(claims))
        status = server.tenant_status(tenant_id)
        assert status.is_complete
        assert status.verified_claims == len(claims)
    # Sessions are isolated: per-tenant reports only contain own claims.
    report = server.report("t0")
    assert {v.claim_id for v in report.verifications} == set(tenants["t0"])
    server.close()


def test_scheduler_is_fair_across_tenants(serving_corpus):
    tenants = _split(serving_corpus, 4)
    server = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=2),
        executor="serial",
    )
    for tenant_id, claims in tenants.items():
        server.submit(tenant_id, claims)
    first = {outcome.tenant_id for outcome in server.run_round()}
    second = {outcome.tenant_id for outcome in server.run_round()}
    # Two rounds at capacity 2 must have served all four tenants once.
    assert first | second == set(tenants)
    assert first.isdisjoint(second)
    server.close()


def test_run_round_on_idle_server_is_empty(serving_corpus):
    server = VerificationServer(serving_corpus, _config(), executor="serial")
    assert server.run_round() == []
    assert server.run_until_idle() == []
    server.close()


# ---------------------------------------------------------------------- #
# eviction / rehydration
# ---------------------------------------------------------------------- #
def test_lru_eviction_keeps_residency_bounded(serving_corpus, tmp_path):
    tenants = _split(serving_corpus, 4)
    server = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=1),
        executor="serial",
        snapshot_dir=tmp_path,
    )
    for tenant_id, claims in tenants.items():
        server.submit(tenant_id, claims)
    server.run_until_idle()
    assert server.stats.peak_resident <= 1
    assert server.stats.evictions > 0
    assert server.stats.rehydrations > 0
    for tenant_id, claims in tenants.items():
        assert server.verified_claim_ids(tenant_id) == tuple(sorted(claims))
    server.close()


def test_evicted_then_rehydrated_matches_resident_run(serving_corpus, tmp_path):
    """Acceptance: passivation round-trips to the same verified-claim set."""
    tenants = _split(serving_corpus, 2)
    resident = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=8),
        executor="serial",
    )
    churning = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=1),
        executor="serial",
        snapshot_dir=tmp_path,
    )
    for tenant_id, claims in tenants.items():
        resident.submit(tenant_id, claims)
        churning.submit(tenant_id, claims)
    # Force extra mid-run evictions on top of the LRU churn.
    churning.run_round()
    for tenant_id in tenants:
        churning.evict(tenant_id)
    resident.run_until_idle()
    churning.run_until_idle()
    for tenant_id in tenants:
        left = resident.report(tenant_id)
        right = churning.report(tenant_id)
        verdicts_left = {v.claim_id: v.verdict for v in left.verifications}
        verdicts_right = {v.claim_id: v.verdict for v in right.verifications}
        assert verdicts_left == verdicts_right
        assert resident.verified_claim_ids(tenant_id) == churning.verified_claim_ids(
            tenant_id
        )
    assert churning.stats.evictions > 0 and churning.stats.rehydrations > 0
    resident.close()
    churning.close()


def test_restart_over_snapshot_dir_resumes_tenants(serving_corpus, tmp_path):
    tenants = _split(serving_corpus, 2)
    first = VerificationServer(
        serving_corpus, _config(), executor="serial", snapshot_dir=tmp_path
    )
    for tenant_id, claims in tenants.items():
        first.submit(tenant_id, claims)
    first.run_round()  # partial progress only
    first.close()  # passivates everything to disk

    second = VerificationServer(
        serving_corpus, _config(), executor="serial", snapshot_dir=tmp_path
    )
    adopted = second.adopt_tenants()
    assert set(adopted) == set(tenants)
    second.run_until_idle()
    for tenant_id, claims in tenants.items():
        assert second.verified_claim_ids(tenant_id) == tuple(sorted(claims))
    second.close()


def test_claims_submitted_while_passivated_survive_restart(serving_corpus, tmp_path):
    """Claims parked on an evicted tenant reach its snapshot on close."""
    ids = list(serving_corpus.claim_ids)
    first = VerificationServer(
        serving_corpus, _config(), executor="serial", snapshot_dir=tmp_path
    )
    first.submit("a", ids[:6])
    first.run_round()
    first.evict("a")
    # Submitting to a passivated tenant buffers without rehydrating.
    rehydrations_before = first.stats.rehydrations
    first.submit("a", ids[6:10])
    first.run_round()  # drains the queue; "a" is scheduled and rehydrated
    assert first.stats.rehydrations == rehydrations_before + 1
    first.evict("a")
    first.submit("a", ids[10:12])  # parked again, never scheduled...
    first.close()  # ...so close() must flush it into the snapshot

    second = VerificationServer(
        serving_corpus, _config(), executor="serial", snapshot_dir=tmp_path
    )
    second.adopt_tenants()
    second.run_until_idle()
    assert second.verified_claim_ids("a") == tuple(sorted(ids[:12]))
    second.close()


def test_checkpoint_saves_without_evicting(serving_corpus, tmp_path):
    ids = list(serving_corpus.claim_ids)
    server = VerificationServer(
        serving_corpus, _config(), executor="serial", snapshot_dir=tmp_path
    )
    server.submit("a", ids[:12])
    server.run_round()
    assert server.checkpoint("a")
    status = server.tenant_status("a")
    assert status.resident and status.evictions == 0
    snapshot = server.store.load("a")
    assert snapshot.verified_count == status.verified_claims
    assert snapshot.pending_count == status.pending_claims
    # A passivated tenant's snapshot is already current: nothing to write.
    server.evict("a")
    assert not server.checkpoint("a")
    with pytest.raises(UnknownTenantError):
        server.checkpoint("ghost")
    server.close()

    memory_only = VerificationServer(serving_corpus, _config(), executor="serial")
    memory_only.submit("a", ids[:4])
    with pytest.raises(ServingError):
        memory_only.checkpoint("a")
    memory_only.close()


def test_known_claims_cover_snapshots_and_submissions(serving_corpus, tmp_path):
    ids = list(serving_corpus.claim_ids)
    first = VerificationServer(
        serving_corpus, _config(), executor="serial", snapshot_dir=tmp_path
    )
    first.submit("a", ids[:8])
    assert first.known_claims("a") == frozenset(ids[:8])
    first.run_round()
    first.close()

    second = VerificationServer(
        serving_corpus, _config(), executor="serial", snapshot_dir=tmp_path
    )
    second.adopt_tenants()
    # Adopted from the snapshot: verified and pending claims alike.
    assert second.known_claims("a") == frozenset(ids[:8])
    second.submit("a", ids[6:10])
    assert second.known_claims("a") == frozenset(ids[:10])
    with pytest.raises(UnknownTenantError):
        second.known_claims("ghost")
    second.close()


def test_feature_cache_cap_is_applied_per_tenant(serving_corpus):
    server = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_cached_features_per_tenant=5),
        executor="serial",
    )
    ids = list(serving_corpus.claim_ids)
    server.submit("a", ids[:12])
    server.submit("b", ids[12:24])
    server.run_round()
    stores = []
    for tenant_id in ("a", "b"):
        record = server._tenants[tenant_id]
        store = record.service.translator.suite.feature_store
        assert store.max_rows == 5
        assert store.cached_count <= 5
        stores.append(store)
    assert stores[0] is not stores[1], "tenants must not share a feature store"
    server.close()


# ---------------------------------------------------------------------- #
# snapshot store
# ---------------------------------------------------------------------- #
def test_snapshot_store_round_trip_and_key_mangling(serving_corpus, tmp_path):
    server = VerificationServer(
        serving_corpus, _config(), executor="serial", snapshot_dir=tmp_path / "s"
    )
    weird = "acme/EU tenant:01"
    server.submit(weird, serving_corpus.claim_ids[:3])
    server.run_until_idle()
    server.close()
    store = SnapshotStore(tmp_path / "s")
    assert store.keys() == (weird,)
    assert store.exists(weird)
    path = store.path(weird)
    assert path.parent == tmp_path / "s"
    assert "/" not in path.name and ":" not in path.name and " " not in path.name
    snapshot = store.load(weird)
    assert snapshot.is_complete
    assert store.delete(weird)
    assert not store.delete(weird)
    assert store.keys() == ()


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
def test_serving_cli_run_and_status(tmp_path):
    out = io.StringIO()
    report_path = tmp_path / "summary.json"
    code = serving_main(
        [
            "run",
            "--claims", "24",
            "--tenants", "3",
            "--seed", "5",
            "--batch-size", "6",
            "--max-resident", "2",
            "--executor", "serial",
            "--snapshot-dir", str(tmp_path / "tenants"),
            "--report", str(report_path),
        ],
        out=out,
    )
    assert code == 0
    text = out.getvalue()
    assert "served 24/24 claims" in text
    assert "p99" in text
    assert "scheduler:" in text and "steals" in text
    payload = json.loads(report_path.read_text())
    assert payload["verified"] == payload["claims"] == 24
    assert payload["claims_per_second"] > 0
    assert payload["p50_batch_latency_seconds"] <= payload["p99_batch_latency_seconds"]
    assert payload["scheduler"]["steals"] >= 0
    assert set(payload["by_tenant"]) == {"tenant-00", "tenant-01", "tenant-02"}

    status_out = io.StringIO()
    code = serving_main(
        ["status", "--snapshot-dir", str(tmp_path / "tenants")], out=status_out
    )
    assert code == 0
    assert "tenant-00" in status_out.getvalue()
    assert "0 pending" in status_out.getvalue()


def test_serving_cli_status_empty_dir(tmp_path):
    out = io.StringIO()
    assert serving_main(["status", "--snapshot-dir", str(tmp_path)], out=out) == 0
    assert "no tenant snapshots" in out.getvalue()


def test_serving_cli_status_rejects_missing_dir(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    out = io.StringIO()
    assert serving_main(["status", "--snapshot-dir", str(missing)], out=out) == 1
    assert out.getvalue() == ""
    assert str(missing) in capsys.readouterr().err


def test_serving_cli_rerun_resumes_a_staged_run(tmp_path):
    """A rerun over the same snapshot directory finishes a stopped run."""
    args = [
        "run",
        "--claims", "24",
        "--tenants", "3",
        "--seed", "5",
        "--batch-size", "6",
        "--max-resident", "2",
        "--executor", "serial",
    ]
    corpus = workload_corpus(24, 5)
    staged = VerificationServer(
        corpus,
        ScrutinizerConfig(
            checker_count=3,
            options_per_property=10,
            batching=BatchingConfig(min_batch_size=1, max_batch_size=6),
            seed=5,
        ),
        policy=AdmissionPolicy(max_tenants=3, max_resident_sessions=2),
        executor="serial",
        snapshot_dir=tmp_path / "resumed",
    )
    partial = drive_workload(
        staged, build_workload(corpus.claim_ids, tenant_count=3, seed=5), max_rounds=1
    )
    staged.close()
    assert partial.verified_count < 24

    for directory in ("resumed", "straight"):
        out = io.StringIO()
        code = serving_main([*args, "--snapshot-dir", str(tmp_path / directory)], out=out)
        assert code == 0
        assert "served 24/24 claims" in out.getvalue()

    def verdicts(directory):
        return {
            key: snapshot.verdicts
            for key, snapshot in SnapshotStore(tmp_path / directory).items()
        }

    assert verdicts("resumed") == verdicts("straight")
    assert sum(len(tenant) for tenant in verdicts("straight").values()) == 24


# ---------------------------------------------------------------------- #
# work-stealing scheduler
# ---------------------------------------------------------------------- #
def test_scheduler_stats_surface_in_status(serving_corpus):
    """Steals, waits and deadline boosts are visible per tenant."""
    tenants = _split(serving_corpus, 4)
    server = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=2),
        executor="serial",
    )
    for tenant_id, claims in tenants.items():
        server.submit(tenant_id, claims)
    outcomes = server.run_round()
    # The serial pool has width 1: the second scheduled tenant of the
    # round was dispatched into a freed slot, i.e. stolen.
    assert sum(1 for outcome in outcomes if outcome.stolen) == len(outcomes) - 1
    assert server.stats.steals == len(outcomes) - 1
    served = {outcome.tenant_id for outcome in outcomes}
    for tenant_id in tenants:
        status = server.tenant_status(tenant_id)
        if tenant_id in served:
            assert status.steals + int(tenant_id == outcomes[0].tenant_id) >= 1
            assert status.wait_rounds_total == 0
        else:
            # Unscheduled runnable tenants aged by one round.
            assert status.wait_rounds_total == 1
            assert status.wait_rounds_max == 1
    server.run_until_idle()
    status = server.status()
    assert status.stats.steals >= server.stats.steals
    assert status.stats.deadline_boosts >= 0
    server.close()


def test_serving_cli_zipf_run(tmp_path):
    out = io.StringIO()
    report_path = tmp_path / "zipf.json"
    code = serving_main(
        [
            "run",
            "--claims", "24",
            "--tenants", "6",
            "--seed", "5",
            "--batch-size", "6",
            "--max-resident", "3",
            "--executor", "serial",
            "--zipf", "1.1",
            "--report", str(report_path),
        ],
        out=out,
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["tenants"] == 6
    assert payload["verified"] == payload["claims"]
    # Zipf traffic is heavy-tailed: the hot tenant submits the most.
    submitted = [entry["submitted"] for entry in payload["by_tenant"].values()]
    assert max(submitted) == payload["by_tenant"]["tenant-000"]["submitted"]
