"""Multi-tenant server: admission, scheduling, eviction and durability."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.api.service import VerificationService
from repro.config import BatchingConfig, ScrutinizerConfig
from repro.errors import (
    AdmissionError,
    BackpressureError,
    ClaimError,
    ConfigurationError,
    SerializationError,
    ServingError,
    UnknownTenantError,
)
from repro.runtime.snapshot import SNAPSHOT_SCHEMA_VERSION, SnapshotStore
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


def _verdicts(report):
    return {v.claim_id: v.verdict for v in report.verifications}


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


def test_server_rejects_zero_workers(serving_corpus):
    with pytest.raises(ConfigurationError):
        VerificationServer(serving_corpus, _config(), max_workers=0)


def test_registry_bound_rejects_new_tenants(serving_corpus):
    server = VerificationServer(
        serving_corpus, _config(), policy=AdmissionPolicy(max_tenants=2)
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


def test_refused_first_submission_holds_no_registry_slot(serving_corpus):
    """A new tenant is registered only once a submission is accepted."""
    server = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(
            max_tenants=2, max_queued_submissions=1, max_pending_claims_per_tenant=2
        ),
    )
    ids = list(serving_corpus.claim_ids)
    server.submit("a", [ids[0]])
    with pytest.raises(BackpressureError):
        server.submit("b", [ids[1]])
    assert server.tenant_ids == ("a",)
    server.run_round()
    with pytest.raises(AdmissionError):
        server.submit("c", ids[2:5])  # over the pending-claim quota
    assert server.tenant_ids == ("a",)
    assert server.stats.rejected_submissions == 2
    # Neither refusal took a slot, so the registry still has room.
    server.submit("d", [ids[5]])
    assert server.tenant_ids == ("a", "d")
    server.close()


def test_unknown_claims_and_tenants(serving_corpus):
    server = VerificationServer(serving_corpus, _config())
    with pytest.raises(ClaimError):
        server.submit("a", ["no-such-claim"])
    with pytest.raises(UnknownTenantError):
        server.report("never-admitted")
    assert server.submit("a", []) == 0
    server.close()


def test_closed_server_refuses_work(serving_corpus):
    server = VerificationServer(serving_corpus, _config())
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
    server = VerificationServer(serving_corpus, _config())
    assert server.run_round() == []
    assert server.run_until_idle() == []
    server.close()


# ---------------------------------------------------------------------- #
# eviction / rehydration
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("max_resident", [1, 2])
def test_lru_eviction_keeps_residency_bounded(serving_corpus, tmp_path, max_resident):
    tenants = _split(serving_corpus, 4)
    server = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=max_resident),
        snapshot_dir=tmp_path,
    )
    for tenant_id, claims in tenants.items():
        server.submit(tenant_id, claims)
    server.run_until_idle()
    assert server.stats.peak_resident <= max_resident
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
    )
    churning = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=1),
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
        serving_corpus, _config(), snapshot_dir=tmp_path
    )
    for tenant_id, claims in tenants.items():
        first.submit(tenant_id, claims)
    first.run_round()  # partial progress only
    first.close()  # passivates everything to disk

    second = VerificationServer(
        serving_corpus, _config(), snapshot_dir=tmp_path
    )
    adopted = second.adopt_tenants()
    assert set(adopted) == set(tenants)
    second.run_until_idle()
    for tenant_id, claims in tenants.items():
        assert second.verified_claim_ids(tenant_id) == tuple(sorted(claims))
    second.close()


def test_restart_of_finished_tenant_runs_nothing(serving_corpus, tmp_path):
    """A finished tenant is answered from its snapshot after a restart."""
    claims = _split(serving_corpus, 2)["t0"]
    first = VerificationServer(
        serving_corpus, _config(), snapshot_dir=tmp_path
    )
    first.submit("t0", claims)
    first.run_until_idle()
    verdicts = _verdicts(first.report("t0"))
    first.close()
    snapshot = first.store.path("t0")
    mtime = snapshot.stat().st_mtime_ns

    with VerificationServer(
        serving_corpus, _config(), snapshot_dir=tmp_path
    ) as second:
        assert second.adopt_tenants() == ("t0",)
        assert second.submit("t0", claims) == 0
        assert second.queued_submissions == 0 and second.is_idle
        second.run_until_idle()
        assert second.stats.sessions_started == 0
        assert second.stats.rehydrations == 0
        assert second.stats.batches == 0
        assert _verdicts(second.report("t0")) == verdicts
    # Nothing ran, so close() rewrote no snapshot.
    assert snapshot.stat().st_mtime_ns == mtime


def test_restart_after_lost_snapshot_reruns_only_that_tenant(serving_corpus, tmp_path):
    """A tenant whose snapshot is gone starts afresh; the others resume."""
    tenants = _split(serving_corpus, 2)
    with VerificationServer(serving_corpus, _config()) as straight:
        for tenant_id, claims in tenants.items():
            straight.submit(tenant_id, claims)
        straight.run_until_idle()
        expected = {tenant_id: _verdicts(straight.report(tenant_id)) for tenant_id in tenants}

    first = VerificationServer(
        serving_corpus, _config(), snapshot_dir=tmp_path
    )
    for tenant_id, claims in tenants.items():
        first.submit(tenant_id, claims)
    first.run_round()
    first.close()
    # As if t1 crashed before its snapshot ever reached the disk.
    first.store.path("t1").unlink()

    with VerificationServer(
        serving_corpus, _config(), snapshot_dir=tmp_path
    ) as second:
        for tenant_id, claims in tenants.items():
            second.submit(tenant_id, claims)
        second.run_until_idle()
        assert second.stats.sessions_started == 1
        for tenant_id in tenants:
            assert _verdicts(second.report(tenant_id)) == expected[tenant_id]


def test_claims_submitted_while_passivated_survive_restart(serving_corpus, tmp_path):
    """Claims parked on an evicted tenant reach its snapshot on close."""
    ids = list(serving_corpus.claim_ids)
    first = VerificationServer(
        serving_corpus, _config(), snapshot_dir=tmp_path
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
        serving_corpus, _config(), snapshot_dir=tmp_path
    )
    second.adopt_tenants()
    second.run_until_idle()
    assert second.verified_claim_ids("a") == tuple(sorted(ids[:12]))
    second.close()


def test_known_claims_cover_snapshots_and_submissions(serving_corpus, tmp_path):
    ids = list(serving_corpus.claim_ids)
    first = VerificationServer(
        serving_corpus, _config(), snapshot_dir=tmp_path
    )
    first.submit("a", ids[:8])
    assert first.known_claims("a") == frozenset(ids[:8])
    first.run_round()
    first.close()

    second = VerificationServer(
        serving_corpus, _config(), snapshot_dir=tmp_path
    )
    second.adopt_tenants()
    # Adopted from the snapshot: verified and pending claims alike.
    assert second.known_claims("a") == frozenset(ids[:8])
    second.submit("a", ids[6:10])
    assert second.known_claims("a") == frozenset(ids[:10])
    with pytest.raises(UnknownTenantError):
        second.known_claims("ghost")
    second.close()


def test_tenants_get_their_own_feature_store(serving_corpus):
    server = VerificationServer(serving_corpus, _config())
    ids = list(serving_corpus.claim_ids)
    server.submit("a", ids[:12])
    server.submit("b", ids[12:24])
    server.run_round()
    stores = [
        server._tenants[tenant_id].service.translator.suite.feature_store
        for tenant_id in ("a", "b")
    ]
    assert stores[0] is not stores[1], "tenants must not share a feature store"
    server.close()


# ---------------------------------------------------------------------- #
# snapshot store
# ---------------------------------------------------------------------- #
def test_snapshot_store_round_trip_and_key_mangling(serving_corpus, tmp_path):
    server = VerificationServer(
        serving_corpus, _config(), snapshot_dir=tmp_path / "s"
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


def test_snapshot_from_another_schema_version_fails_restart(
    serving_corpus, tmp_path, capsys
):
    """A restart must not skip a tenant snapshot it cannot read: replaying
    the journal into a cold session would overwrite it at passivation.

    Version 2 is the retired format whose session repeated the report's
    verifications, version 3 the one whose classifier suite still carried
    vocabulary-refit state, version 4 the one that still recorded whether
    accuracy was tracked, version 5 the one whose classifier suite and
    translator still carried feature-generation and key-column state; the
    next version is one this build predates.
    """
    first = VerificationServer(
        serving_corpus, _config(), snapshot_dir=tmp_path
    )
    first.submit("t0", serving_corpus.claim_ids[:4])
    first.run_round()
    first.close()
    store = SnapshotStore(tmp_path)
    path = store.path("t0")
    written = path.read_text()
    for version in (2, 3, 4, 5, SNAPSHOT_SCHEMA_VERSION + 1):
        payload = json.loads(written)
        payload["schema_version"] = version
        path.write_text(json.dumps(payload))
        names_both = rf"{path.name}.*version {version} \(expected {SNAPSHOT_SCHEMA_VERSION}\)"

        with pytest.raises(SerializationError, match=names_both):
            store.items()
        second = VerificationServer(
            serving_corpus, _config(), snapshot_dir=tmp_path
        )
        with pytest.raises(SerializationError, match=names_both):
            second.adopt_tenants()
        second.close()
        status = serving_main(["status", "--snapshot-dir", str(tmp_path)], out=io.StringIO())
        assert status == 1
        assert path.name in capsys.readouterr().err


def test_snapshot_carrying_store_manifest_fails_restart(serving_corpus, tmp_path):
    """A snapshot whose feature rows lived in the retired out-of-core store
    must not be resumed as if the key were absent."""
    first = VerificationServer(
        serving_corpus, _config(), snapshot_dir=tmp_path
    )
    first.submit("t0", serving_corpus.claim_ids[:4])
    first.run_round()
    first.close()
    store = SnapshotStore(tmp_path)
    path = store.path("t0")
    payload = json.loads(path.read_text())
    payload["store_manifest"] = {"directory": str(tmp_path / "rows")}
    path.write_text(json.dumps(payload))

    with pytest.raises(SerializationError, match=rf"{path.name}.*'store_manifest'"):
        store.items()


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
# rounds on the pool
# ---------------------------------------------------------------------- #
def test_scheduler_stats_surface_in_status(serving_corpus):
    """Steals count batches queued past the pool's width; waits are per tenant."""
    tenants = _split(serving_corpus, 4)
    server = VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=2),
        max_workers=1,
    )
    for tenant_id, claims in tenants.items():
        server.submit(tenant_id, claims)
    outcomes = server.run_round()
    # One worker: the round's second batch waited in the pool's queue.
    assert server.stats.steals == len(outcomes) - 1
    served = {outcome.tenant_id for outcome in outcomes}
    for tenant_id in tenants:
        status = server.tenant_status(tenant_id)
        if tenant_id in served:
            assert status.wait_rounds_total == 0
        else:
            # Unscheduled runnable tenants aged by one round.
            assert status.wait_rounds_total == 1
            assert status.wait_rounds_max == 1
    server.close()


def test_failed_batch_is_raised_after_the_round_is_booked(serving_corpus, monkeypatch):
    """A failing tenant does not leave another tenant's batch unbooked."""

    class _Boom(Exception):
        pass

    run_batch = VerificationService.run_batch

    def scripted(service):
        if service.system_name.endswith("/a"):
            raise _Boom("tenant a failed")
        time.sleep(0.2)
        return run_batch(service)

    monkeypatch.setattr(VerificationService, "run_batch", scripted)
    ids = list(serving_corpus.claim_ids)
    with VerificationServer(
        serving_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=2),
        max_workers=2,
    ) as server:
        server.submit("a", ids[:6])
        server.submit("b", ids[6:12])
        with pytest.raises(_Boom):
            server.run_round()
        assert server.tenant_status("b").batches_run == 1
        assert server.tenant_status("a").batches_run == 0


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
