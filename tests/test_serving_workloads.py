"""Workload generator: deterministic scripts, scenario shapes, driving."""

from __future__ import annotations

import pytest

from repro.config import BatchingConfig, ScrutinizerConfig
from repro.errors import ConfigurationError
from repro.serving.server import AdmissionPolicy, VerificationServer
from repro.serving.workloads import (
    SCENARIO_KINDS,
    build_workload,
    build_zipf_workload,
    drive_workload,
)
from repro.synth.energy_data import EnergyDataConfig
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus


@pytest.fixture(scope="module")
def workload_corpus():
    return generate_corpus(
        SyntheticCorpusConfig(
            claim_count=30,
            section_count=5,
            explicit_fraction=0.5,
            error_fraction=0.25,
            data=EnergyDataConfig(relation_count=8, rows_per_relation=10, seed=6),
            seed=5,
        )
    )


def _config() -> ScrutinizerConfig:
    return ScrutinizerConfig(
        batching=BatchingConfig(min_batch_size=1, max_batch_size=5), seed=19
    )


# ---------------------------------------------------------------------- #
# generation
# ---------------------------------------------------------------------- #
def test_workload_partitions_claims_disjointly(workload_corpus):
    workload = build_workload(workload_corpus.claim_ids, tenant_count=4, seed=2)
    allotted = [
        claim_id
        for scenario in workload.scenarios
        for claim_id in scenario.claim_ids
    ]
    assert sorted(allotted) == sorted(workload_corpus.claim_ids)
    assert len(set(allotted)) == len(allotted)
    assert workload.claim_count == workload_corpus.claim_count


def test_workload_is_deterministic(workload_corpus):
    first = build_workload(workload_corpus.claim_ids, tenant_count=5, seed=9)
    second = build_workload(workload_corpus.claim_ids, tenant_count=5, seed=9)
    assert first == second
    different = build_workload(workload_corpus.claim_ids, tenant_count=5, seed=10)
    assert first.submissions != different.submissions


def test_workload_scenario_shapes(workload_corpus):
    workload = build_workload(
        workload_corpus.claim_ids, tenant_count=6, seed=3, mix=SCENARIO_KINDS
    )
    kinds = {scenario.tenant_id: scenario.kind for scenario in workload.scenarios}
    assert set(kinds.values()) == set(SCENARIO_KINDS)
    by_tenant: dict[str, list] = {}
    for event in workload.submissions:
        by_tenant.setdefault(event.tenant_id, []).append(event)
    for scenario in workload.scenarios:
        events = by_tenant[scenario.tenant_id]
        submitted = [cid for event in events for cid in event.claim_ids]
        assert sorted(submitted) == sorted(scenario.claim_ids)
        if scenario.kind == "bursty":
            assert len(events) == 1
        elif scenario.kind == "steady":
            assert len(events) > 1
            assert len({event.round_index for event in events}) == len(events)
    crashed = {event.tenant_id for event in workload.crashes}
    assert crashed == {
        scenario.tenant_id
        for scenario in workload.scenarios
        if scenario.kind == "resume"
    }


def test_workload_validation(workload_corpus):
    with pytest.raises(ConfigurationError):
        build_workload(workload_corpus.claim_ids, tenant_count=0)
    with pytest.raises(ConfigurationError):
        build_workload([], tenant_count=2)
    with pytest.raises(ConfigurationError):
        build_workload(workload_corpus.claim_ids, tenant_count=2, mix=("nope",))
    with pytest.raises(ConfigurationError):
        build_workload(workload_corpus.claim_ids, tenant_count=2, mix=())


def test_more_tenants_than_claims_skips_empty_allotments():
    workload = build_workload(["c1", "c2"], tenant_count=5, seed=1)
    assert workload.tenant_count == 2
    assert workload.claim_count == 2


# ---------------------------------------------------------------------- #
# driving
# ---------------------------------------------------------------------- #
def test_drive_workload_serves_every_scenario(workload_corpus, tmp_path):
    workload = build_workload(workload_corpus.claim_ids, tenant_count=3, seed=4)
    server = VerificationServer(
        workload_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=2),
        snapshot_dir=tmp_path,
    )
    result = drive_workload(server, workload)
    assert result.verified_count == workload.claim_count
    for scenario in workload.scenarios:
        assert result.verified_by_tenant[scenario.tenant_id] == tuple(
            sorted(scenario.claim_ids)
        )
    assert result.rounds > 0
    assert len(result.batch_latencies) == len(result.outcomes)
    assert all(latency >= 0 for latency in result.batch_latencies)
    # The resume scenario actually exercised passivation.
    assert server.stats.evictions > 0
    server.close()


def test_drive_workload_chunks_quota_rejected_bursts(workload_corpus):
    """A burst bigger than the quota is halved and retried, not fatal."""
    workload = build_workload(
        workload_corpus.claim_ids, tenant_count=3, seed=4, mix=("bursty", "resume")
    )
    burst = max(scenario.claim_count for scenario in workload.scenarios)
    server = VerificationServer(
        workload_corpus,
        _config(),
        policy=AdmissionPolicy(max_pending_claims_per_tenant=max(2, burst // 2)),
    )
    result = drive_workload(server, workload)
    assert result.deferred_submissions > 0
    assert result.verified_count == workload.claim_count
    server.close()


def test_drive_workload_retries_backpressured_submissions(workload_corpus):
    workload = build_workload(
        workload_corpus.claim_ids, tenant_count=6, seed=4, mix=("steady",)
    )
    server = VerificationServer(
        workload_corpus,
        _config(),
        policy=AdmissionPolicy(max_queued_submissions=1, max_resident_sessions=2),
    )
    result = drive_workload(server, workload)
    assert result.deferred_submissions > 0
    assert result.verified_count == workload.claim_count
    server.close()


def test_drive_workload_crash_before_first_admission(workload_corpus):
    """A crash scripted for a tenant still refused by backpressure is a no-op."""
    workload = build_workload(
        workload_corpus.claim_ids, tenant_count=4, seed=4, mix=("resume",)
    )
    server = VerificationServer(
        workload_corpus,
        _config(),
        policy=AdmissionPolicy(max_queued_submissions=1),
    )
    result = drive_workload(server, workload)
    assert result.deferred_submissions > 0
    assert result.verified_count == workload.claim_count
    server.close()


def test_drive_workload_stopped_before_an_arrival(workload_corpus):
    """A staged run reports nothing, rather than failing, for late tenants."""
    workload = build_workload(workload_corpus.claim_ids, tenant_count=3, seed=5)
    late = [
        event.tenant_id for event in workload.submissions if event.round_index > 0
    ]
    early = {event.tenant_id for event in workload.submissions if event.round_index == 0}
    unadmitted = set(late) - early
    assert unadmitted, "the script must have a tenant arriving after round 0"
    server = VerificationServer(workload_corpus, _config())
    result = drive_workload(server, workload, max_rounds=1)
    assert result.rounds == 1
    assert set(result.verified_by_tenant) == {s.tenant_id for s in workload.scenarios}
    for tenant_id in unadmitted:
        assert result.verified_by_tenant[tenant_id] == ()
    assert 0 < result.verified_count < workload.claim_count
    server.close()


# ---------------------------------------------------------------------- #
# zipf generation
# ---------------------------------------------------------------------- #
def test_zipf_workload_is_deterministic_and_heavy_tailed(workload_corpus):
    first = build_zipf_workload(
        workload_corpus.claim_ids, tenant_count=8, seed=7, total_claims=60
    )
    second = build_zipf_workload(
        workload_corpus.claim_ids, tenant_count=8, seed=7, total_claims=60
    )
    assert first == second
    assert first.tenant_count == 8
    counts = [scenario.claim_count for scenario in first.scenarios]
    # Rank 0 is the hot tenant; the tail still gets at least one claim.
    assert counts[0] == max(counts)
    assert counts == sorted(counts, reverse=True)
    assert min(counts) >= 1
    # Claims are drawn with reuse across tenants but never within one.
    for scenario in first.scenarios:
        assert len(set(scenario.claim_ids)) == len(scenario.claim_ids)
        assert set(scenario.claim_ids) <= set(workload_corpus.claim_ids)
    # Bursty arrivals land in the thundering-herd window.
    assert all(0 <= event.round_index < 4 for event in first.submissions)
    assert not first.crashes


def test_zipf_workload_validation(workload_corpus):
    with pytest.raises(ConfigurationError):
        build_zipf_workload(workload_corpus.claim_ids, tenant_count=0)
    with pytest.raises(ConfigurationError):
        build_zipf_workload([], tenant_count=2)
    with pytest.raises(ConfigurationError):
        build_zipf_workload(workload_corpus.claim_ids, tenant_count=2, exponent=0.0)
    with pytest.raises(ConfigurationError):
        # The budget cannot give every tenant its guaranteed claim.
        build_zipf_workload(
            workload_corpus.claim_ids, tenant_count=8, total_claims=4
        )


def test_zipf_more_tenants_than_claims_still_serves_everyone():
    workload = build_zipf_workload(["c1", "c2", "c3"], tenant_count=6, seed=2)
    assert workload.tenant_count == 6
    assert all(scenario.claim_count >= 1 for scenario in workload.scenarios)


def test_drive_zipf_workload_verifies_every_submission(workload_corpus):
    """Shared claims verify once per *tenant*: sessions are isolated."""
    workload = build_zipf_workload(
        workload_corpus.claim_ids, tenant_count=6, seed=3, total_claims=48
    )
    server = VerificationServer(
        workload_corpus,
        _config(),
        policy=AdmissionPolicy(max_resident_sessions=3, max_queued_submissions=24),
    )
    result = drive_workload(server, workload)
    assert result.verified_count == workload.claim_count
    for scenario in workload.scenarios:
        assert result.verified_by_tenant[scenario.tenant_id] == tuple(
            sorted(scenario.claim_ids)
        )
    server.close()
