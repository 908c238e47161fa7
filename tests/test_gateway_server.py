"""In-process gateway tests: durable acks, typed shedding, crash recovery.

Async tests run under ``asyncio.run`` inside sync test functions (the
suite has no asyncio plugin).  The crash tests use
:meth:`GatewayServer.abort` — stop without passivation or a final
commit — as the in-process stand-in for ``SIGKILL``; the subprocess
variant lives in ``test_gateway_e2e.py``.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.api.service import VerificationService
from repro.config import BatchingConfig, ScrutinizerConfig
from repro.errors import (
    AdmissionError,
    BackpressureError,
    ClaimError,
    UnknownTenantError,
)
from repro.gateway.client import GatewayClient, drive_workload_through_gateway
from repro.gateway.journal import JournalWriter, scan_journal
from repro.gateway.server import GatewayServer, recover_server
from repro.runtime.snapshot import ServiceSnapshot, SnapshotStore
from repro.serving.cli import workload_corpus
from repro.serving.server import AdmissionPolicy, VerificationServer
from repro.serving.workloads import build_workload

_SEED = 11


@pytest.fixture(scope="module")
def gateway_corpus():
    return workload_corpus(24, _SEED)


@pytest.fixture(scope="module")
def gateway_config():
    return ScrutinizerConfig(
        checker_count=3,
        options_per_property=10,
        batching=BatchingConfig(min_batch_size=1, max_batch_size=6),
        seed=_SEED,
    )


def _gateway(corpus, config, base_dir, **kwargs):
    kwargs.setdefault("journal_dir", base_dir / "wal")
    kwargs.setdefault("flush_interval", 0.0)
    return GatewayServer(corpus, config, **kwargs)


async def _pump_to_idle(gateway: GatewayServer) -> None:
    """Step a manually-pumped gateway until the engine drains."""
    for _ in range(64):
        report = await gateway.pump_once()
        if report.idle and not gateway.backlog_size:
            return
    raise AssertionError("gateway did not drain in 64 pumps")


def _verdict_map(server: VerificationServer) -> dict[str, dict[str, bool | None]]:
    return {
        tenant_id: {
            verification.claim_id: verification.verdict
            for verification in server.report(tenant_id).verifications
        }
        for tenant_id in sorted(server.tenant_ids)
    }


class TestAckDurability:
    def test_ack_means_journaled_before_any_processing(
        self, gateway_corpus, gateway_config, tmp_path
    ):
        async def run():
            gateway = _gateway(gateway_corpus, gateway_config, tmp_path, auto_pump=False)
            await gateway.start()
            try:
                async with await GatewayClient.connect("127.0.0.1", gateway.port) as client:
                    ids = list(gateway_corpus.claim_ids)[:5]
                    ack = await client.submit("alpha", ids)
                    assert ack["accepted"] == 5
                    assert ack["seq"] == 0
                    # The ack already implies a committed journal record;
                    # nothing has touched the engine yet.
                    scan = scan_journal(gateway.journal.directory)
                    assert [record.seq for record in scan.records] == [0]
                    assert scan.records[0].claim_ids == tuple(ids)
                    assert gateway.backlog_size == 1
                    assert gateway.stats.rounds == 0
                    report = await gateway.pump_once()
                    assert report.ran_round
                    status = await client.status()
                    assert status["journal"]["records_committed"] == 1
            finally:
                await gateway.stop()

        asyncio.run(run())

    def test_concurrent_acks_group_commit(self, gateway_corpus, gateway_config, tmp_path):
        async def run():
            gateway = _gateway(
                gateway_corpus,
                gateway_config,
                tmp_path,
                auto_pump=False,
                flush_interval=0.05,
            )
            await gateway.start()
            try:
                ids = list(gateway_corpus.claim_ids)
                # One connection per tenant: frames on a single connection
                # dispatch sequentially, so overlap needs parallel clients.
                clients = await asyncio.gather(
                    *(
                        GatewayClient.connect("127.0.0.1", gateway.port)
                        for _ in range(6)
                    )
                )
                try:
                    acks = await asyncio.gather(
                        *(
                            client.submit(f"tenant-{index}", [ids[index]])
                            for index, client in enumerate(clients)
                        )
                    )
                finally:
                    for client in clients:
                        await client.close()
                assert sorted(ack["seq"] for ack in acks) == list(range(6))
                stats = gateway.journal.stats()
                assert stats["records_committed"] == 6
                # Group commit: six concurrent acks, fewer fsyncs.
                assert stats["commits"] < 6
            finally:
                await gateway.stop()

        asyncio.run(run())


class TestEdgeAdmission:
    def test_typed_shedding_at_the_edge(self, gateway_corpus, gateway_config, tmp_path):
        async def run():
            policy = AdmissionPolicy(
                max_tenants=2,
                max_resident_sessions=2,
                max_pending_claims_per_tenant=6,
                max_queued_submissions=2,
            )
            gateway = _gateway(
                gateway_corpus, gateway_config, tmp_path, policy=policy, auto_pump=False
            )
            await gateway.start()
            try:
                async with await GatewayClient.connect("127.0.0.1", gateway.port) as client:
                    ids = list(gateway_corpus.claim_ids)
                    with pytest.raises(ClaimError):
                        await client.submit("t1", ["no-such-claim"])
                    await client.submit("t1", ids[:4])
                    await client.submit("t1", ids[4:6])
                    with pytest.raises(AdmissionError) as excinfo:
                        await client.submit("t1", ids[6:7])
                    assert "quota" in str(excinfo.value)
                    with pytest.raises(BackpressureError):
                        await client.submit("t2", ids[6:7])
                    # Rejections never reach the tenant registry or the
                    # journal: only the two accepted submissions did.
                    assert gateway.stats.submissions_rejected == 3
                    assert gateway.journal.stats()["records_appended"] == 2
                    await _pump_to_idle(gateway)
                    await client.submit("t2", ids[6:7])
                    with pytest.raises(AdmissionError):
                        await client.submit("t3", ids[7:8])
                    codes = gateway.stats.rejections_by_code
                    assert codes["unknown-claim"] == 1
                    assert codes["admission"] == 2
                    assert codes["backpressure"] == 1
            finally:
                await gateway.stop()

        asyncio.run(run())

    def test_duplicate_submissions_ack_idempotently(
        self, gateway_corpus, gateway_config, tmp_path
    ):
        async def run():
            gateway = _gateway(gateway_corpus, gateway_config, tmp_path, auto_pump=False)
            await gateway.start()
            try:
                async with await GatewayClient.connect("127.0.0.1", gateway.port) as client:
                    ids = list(gateway_corpus.claim_ids)[:6]
                    first = await client.submit("alpha", ids[:4])
                    assert first["accepted"] == 4
                    again = await client.submit("alpha", ids[:4])
                    assert again["accepted"] == 0
                    assert again["duplicates"] == 4
                    assert again["seq"] is None
                    # A partially-duplicate retry journals only the fresh
                    # claims.
                    mixed = await client.submit("alpha", ids[2:6])
                    assert mixed["accepted"] == 2
                    assert mixed["duplicates"] == 2
                    scan = scan_journal(gateway.journal.directory)
                    assert len(scan.records) == 2
                    assert scan.records[1].claim_ids == tuple(ids[4:6])
            finally:
                await gateway.stop()

        asyncio.run(run())


class TestServing:
    def test_results_stream_and_lifecycle_frames(
        self, gateway_corpus, gateway_config, tmp_path
    ):
        async def run():
            gateway = _gateway(
                gateway_corpus, gateway_config, tmp_path, snapshot_dir=tmp_path / "snap"
            )
            await gateway.start()
            try:
                async with await GatewayClient.connect("127.0.0.1", gateway.port) as client:
                    ids = list(gateway_corpus.claim_ids)
                    await client.submit("alpha", ids[:8])
                    await client.submit("beta", ids[8:14])
                    verdicts: dict[str, dict[str, bool | None]] = {}
                    completes: set[str] = set()
                    while len(completes) < 2:
                        frame = await client.next_result(timeout=120)
                        assert frame is not None
                        if frame["type"] == "result":
                            verdicts.setdefault(frame["tenant_id"], {})[
                                frame["claim_id"]
                            ] = frame["verdict"]
                        elif frame["type"] == "complete":
                            completes.add(frame["tenant_id"])
                    assert completes == {"alpha", "beta"}
                    assert len(verdicts["alpha"]) == 8
                    assert len(verdicts["beta"]) == 6
                    report = await client.report("alpha")
                    assert report["pending"] == 0
                    assert report["verdicts"] == verdicts["alpha"]
                    evicted = await client.evict("alpha")
                    assert evicted["evicted"] is True
                    with pytest.raises(UnknownTenantError):
                        await client.report("ghost")
                    status = await client.status()
                    assert status["idle"] is True
                    assert status["stats"]["results_streamed"] == 14
            finally:
                await gateway.stop()

        asyncio.run(run())


def _engine_threads() -> set[threading.Thread]:
    return {
        thread for thread in threading.enumerate() if thread.name.startswith("gateway-engine")
    }


class _Boom(Exception):
    pass


class TestShutdown:
    """A batch error kills the pump task; stop() and abort() still finish."""

    @pytest.fixture
    def failing_tenant(self, monkeypatch):
        run_batch = VerificationService.run_batch

        def scripted(service):
            if service.system_name.endswith("/bad"):
                raise _Boom("tenant bad failed")
            return run_batch(service)

        monkeypatch.setattr(VerificationService, "run_batch", scripted)

    @staticmethod
    async def _gateway_with_dead_pump(corpus, config, tmp_path) -> GatewayServer:
        gateway = _gateway(corpus, config, tmp_path, snapshot_dir=tmp_path / "snap")
        await gateway.start()
        ids = list(corpus.claim_ids)
        async with await GatewayClient.connect("127.0.0.1", gateway.port) as client:
            await client.submit("good", ids[:4])
            await client.submit("bad", ids[4:8])
        pump = gateway._pump_task
        for _ in range(600):
            if pump.done():
                break
            await asyncio.sleep(0.05)
        assert pump.done() and isinstance(pump.exception(), _Boom)
        return gateway

    def test_stop_after_a_failed_batch_finishes_then_raises(
        self, gateway_corpus, gateway_config, tmp_path, failing_tenant
    ):
        async def run():
            others = _engine_threads()
            gateway = await self._gateway_with_dead_pump(
                gateway_corpus, gateway_config, tmp_path
            )
            assert _engine_threads() - others
            with pytest.raises(_Boom):
                await gateway.stop()
            assert not _engine_threads() - others
            store = SnapshotStore(tmp_path / "snap")
            assert store.exists("good") and store.exists("bad")
            await gateway.stop()  # already stopped: returns

        asyncio.run(run())

    def test_abort_after_a_failed_batch_finishes_then_raises(
        self, gateway_corpus, gateway_config, tmp_path, failing_tenant
    ):
        async def run():
            others = _engine_threads()
            gateway = await self._gateway_with_dead_pump(
                gateway_corpus, gateway_config, tmp_path
            )
            with pytest.raises(_Boom):
                await gateway.abort()
            assert not _engine_threads() - others
            # A crash writes no snapshots, but the journal kept both acks.
            assert not SnapshotStore(tmp_path / "snap").exists("good")
            assert len(scan_journal(tmp_path / "wal").records) == 2
            await gateway.abort()  # already stopped: returns

        asyncio.run(run())


class TestCrashRecovery:
    def test_kill_and_replay_is_verdict_identical(
        self, gateway_corpus, gateway_config, tmp_path
    ):
        """abort() mid-workload, then snapshots + journal replay equals
        the uninterrupted run — and replaying the replay changes nothing."""
        workload = build_workload(
            list(gateway_corpus.claim_ids), tenant_count=3, seed=5, mix=("bursty",)
        )

        async def baseline():
            gateway = _gateway(
                gateway_corpus,
                gateway_config,
                tmp_path / "a",
                snapshot_dir=tmp_path / "a" / "snap",
            )
            await gateway.start()
            try:
                return await drive_workload_through_gateway(
                    workload, "127.0.0.1", gateway.port
                )
            finally:
                await gateway.stop()

        async def crash_run():
            gateway = _gateway(
                gateway_corpus,
                gateway_config,
                tmp_path / "b",
                snapshot_dir=tmp_path / "b" / "snap",
            )
            await gateway.start()
            result = await drive_workload_through_gateway(
                workload, "127.0.0.1", gateway.port, collect_results=False
            )
            # Every submission is acked — kill the gateway mid-processing.
            await gateway.abort()
            return result

        uninterrupted = asyncio.run(baseline())
        assert uninterrupted.accepted_claims == workload.claim_count
        crashed = asyncio.run(crash_run())
        assert crashed.accepted_claims == workload.claim_count

        with VerificationServer(
            gateway_corpus,
            gateway_config,
            snapshot_dir=tmp_path / "b" / "snap",
        ) as replay_server:
            recovery = recover_server(replay_server, tmp_path / "b" / "wal")
            assert recovery.rejected_records == 0
            replay_server.run_until_idle()
            replayed = _verdict_map(replay_server)

        # Zero acked submissions lost, verdict-identical to the
        # uninterrupted run.
        assert replayed == uninterrupted.verdicts_by_tenant
        recovered_claims = {claim for verdicts in replayed.values() for claim in verdicts}
        assert recovered_claims == set(gateway_corpus.claim_ids)

        # Replaying the replay is a pure no-op: every journal record
        # dedups against the snapshots the first replay wrote.
        with VerificationServer(
            gateway_corpus,
            gateway_config,
            snapshot_dir=tmp_path / "b" / "snap",
        ) as second_server:
            second = recover_server(second_server, tmp_path / "b" / "wal")
            assert second.replayed_claims == 0
            assert second.duplicate_claims == workload.claim_count
            assert all(count == 0 for count in second.outstanding.values())
            assert second_server.run_until_idle() == []
            assert _verdict_map(second_server) == replayed

    def test_gateway_restart_recovers_and_serves_reports(
        self, gateway_corpus, gateway_config, tmp_path
    ):
        ids = list(gateway_corpus.claim_ids)

        async def first_life():
            gateway = _gateway(
                gateway_corpus,
                gateway_config,
                tmp_path,
                snapshot_dir=tmp_path / "snap",
                auto_pump=False,
            )
            await gateway.start()
            async with await GatewayClient.connect("127.0.0.1", gateway.port) as client:
                await client.submit("alpha", ids[:6])
                await client.submit("beta", ids[6:10])
            await gateway.abort()

        async def second_life():
            gateway = _gateway(
                gateway_corpus,
                gateway_config,
                tmp_path,
                snapshot_dir=tmp_path / "snap",
            )
            await gateway.start()
            try:
                recovery = gateway.recovery
                assert recovery is not None
                assert recovery.replayed_records == 2
                assert recovery.outstanding == {"alpha": 6, "beta": 4}
                assert await gateway.wait_idle(timeout=300)
                async with await GatewayClient.connect("127.0.0.1", gateway.port) as client:
                    alpha = await client.report("alpha")
                    beta = await client.report("beta")
                    # A duplicate of an acked-and-replayed submission still
                    # acks idempotently after the restart.
                    again = await client.submit("alpha", ids[:6])
                    assert again["accepted"] == 0
                    assert again["duplicates"] == 6
                return alpha, beta
            finally:
                await gateway.stop()

        asyncio.run(first_life())
        alpha, beta = asyncio.run(second_life())
        assert alpha["pending"] == 0 and len(alpha["verdicts"]) == 6
        assert beta["pending"] == 0 and len(beta["verdicts"]) == 4

    def test_recovery_parses_each_snapshot_once(
        self, gateway_corpus, gateway_config, tmp_path, monkeypatch
    ):
        ids = list(gateway_corpus.claim_ids)
        tenants = {f"t{index}": ids[index * 4 : index * 4 + 4] for index in range(3)}
        with VerificationServer(
            gateway_corpus, gateway_config, snapshot_dir=tmp_path / "snap"
        ) as first:
            for tenant_id, claims in tenants.items():
                first.submit(tenant_id, claims[:3])
            first.run_round()
        with JournalWriter(tmp_path / "wal") as journal:
            journal.append("t0", tenants["t0"])  # one fresh claim, three known
            journal.append("fresh", ids[20:22])  # a tenant without a snapshot
            journal.commit()

        loads = []
        real_load = ServiceSnapshot.load.__func__

        def counting_load(cls, path):
            loads.append(path)
            return real_load(cls, path)

        monkeypatch.setattr(ServiceSnapshot, "load", classmethod(counting_load))
        with VerificationServer(
            gateway_corpus, gateway_config, snapshot_dir=tmp_path / "snap"
        ) as server:
            recovery = recover_server(server, tmp_path / "wal")
            assert len(loads) == len(tenants)
            assert sorted(recovery.adopted_tenants) == sorted(tenants)
            # The edge dedup sets are the server's own, after replay.
            assert recovery.known_claims == {
                "t0": set(tenants["t0"]),
                "t1": set(tenants["t1"][:3]),
                "t2": set(tenants["t2"][:3]),
                "fresh": set(ids[20:22]),
            }
            assert recovery.replayed_claims == 3
            assert recovery.duplicate_claims == 3

    def test_recovery_tolerates_damaged_journal_tail(
        self, gateway_corpus, gateway_config, tmp_path
    ):
        ids = list(gateway_corpus.claim_ids)

        async def serve_and_crash():
            gateway = _gateway(gateway_corpus, gateway_config, tmp_path, auto_pump=False)
            await gateway.start()
            async with await GatewayClient.connect("127.0.0.1", gateway.port) as client:
                await client.submit("alpha", ids[:4])
            await gateway.abort()

        asyncio.run(serve_and_crash())
        # A crash mid-write leaves a partial frame at the journal tail.
        segment = sorted((tmp_path / "wal").glob("journal-*.log"))[-1]
        segment.write_bytes(segment.read_bytes() + b"\x00\x01partial")
        with VerificationServer(gateway_corpus, gateway_config) as server:
            recovery = recover_server(server, tmp_path / "wal")
            assert recovery.scan.truncated_tails == 1
            assert recovery.replayed_claims == 4
            server.run_until_idle()
            status = server.tenant_status("alpha")
            assert status.pending_claims == 0
            assert status.verified_claims == 4
