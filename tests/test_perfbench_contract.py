"""The program surface the repository benchmark (``perfbench/``) reads.

``perfbench/`` measures the program from outside, so a change to the
program must keep every name its tracer wraps and every counter its
workloads read.  These tests import the benchmark's own modules and
exercise that surface in about a second, so deleting or renaming one of
those names fails the unit suite instead of only the slow benchmark job.
"""

from __future__ import annotations

import asyncio
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.gateway.server import GatewayServer
from repro.planning.engine import PlannerEngine
from repro.runtime.pool import WorkerPool
from repro.serving import AdmissionPolicy, VerificationServer

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name: str):
    """Load ``perfbench/<name>.py`` under a private module name."""
    module_name = f"_perfbench_{name}"
    if module_name in sys.modules:
        return sys.modules[module_name]
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Registered before execution: dataclasses resolve annotations through it.
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _perfbench_module("tracer")


@pytest.fixture(scope="module")
def workloads_module():
    return _perfbench_module("workloads")


def test_tracer_installs_every_patch_and_restores_them(tracer_module):
    # Every LAYER_OPS entry point, plus the two context carriers
    # (WorkerPool.submit, GatewayServer._engine_step) and the two MILP
    # counters (planning.ilp and planning.engine).
    expected = sum(len(entry_points) for entry_points in tracer_module.LAYER_OPS.values()) + 4
    assert expected == 32
    tracer = tracer_module.Tracer()
    applied = []
    try:
        tracer.install()
        applied = list(tracer._patches)
        patched = {(owner, attribute) for owner, attribute, _ in applied}
        assert len(applied) == expected
        assert (WorkerPool, "submit") in patched
        assert (GatewayServer, "_engine_step") in patched
        assert (PlannerEngine, "plan_fused") in patched
    finally:
        tracer.uninstall()
    assert applied
    for owner, attribute, raw in applied:
        assert vars(owner)[attribute] is raw


def test_serving_counters_read_the_server(small_corpus, workloads_module):
    server = VerificationServer(
        small_corpus,
        workloads_module.system_config(),
        policy=AdmissionPolicy(max_tenants=2, max_resident_sessions=2),
        executor="serial",
    )
    claim_ids = list(small_corpus.claim_ids)
    try:
        server.submit("alpha", claim_ids[:10])
        server.submit("beta", claim_ids[10:20])
        assert len(server.run_round()) == 2
        counters = workloads_module._serving_counters(server)
    finally:
        server.close()
    assert set(counters) == {
        "serving.evictions",
        "serving.rehydrations",
        "serving.steals",
        "serving.wait_rounds",
        "serving.fusion_hit_rate",
        "planning.score_reuse_ratio",
        "planning.prune_ratio",
    }
    assert all(isinstance(value, float) for value in counters.values())
    assert counters["serving.fusion_hit_rate"] == 0.0
    assert counters["planning.score_reuse_ratio"] == 0.0
    assert 0.0 <= counters["planning.prune_ratio"] <= 1.0


def test_gateway_exposes_the_fields_the_gateway_pass_reads(
    small_corpus, workloads_module, tmp_path
):
    async def start_and_stop() -> GatewayServer:
        gateway = GatewayServer(
            small_corpus,
            workloads_module.system_config(),
            journal_dir=tmp_path / "journal",
            snapshot_dir=tmp_path / "snapshots",
            policy=AdmissionPolicy(max_tenants=2, max_resident_sessions=2),
            system_name="Gateway",
        )
        await gateway.start()
        try:
            assert gateway.host == "127.0.0.1" and gateway.port
            assert sum(gateway.recovery.outstanding.values()) == 0
            assert len(gateway.recovery.adopted_tenants) == 0
        finally:
            await gateway.stop()
        return gateway

    gateway = asyncio.run(start_and_stop())
    journal = gateway.journal.stats()
    assert journal["records_committed"] == journal["records_appended"] == 0
    float(journal["appends_per_commit"])
    stats = gateway.stats
    assert (stats.frames_received, stats.frames_sent, stats.submissions_rejected) == (0, 0, 0)
