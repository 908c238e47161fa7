"""``python -m repro.serving`` — drive the multi-tenant server.

Two verbs over the deterministic synthetic workload:

``run``
    Generate a corpus, script mixed tenant traffic across ``--tenants``
    tenants (bursty / steady / resume-after-crash scenarios — or
    Zipf-skewed bursts with ``--zipf``), and serve it with admission
    control.  The summary reports p50/p95/p99 batch latency and the
    scheduler's counters (steals, deadline boosts)::

        python -m repro.serving run --claims 120 --tenants 8 \\
            --max-resident 4 --snapshot-dir ./tenants --report summary.json

``status``
    Inspect a snapshot directory read-only: every passivated tenant's
    verified/pending counts and completion.  A missing directory is an
    error (exit 1), so a mistyped path never reads as an empty run.

Rerunning ``run`` with the same arguments over the same ``--snapshot-dir``
resumes an interrupted run: every tenant with a snapshot is adopted on
admission and its already-submitted claims are dropped as duplicates.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.config import BatchingConfig, ScrutinizerConfig
from repro.errors import ConfigurationError, ReproError
from repro.runtime.snapshot import SnapshotStore
from repro.serving.server import AdmissionPolicy, VerificationServer
from repro.serving.workloads import (
    SCENARIO_KINDS,
    build_workload,
    build_zipf_workload,
    drive_workload,
    percentile,
)
from repro.synth.energy_data import EnergyDataConfig
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus

__all__ = ["main", "workload_corpus"]


def workload_corpus(claim_count: int, seed: int):
    """The deterministic synthetic corpus every serving surface shares.

    Public because the gateway CLI and the e2e kill-and-replay test must
    rebuild byte-identical corpora from ``(claim_count, seed)`` alone —
    the gateway journal's manifest records exactly these two numbers.
    """
    return generate_corpus(
        SyntheticCorpusConfig(
            claim_count=claim_count,
            section_count=max(4, claim_count // 15),
            explicit_fraction=0.5,
            error_fraction=0.25,
            data=EnergyDataConfig(
                relation_count=max(6, claim_count // 8),
                rows_per_relation=14,
                seed=seed + 1,
            ),
            seed=seed,
        )
    )


def _cmd_run(args: argparse.Namespace, out) -> int:
    corpus = workload_corpus(args.claims, args.seed)
    config = ScrutinizerConfig(
        checker_count=3,
        options_per_property=10,
        batching=BatchingConfig(min_batch_size=1, max_batch_size=args.batch_size),
        seed=args.seed,
    )
    policy = AdmissionPolicy(
        max_tenants=max(args.tenants, 1),
        max_resident_sessions=args.max_resident,
        max_pending_claims_per_tenant=args.quota,
        max_queued_submissions=args.queue_limit,
    )
    if args.zipf is not None:
        workload = build_zipf_workload(
            corpus.claim_ids,
            tenant_count=args.tenants,
            seed=args.seed,
            exponent=args.zipf,
        )
    else:
        workload = build_workload(
            corpus.claim_ids,
            tenant_count=args.tenants,
            seed=args.seed,
            mix=tuple(args.mix.split(",")),
        )
    with VerificationServer(
        corpus,
        config,
        policy=policy,
        snapshot_dir=args.snapshot_dir,
    ) as server:
        result = drive_workload(server, workload)
        # Copied before close() so shutdown passivations don't count as
        # workload evictions in the summary.
        stats = copy.copy(server.stats)
    latencies = result.batch_latencies
    print(
        f"served {result.verified_count}/{workload.claim_count} claims for "
        f"{workload.tenant_count} tenant(s) in {result.wall_seconds:.2f}s "
        f"({result.claims_per_second:.1f} claims/s, {result.rounds} rounds)",
        file=out,
    )
    print(
        f"batches {stats.batches}, evictions {stats.evictions}, "
        f"rehydrations {stats.rehydrations}, peak resident {stats.peak_resident}, "
        f"deferred submissions {result.deferred_submissions}",
        file=out,
    )
    print(
        f"batch latency p50 {percentile(latencies, 50) * 1000.0:.1f}ms, "
        f"p95 {percentile(latencies, 95) * 1000.0:.1f}ms, "
        f"p99 {percentile(latencies, 99) * 1000.0:.1f}ms",
        file=out,
    )
    print(
        f"scheduler: {stats.steals} steals, {stats.deadline_boosts} deadline boosts",
        file=out,
    )
    for scenario in workload.scenarios:
        verified = len(result.verified_by_tenant.get(scenario.tenant_id, ()))
        print(
            f"  {scenario.tenant_id} [{scenario.kind}]: "
            f"{verified}/{scenario.claim_count} verified",
            file=out,
        )
    if args.snapshot_dir:
        print(f"tenant snapshots in {args.snapshot_dir}", file=out)
    if args.report:
        payload = {
            "claims": workload.claim_count,
            "tenants": workload.tenant_count,
            "verified": result.verified_count,
            "rounds": result.rounds,
            "wall_seconds": result.wall_seconds,
            "claims_per_second": result.claims_per_second,
            "p50_batch_latency_seconds": percentile(latencies, 50),
            "p95_batch_latency_seconds": percentile(latencies, 95),
            "p99_batch_latency_seconds": percentile(latencies, 99),
            "deferred_submissions": result.deferred_submissions,
            "evictions": stats.evictions,
            "rehydrations": stats.rehydrations,
            "scheduler": {
                "steals": stats.steals,
                "deadline_boosts": stats.deadline_boosts,
            },
            "by_tenant": {
                scenario.tenant_id: {
                    "kind": scenario.kind,
                    "submitted": scenario.claim_count,
                    "verified": len(result.verified_by_tenant.get(scenario.tenant_id, ())),
                }
                for scenario in workload.scenarios
            },
        }
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"summary written to {args.report}", file=out)
    return 0


def _cmd_status(args: argparse.Namespace, out) -> int:
    if not Path(args.snapshot_dir).is_dir():
        raise ConfigurationError(f"no snapshot directory at {args.snapshot_dir}")
    entries = SnapshotStore(args.snapshot_dir).items()
    if not entries:
        print(f"no tenant snapshots in {args.snapshot_dir}", file=out)
        return 0
    total_verified = total_pending = 0
    for key, snapshot in entries:
        total_verified += snapshot.verified_count
        total_pending += snapshot.pending_count
        state = "complete" if snapshot.is_complete else "in progress"
        print(
            f"  {key}: {snapshot.batch_index} batches, "
            f"{snapshot.verified_count} verified, {snapshot.pending_count} "
            f"pending ({state})",
            file=out,
        )
    print(f"total: {total_verified} verified, {total_pending} pending", file=out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Multi-tenant verification serving over a synthetic workload.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="serve a scripted multi-tenant workload")
    run.add_argument("--claims", type=int, default=120, help="workload size")
    run.add_argument("--seed", type=int, default=7, help="workload seed")
    run.add_argument("--tenants", type=int, default=8, help="tenant count")
    run.add_argument("--batch-size", type=int, default=20, help="claims per batch")
    run.add_argument(
        "--max-resident",
        type=int,
        default=4,
        help="sessions kept in memory; the rest passivate to snapshots (LRU)",
    )
    run.add_argument(
        "--quota",
        type=int,
        default=None,
        help="per-tenant pending-claim quota (default: unlimited)",
    )
    run.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="submission queue bound before backpressure",
    )
    run.add_argument(
        "--mix",
        default=",".join(SCENARIO_KINDS),
        help="comma-separated scenario mix cycled across tenants",
    )
    run.add_argument(
        "--zipf",
        type=float,
        default=None,
        metavar="EXPONENT",
        help=(
            "replace the scenario mix with Zipf-skewed bursty traffic at "
            "this exponent (hot tenants get most claims; claims are shared "
            "across tenants)"
        ),
    )
    run.add_argument(
        "--snapshot-dir",
        default=None,
        help="directory for passivated tenant sessions (enables crash durability)",
    )
    run.add_argument("--report", default=None, help="write a JSON summary here")

    status = commands.add_parser("status", help="inspect a tenant snapshot directory")
    status.add_argument("--snapshot-dir", required=True, help="snapshot directory")
    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "status": _cmd_status}
    try:
        return handlers[args.command](args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
