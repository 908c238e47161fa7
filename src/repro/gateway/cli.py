"""``python -m repro.gateway`` — serve, replay, and inspect the journal.

``serve``
    Build the deterministic synthetic corpus, recover from the journal
    directory (snapshots first, then journal replay), bind a TCP port
    and serve NDJSON traffic until SIGTERM/SIGINT.  A ``manifest.json``
    in the journal directory records the corpus recipe so ``replay`` and
    ``status`` can rebuild the exact same world after a crash::

        python -m repro.gateway serve --claims 60 --seed 11 --port 0 \\
            --journal-dir ./wal --snapshot-dir ./tenants

``replay``
    Offline crash recovery: rebuild the server from ``manifest.json``,
    adopt snapshots, replay the journal, run to idle, and write a merged
    verdict report.  Safe to run repeatedly — replay is idempotent.

``status``
    Read-only inspection of a journal directory (segments, recoverable
    records, damage counters) and its snapshot store.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.config import BatchingConfig, ScrutinizerConfig
from repro.errors import ConfigurationError, ReproError
from repro.gateway.journal import scan_journal
from repro.gateway.server import GatewayServer, recover_server
from repro.runtime.snapshot import SnapshotStore
from repro.serving.cli import workload_corpus
from repro.serving.server import AdmissionPolicy, VerificationServer

__all__ = ["main"]

MANIFEST_NAME = "manifest.json"


def _manifest_payload(args: argparse.Namespace) -> dict:
    return {
        "claims": args.claims,
        "seed": args.seed,
        "batch_size": args.batch_size,
        "max_tenants": args.max_tenants,
        "max_resident": args.max_resident,
        "quota": args.quota,
        "queue_limit": args.queue_limit,
    }


def _write_manifest(journal_dir: Path, payload: dict) -> None:
    journal_dir.mkdir(parents=True, exist_ok=True)
    path = journal_dir / MANIFEST_NAME
    if path.exists():
        existing = json.loads(path.read_text(encoding="utf-8"))
        if existing != payload:
            raise ConfigurationError(
                f"journal dir {journal_dir} was created with a different "
                f"manifest ({existing}); refusing to mix corpora in one journal"
            )
        return
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_manifest(journal_dir: Path) -> dict:
    path = journal_dir / MANIFEST_NAME
    if not path.exists():
        raise ConfigurationError(
            f"no {MANIFEST_NAME} in {journal_dir}; was this directory "
            "created by `python -m repro.gateway serve`?"
        )
    return json.loads(path.read_text(encoding="utf-8"))


def _build_world(manifest: dict):
    corpus = workload_corpus(int(manifest["claims"]), int(manifest["seed"]))
    config = ScrutinizerConfig(
        checker_count=3,
        options_per_property=10,
        batching=BatchingConfig(min_batch_size=1, max_batch_size=int(manifest["batch_size"])),
        seed=int(manifest["seed"]),
    )
    policy = AdmissionPolicy(
        max_tenants=int(manifest["max_tenants"]),
        max_resident_sessions=int(manifest["max_resident"]),
        max_pending_claims_per_tenant=(
            None if manifest.get("quota") is None else int(manifest["quota"])
        ),
        max_queued_submissions=int(manifest["queue_limit"]),
    )
    return corpus, config, policy


def _tenant_report(server: VerificationServer) -> dict:
    tenants = {}
    for tenant_id in sorted(server.tenant_ids):
        status = server.tenant_status(tenant_id)
        verdicts = {
            verification.claim_id: verification.verdict
            for verification in server.report(tenant_id).verifications
        }
        tenants[tenant_id] = {
            "verdicts": verdicts,
            "verified": status.verified_claims,
            "pending": status.pending_claims + status.queued_claims,
        }
    return tenants


def _cmd_serve(args: argparse.Namespace, out) -> int:
    journal_dir = Path(args.journal_dir)
    manifest = _manifest_payload(args)
    _write_manifest(journal_dir, manifest)
    corpus, config, policy = _build_world(manifest)

    async def _run() -> dict:
        gateway = GatewayServer(
            corpus,
            config,
            journal_dir=journal_dir,
            policy=policy,
            snapshot_dir=args.snapshot_dir,
            host=args.host,
            port=args.port,
            flush_interval=args.flush_interval,
        )
        await gateway.start()
        recovery = gateway.recovery.to_dict() if gateway.recovery else {}
        print(f"gateway listening on {gateway.host}:{gateway.port}", file=out, flush=True)
        print(
            f"recovered {recovery.get('replayed_records', 0)} journal record(s), "
            f"adopted {len(recovery.get('adopted_tenants', ()))} tenant(s), "
            f"{recovery.get('outstanding_claims', 0)} claim(s) outstanding",
            file=out,
            flush=True,
        )
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop_event.set)
        await stop_event.wait()
        payload = gateway.status_payload()
        await gateway.stop()
        return payload

    payload = asyncio.run(_run())
    stats = payload.get("stats", {})
    journal = payload.get("journal", {})
    print(
        f"served {stats.get('submissions_accepted', 0)} submission(s) "
        f"({stats.get('claims_accepted', 0)} claims, "
        f"{stats.get('submissions_rejected', 0)} shed), "
        f"{stats.get('results_streamed', 0)} result(s) streamed in "
        f"{stats.get('rounds', 0)} round(s)",
        file=out,
    )
    print(
        f"journal: {journal.get('records_committed', 0)} record(s) over "
        f"{journal.get('commits', 0)} fsync(s) "
        f"({journal.get('appends_per_commit', 0.0):.1f} appends/fsync)",
        file=out,
    )
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.report}", file=out)
    return 0


def _cmd_replay(args: argparse.Namespace, out) -> int:
    journal_dir = Path(args.journal_dir)
    manifest = _read_manifest(journal_dir)
    corpus, config, policy = _build_world(manifest)
    with VerificationServer(
        corpus,
        config,
        policy=policy,
        snapshot_dir=args.snapshot_dir,
        system_name="GatewayReplay",
    ) as server:
        recovery = recover_server(server, journal_dir)
        outcomes = server.run_until_idle(max_rounds=args.max_rounds)
        tenants = _tenant_report(server)
    pending = sum(entry["pending"] for entry in tenants.values())
    verified = sum(entry["verified"] for entry in tenants.values())
    print(
        f"replayed {recovery.replayed_records} journal record(s) "
        f"({recovery.replayed_claims} fresh claims, "
        f"{recovery.duplicate_claims} duplicates) over "
        f"{len(recovery.adopted_tenants)} adopted tenant(s)",
        file=out,
    )
    if recovery.scan.corrupt_records or recovery.scan.truncated_tails:
        print(
            f"journal damage skipped: {recovery.scan.corrupt_records} corrupt "
            f"record(s), {recovery.scan.truncated_tails} truncated tail(s)",
            file=out,
        )
    print(
        f"ran {len(outcomes)} batch(es) to completion: "
        f"{verified} verified, {pending} pending across {len(tenants)} tenant(s)",
        file=out,
    )
    if args.report:
        payload = {
            "tenants": tenants,
            "recovery": recovery.to_dict(),
            "batches": len(outcomes),
            "verified": verified,
            "pending": pending,
        }
        Path(args.report).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.report}", file=out)
    return 0 if pending == 0 else 1


def _cmd_status(args: argparse.Namespace, out) -> int:
    journal_dir = Path(args.journal_dir)
    scan = scan_journal(journal_dir)
    print(
        f"journal: {len(scan.records)} record(s) in {scan.segments} segment(s), "
        f"last seq {scan.last_seq}, {scan.corrupt_records} corrupt, "
        f"{scan.truncated_tails} truncated tail(s)",
        file=out,
    )
    by_tenant: dict[str, int] = {}
    for record in scan.records:
        by_tenant[record.tenant_id] = by_tenant.get(record.tenant_id, 0) + len(
            record.claim_ids
        )
    for tenant_id in sorted(by_tenant):
        print(f"  {tenant_id}: {by_tenant[tenant_id]} journaled claim(s)", file=out)
    if args.snapshot_dir:
        store = SnapshotStore(args.snapshot_dir)
        entries = store.items()
        print(f"snapshots: {len(entries)} tenant(s) in {args.snapshot_dir}", file=out)
        for key, snapshot in entries:
            state = "complete" if snapshot.is_complete else "in progress"
            print(
                f"  {key}: {snapshot.verified_count} verified, "
                f"{snapshot.pending_count} pending ({state})",
                file=out,
            )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="Durable network front door for the verification server.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="serve NDJSON traffic over TCP")
    serve.add_argument("--claims", type=int, default=60, help="synthetic corpus size")
    serve.add_argument("--seed", type=int, default=7, help="corpus + engine seed")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=0, help="bind port (0 = ephemeral)")
    serve.add_argument("--batch-size", type=int, default=10, help="claims per batch")
    serve.add_argument("--max-tenants", type=int, default=64, help="tenant registry bound")
    serve.add_argument(
        "--max-resident", type=int, default=4, help="resident sessions before LRU passivation"
    )
    serve.add_argument(
        "--quota", type=int, default=None, help="per-tenant pending-claim quota"
    )
    serve.add_argument(
        "--queue-limit", type=int, default=256, help="submission backlog bound"
    )
    serve.add_argument(
        "--flush-interval",
        type=float,
        default=0.002,
        help="group-commit window in seconds (acks batched per fsync)",
    )
    serve.add_argument(
        "--journal-dir", required=True, help="write-ahead journal directory"
    )
    serve.add_argument(
        "--snapshot-dir", default=None, help="tenant snapshot directory (recovery baseline)"
    )
    serve.add_argument("--report", default=None, help="write a JSON lifecycle report here")

    replay = commands.add_parser(
        "replay", help="offline crash recovery: snapshots + journal → merged report"
    )
    replay.add_argument("--journal-dir", required=True, help="journal directory to replay")
    replay.add_argument(
        "--snapshot-dir", default=None, help="snapshot directory adopted before replay"
    )
    replay.add_argument(
        "--max-rounds", type=int, default=None, help="bound the catch-up round loop"
    )
    replay.add_argument("--report", default=None, help="write the merged verdict report here")

    status = commands.add_parser("status", help="inspect a journal directory read-only")
    status.add_argument("--journal-dir", required=True, help="journal directory")
    status.add_argument("--snapshot-dir", default=None, help="snapshot directory")
    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    handlers = {"serve": _cmd_serve, "replay": _cmd_replay, "status": _cmd_status}
    try:
        return handlers[args.command](args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
