"""Sharded verification on the server, with per-round checkpoints.

A sharded run is K tenants of one :class:`~repro.serving.VerificationServer`
(:func:`~repro.serving.run_sharded`).  This example shows:

1. **Sharding** — the corpus is partitioned by a stable claim key and
   verified as four shard tenants, then the per-shard reports are merged
   and one translator is reconciled from the merged report.
2. **Checkpoint/resume** — a run over a snapshot directory is stopped
   after one round without closing its server (a stand-in for a kill);
   every shard that ran had already been checkpointed, and rerunning the
   same call on a fresh server finishes the run with the same verdicts as
   the uninterrupted one.

Run with::

    PYTHONPATH=src python examples/sharded_runtime.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.config import BatchingConfig, ScrutinizerConfig
from repro.serving import (
    AdmissionPolicy,
    VerificationServer,
    reconcile_translator,
    run_sharded,
    shard_claims,
)
from repro.synth.energy_data import EnergyDataConfig
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus

SHARDS = 4


def build_workload():
    corpus_config = SyntheticCorpusConfig(
        claim_count=120,
        section_count=10,
        explicit_fraction=0.5,
        error_fraction=0.25,
        data=EnergyDataConfig(relation_count=15, rows_per_relation=14, seed=8),
        seed=7,
    )
    system_config = ScrutinizerConfig(
        checker_count=3,
        options_per_property=10,
        batching=BatchingConfig(min_batch_size=1, max_batch_size=20),
        seed=7,
    )
    return generate_corpus(corpus_config), system_config


def new_server(corpus, config, snapshot_dir=None, executor="thread") -> VerificationServer:
    return VerificationServer(
        corpus,
        config,
        policy=AdmissionPolicy(max_resident_sessions=SHARDS),
        executor=executor,
        snapshot_dir=snapshot_dir,
    )


def verdicts(report) -> dict[str, bool | None]:
    return {v.claim_id: v.verdict for v in report.verifications}


def main() -> None:
    corpus, config = build_workload()
    print(f"workload: {corpus.claim_count} claims over {len(corpus.document.sections)} sections")

    # -- sharded run ------------------------------------------------------
    with new_server(corpus, config) as server:
        report = run_sharded(server, corpus.claim_ids, SHARDS)
        print(
            f"\n{SHARDS}-shard run: {report.claim_count} claims in "
            f"{server.stats.rounds} rounds, {report.total_seconds / report.claim_count:.1f} "
            "checker-seconds per claim"
        )
        for index, shard in enumerate(shard_claims(corpus.claim_ids, SHARDS)):
            status = server.tenant_status(f"shard-{index}")
            print(
                f"  shard-{index}: {len(shard)} claims, {status.batches_run} batches"
            )
    merged = reconcile_translator(corpus, config, report)
    print(f"reconciled translator trained: {merged is not None and merged.is_trained}")

    # -- stop after one round, then rerun ---------------------------------
    with tempfile.TemporaryDirectory() as scratch:
        snapshot_dir = Path(scratch) / "shards"
        # A serial server holds no threads, so it can simply be dropped.
        killed = new_server(corpus, config, snapshot_dir, executor="serial")
        partial = run_sharded(killed, corpus.claim_ids, SHARDS, max_rounds=1)
        del killed
        saved = sorted(path.name for path in snapshot_dir.glob("*.json"))
        print(
            f"\nstopped after one round: {partial.claim_count}/{corpus.claim_count} "
            f"claims verified, checkpoints {saved}"
        )
        # Only the per-round checkpoints carry over: the stopped server's
        # sessions were never passivated.
        with new_server(corpus, config, snapshot_dir) as server:
            resumed = run_sharded(server, corpus.claim_ids, SHARDS)
        print(
            f"rerun verified {resumed.claim_count} claims; identical to the "
            f"uninterrupted run: {verdicts(resumed) == verdicts(report)}"
        )


if __name__ == "__main__":
    main()
