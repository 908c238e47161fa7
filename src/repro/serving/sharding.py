"""Sharded runs: one claim partition per tenant of a verification server.

A sharded run partitions the claims into K shards by a *stable* key
(CRC-32 of the claim id — identical across processes, machines and Python
invocations, unlike ``hash()``) and submits shard ``i`` as tenant
``shard-i`` of one :class:`~repro.serving.server.VerificationServer`.  The
server's scheduler and passivation run the shards; this module adds only
the partition, the per-round checkpoints and the merge:

* **reports** merge into one global
  :class:`~repro.core.report.VerificationReport` — verifications ordered by
  (batch round, shard), machine seconds summed, accuracy histories averaged
  per round across the shards still active in that round;
* **the translator** is reconciled by fitting one
  :class:`~repro.translation.translator.ClaimTranslator` on the corpus
  ground truth of every merged claim, in corpus order — exactly the labels
  each shard retrained on, so no translator state has to leave a session.

Checkpoints and resume: on a server with a snapshot directory,
:func:`run_sharded` saves every shard that ran after each round, so a kill
loses at most one round.  Calling it again with the same ``claim_ids`` and
``shard_count`` over the same directory resumes the run: admission adopts
each shard's snapshot and drops the claims the shard already knows, so a
finished shard is never rehydrated and a shard without a snapshot reruns
from scratch.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence

from repro.claims.corpus import ClaimCorpus
from repro.config import ScrutinizerConfig
from repro.core.report import ClaimVerification, VerificationReport
from repro.errors import ConfigurationError
from repro.serving.server import VerificationServer
from repro.translation.classifiers import TrainingExample
from repro.translation.translator import ClaimTranslator

__all__ = [
    "merge_shard_reports",
    "reconcile_translator",
    "run_sharded",
    "shard_claims",
]


def shard_claims(claim_ids: Sequence[str], shard_count: int) -> list[tuple[str, ...]]:
    """Partition claim ids into ``shard_count`` shards by stable key.

    Within a shard the input order (typically document order) is kept, so
    the Sequential baseline stays meaningful per shard.  Shards can be
    empty for tiny inputs; :func:`run_sharded` skips those.
    """
    if shard_count < 1:
        raise ConfigurationError("shard_count must be at least 1")
    shards: list[list[str]] = [[] for _ in range(shard_count)]
    for claim_id in claim_ids:
        shards[zlib.crc32(claim_id.encode("utf-8")) % shard_count].append(claim_id)
    return [tuple(shard) for shard in shards]


def run_sharded(
    server: VerificationServer,
    claim_ids: Sequence[str],
    shard_count: int,
    *,
    max_rounds: int | None = None,
) -> VerificationReport:
    """Verify ``claim_ids`` as ``shard_count`` shard tenants of ``server``.

    Submits shard ``i`` as tenant ``shard-i``, then runs rounds until the
    server is idle, a round makes no progress, or ``max_rounds`` rounds
    have run.  With a snapshot directory, every shard that ran a batch is
    checkpointed after each round.  Returns the merged report of the
    non-empty shards (see :func:`merge_shard_reports`).
    """
    tenants = []
    for index, shard in enumerate(shard_claims(claim_ids, shard_count)):
        if shard:
            tenant_id = f"shard-{index}"
            server.submit(tenant_id, shard)
            tenants.append(tenant_id)
    rounds = 0
    while not server.is_idle and (max_rounds is None or rounds < max_rounds):
        outcomes = server.run_round()
        rounds += 1
        if server.store is not None:
            for outcome in outcomes:
                server.checkpoint(outcome.tenant_id)
        if not outcomes and not server.queued_submissions:
            break
    return merge_shard_reports(
        [server.report(tenant_id) for tenant_id in tenants],
        system_name="Scrutinizer" if server.config.claim_ordering else "Sequential",
        checker_count=server.config.checker_count,
    )


def merge_shard_reports(
    reports: Sequence[VerificationReport],
    system_name: str,
    checker_count: int,
) -> VerificationReport:
    """Fold per-shard reports, given in shard order, into one global report.

    * Verifications are ordered by (batch round, shard): round 1 of every
      shard, then round 2, and so on — the order the claims would have
      been decided in if the shards ran in lockstep.  Batch indices keep
      their per-shard values.
    * ``computation_seconds`` (planning + retraining machine time) is the
      sum over shards.
    * ``accuracy_history[i]`` averages, per series, the round-``i`` entries
      of every shard that was still running at round ``i``.
    """
    merged = VerificationReport(system_name=system_name, checker_count=checker_count)
    ordered: list[tuple[int, int, ClaimVerification]] = []
    for shard_index, report in enumerate(reports):
        merged.computation_seconds += report.computation_seconds
        for verification in report.verifications:
            ordered.append((verification.batch_index, shard_index, verification))
    ordered.sort(key=lambda item: (item[0], item[1]))
    merged.extend(verification for _, _, verification in ordered)
    rounds = max((len(report.accuracy_history) for report in reports), default=0)
    for round_index in range(rounds):
        entries = [
            report.accuracy_history[round_index]
            for report in reports
            if round_index < len(report.accuracy_history)
        ]
        series: dict[str, float] = {}
        for name in sorted({name for entry in entries for name in entry}):
            values = [entry[name] for entry in entries if name in entry]
            series[name] = sum(values) / len(values)
        merged.accuracy_history.append(series)
    return merged


def reconcile_translator(
    corpus: ClaimCorpus,
    config: ScrutinizerConfig,
    report: VerificationReport,
) -> ClaimTranslator | None:
    """Fit one global translator on every claim the merged report verified.

    The featurizer is fitted on the whole corpus and the classifiers on
    the corpus ground truth of the verified claims, in corpus order — the
    union of what the shards retrained on.  Returns ``None`` when the
    report verified nothing.
    """
    verified = {verification.claim_id for verification in report.verifications}
    if not verified:
        return None
    translator = ClaimTranslator(corpus.database, config=config.translation)
    translator.bootstrap(
        [corpus.claim(claim_id) for claim_id in corpus.claim_ids],
        fit_features_only=True,
    )
    translator.suite.fit(
        [
            TrainingExample.from_ground_truth(
                corpus.claim(claim_id), corpus.ground_truth(claim_id)
            )
            for claim_id in corpus.claim_ids
            if claim_id in verified
        ]
    )
    return translator
