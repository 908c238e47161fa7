"""Verify a synthetic energy-outlook report with a team of simulated checkers.

This example mirrors the paper's deployment scenario: a sectioned report
with a few hundred statistical claims, a corpus of energy tables, a team of
three checkers, and a cold-start Scrutinizer run compared against the
manual baseline.

Run with::

    python examples/iea_report_verification.py [claim_count]
"""

from __future__ import annotations

import sys

from repro import ScrutinizerBuilder
from repro.config import BatchingConfig, ScrutinizerConfig
from repro.core.baselines import ManualBaseline
from repro.synth.energy_data import EnergyDataConfig
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus


def main(claim_count: int = 150) -> None:
    corpus_config = SyntheticCorpusConfig(
        claim_count=claim_count,
        section_count=12,
        explicit_fraction=0.5,
        error_fraction=0.25,
        data=EnergyDataConfig(relation_count=20, rows_per_relation=14, seed=5),
        seed=4,
    )
    corpus = generate_corpus(corpus_config)
    print(f"Generated report: {corpus.document.section_count} sections, "
          f"{corpus.claim_count} claims, {corpus.database.relation_count} relations")
    print(f"Explicit claims: {corpus.explicit_share():.0%}; "
          f"claims with injected errors: {len(corpus.incorrect_claim_ids())}")

    system_config = ScrutinizerConfig(
        checker_count=3,
        options_per_property=10,
        batching=BatchingConfig(min_batch_size=1, max_batch_size=25),
        seed=4,
    )

    print("\nRunning the manual baseline ...")
    manual_report = ManualBaseline(corpus, config=system_config).verify()
    print(f"  total effort: {manual_report.total_seconds / 3600:.1f} checker-hours "
          f"({manual_report.total_weeks:.3f} team-weeks)")

    print("Running Scrutinizer (cold start) ...")
    service = (
        ScrutinizerBuilder(corpus)
        .with_config(system_config)
        .on_batch_complete(
            lambda batch: print(
                f"  batch {batch.batch_index}: {batch.batch_size} claims, "
                f"{batch.pending_after} pending, solver={batch.solver}"
            )
        )
        .build_service()
    )
    report = service.run_to_completion()
    print(f"  total effort: {report.total_seconds / 3600:.1f} checker-hours "
          f"({report.total_weeks:.3f} team-weeks)")
    print(f"  computation: {report.computation_seconds / 60:.1f} minutes")
    print(f"  savings vs manual: {report.savings_against(manual_report):.0%}")
    print(f"  verdict accuracy vs ground truth: {report.verdict_accuracy(corpus):.0%}")

    flagged = report.incorrect_claims()
    print(f"\nClaims flagged as incorrect: {len(flagged)} (corpus contains "
          f"{len(corpus.incorrect_claim_ids())} injected errors)")
    for verification in flagged[:5]:
        claim = corpus.claim(verification.claim_id)
        truth = corpus.ground_truth(verification.claim_id)
        print(f"  - {claim.text}")
        if truth.correct_value is not None:
            print(f"    suggested correction: {truth.correct_value:.3f}")


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    main(count)
