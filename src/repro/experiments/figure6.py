"""Figure 6 — average verification time by claim complexity.

The paper plots average per-claim verification time against claim
complexity (number of elements in the verifying query) for the manual and
system-assisted groups: manual time grows from roughly 50 s to 200 s over
complexities 4–10 while the system stays below half of that throughout.
"""

from __future__ import annotations

from repro.claims.corpus import ClaimCorpus
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus
from repro.synth.study import UserStudyConfig, run_user_study

#: Approximate series read off Figure 6 of the paper (seconds).
PAPER_FIGURE6 = {
    "Manual": {4: 50, 6: 90, 8: 150, 10: 200},
    "System": {4: 30, 6: 45, 8: 60, 10: 75},
}


def run(
    corpus: ClaimCorpus | None = None,
    corpus_config: SyntheticCorpusConfig | None = None,
    study_config: UserStudyConfig | None = None,
) -> dict[str, object]:
    """Run the simulated study and return the time-by-complexity series."""
    if corpus is None:
        corpus = generate_corpus(corpus_config)
    result = run_user_study(corpus, study_config)
    return {
        "rows": result.figure6_rows(),
        "series": result.time_by_complexity,
        "paper_series": PAPER_FIGURE6,
    }


def format_rows(outcome: dict[str, object]) -> str:
    lines = ["Figure 6 — average verification time (s) by claim complexity"]
    lines.append(f"{'process':<10}{'complexity':>11}{'avg seconds':>13}")
    for row in outcome["rows"]:
        lines.append(f"{row['process']:<10}{row['complexity']:>11}{row['avg_seconds']:>13}")
    return "\n".join(lines)
