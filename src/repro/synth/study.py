"""Simulation of the user study (Section 6.1, Figures 5 and 6).

The paper's study gives seven IEA experts 20 minutes each: three verify
claims manually (M1–M3) and four with Scrutinizer (S1–S4).  The study
claims are drawn from the formulas that cover the majority of the corpus,
25% of them get injected errors, and per-claim verification times are
recorded.  This module reproduces that protocol with simulated checkers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.claims.corpus import ClaimCorpus
from repro.claims.model import ClaimProperty
from repro.config import ScrutinizerConfig
from repro.crowd.oracle import GroundTruthOracle
from repro.crowd.timing import TimingModel
from repro.crowd.worker import SimulatedChecker
from repro.errors import SimulationError
from repro.planning.planner import QuestionPlanner
from repro.translation.translator import ClaimTranslator


@dataclass(frozen=True)
class UserStudyConfig:
    """Protocol parameters of the simulated user study."""

    study_claim_count: int = 40
    top_formula_count: int = 10
    manual_checkers: int = 3
    system_checkers: int = 4
    time_budget_seconds: float = 20 * 60.0
    error_rate: float = 0.03
    skip_rate: float = 0.05
    seed: int = 7


@dataclass(frozen=True)
class CheckerStudyOutcome:
    """Per-checker tallies plotted in Figure 5."""

    checker_id: str
    used_system: bool
    correct: int
    incorrect: int
    skipped: int
    claim_times: dict[str, float] = field(default_factory=dict)

    @property
    def verified(self) -> int:
        return self.correct + self.incorrect


@dataclass(frozen=True)
class UserStudyResult:
    """Aggregated outcome of the simulated user study."""

    outcomes: tuple[CheckerStudyOutcome, ...]
    study_claim_ids: tuple[str, ...]
    #: Average verification time per claim complexity, per process
    #: (the two series of Figure 6).
    time_by_complexity: dict[str, dict[int, float]] = field(default_factory=dict)

    def average_verified(self, used_system: bool) -> float:
        group = [outcome for outcome in self.outcomes if outcome.used_system == used_system]
        if not group:
            return 0.0
        return float(np.mean([outcome.verified for outcome in group]))

    def figure5_rows(self) -> list[dict[str, object]]:
        return [
            {
                "checker": outcome.checker_id,
                "process": "System" if outcome.used_system else "Manual",
                "correct": outcome.correct,
                "incorrect": outcome.incorrect,
                "skipped": outcome.skipped,
            }
            for outcome in self.outcomes
        ]

    def figure6_rows(self) -> list[dict[str, object]]:
        rows: list[dict[str, object]] = []
        for process, by_complexity in sorted(self.time_by_complexity.items()):
            for complexity in sorted(by_complexity):
                rows.append(
                    {
                        "process": process,
                        "complexity": complexity,
                        "avg_seconds": round(by_complexity[complexity], 1),
                    }
                )
        return rows


def select_study_claims(corpus: ClaimCorpus, config: UserStudyConfig) -> list[str]:
    """Pick study claims among the ones using the most frequent formulas."""
    profile = corpus.property_profile(ClaimProperty.FORMULA)
    top_formulas = {label for label, _ in profile.most_common(config.top_formula_count)}
    eligible = [
        annotated.claim_id
        for annotated in corpus
        if annotated.ground_truth.formula_label in top_formulas
    ]
    if not eligible:
        raise SimulationError("no claims use the most frequent formulas")
    rng = np.random.default_rng(config.seed)
    rng.shuffle(eligible)
    return eligible[: min(config.study_claim_count, len(eligible))]


def run_user_study(
    corpus: ClaimCorpus,
    config: UserStudyConfig | None = None,
    translator: ClaimTranslator | None = None,
) -> UserStudyResult:
    """Run the simulated 20-minute verification study."""
    config = config if config is not None else UserStudyConfig()
    study_claims = select_study_claims(corpus, config)
    oracle = GroundTruthOracle(corpus)
    system_config = ScrutinizerConfig(seed=config.seed)
    planner = QuestionPlanner(system_config)
    if translator is None:
        translator = ClaimTranslator(corpus.database, config=system_config.translation)
        claims = [annotated.claim for annotated in corpus]
        truths = [annotated.ground_truth for annotated in corpus]
        translator.bootstrap(claims, truths)

    outcomes: list[CheckerStudyOutcome] = []
    manual_times: dict[int, list[float]] = defaultdict(list)
    system_times: dict[int, list[float]] = defaultdict(list)

    for index in range(config.manual_checkers):
        checker = SimulatedChecker(
            checker_id=f"M{index + 1}",
            oracle=oracle,
            timing=TimingModel(cost_model=system_config.cost_model, seed=config.seed + index),
            error_rate=config.error_rate,
            skip_rate=config.skip_rate,
            seed=config.seed + index,
        )
        outcomes.append(
            _run_checker(checker, corpus, study_claims, config, None, None, oracle, manual_times)
        )
    for index in range(config.system_checkers):
        checker = SimulatedChecker(
            checker_id=f"S{index + 1}",
            oracle=oracle,
            timing=TimingModel(
                cost_model=system_config.cost_model, seed=config.seed + 50 + index
            ),
            error_rate=config.error_rate,
            skip_rate=config.skip_rate,
            seed=config.seed + 50 + index,
        )
        outcomes.append(
            _run_checker(
                checker, corpus, study_claims, config, translator, planner, oracle, system_times
            )
        )

    time_by_complexity = {
        "Manual": {
            complexity: float(np.mean(times)) for complexity, times in sorted(manual_times.items())
        },
        "System": {
            complexity: float(np.mean(times)) for complexity, times in sorted(system_times.items())
        },
    }
    return UserStudyResult(
        outcomes=tuple(outcomes),
        study_claim_ids=tuple(study_claims),
        time_by_complexity=time_by_complexity,
    )


def _run_checker(
    checker: SimulatedChecker,
    corpus: ClaimCorpus,
    study_claims: list[str],
    config: UserStudyConfig,
    translator: ClaimTranslator | None,
    planner: QuestionPlanner | None,
    oracle: GroundTruthOracle,
    time_accumulator: dict[int, list[float]],
) -> CheckerStudyOutcome:
    """Run one checker through the fixed claim order within the time budget."""
    correct = incorrect = skipped = 0
    claim_times: dict[str, float] = {}
    remaining = config.time_budget_seconds
    for claim_id in study_claims:
        if remaining <= 0:
            break
        claim = corpus.claim(claim_id)
        if translator is None or planner is None:
            response = checker.verify_manually(claim)
        else:
            plan = planner.plan_claim(claim, translator.predict(claim), translator, oracle)
            response = checker.verify_with_plan(claim, plan)
        elapsed = min(response.elapsed_seconds, remaining)
        remaining -= response.elapsed_seconds
        if remaining < 0:
            # The time budget expired midway through this claim; it does not count.
            break
        if response.skipped or response.verdict is None:
            skipped += 1
            continue
        claim_times[claim_id] = elapsed
        truth = corpus.ground_truth(claim_id).is_correct
        if response.verdict == truth:
            correct += 1
        else:
            incorrect += 1
        complexity = corpus.ground_truth(claim_id).complexity
        time_accumulator[complexity].append(elapsed)
    return CheckerStudyOutcome(
        checker_id=checker.checker_id,
        used_system=translator is not None,
        correct=correct,
        incorrect=incorrect,
        skipped=skipped,
        claim_times=claim_times,
    )
