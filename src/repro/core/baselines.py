"""Baselines the paper compares against.

* ``ManualBaseline`` — the current IEA default: each claim is verified by
  hand with spreadsheets and databases, with no computational support.
* The *Sequential* baseline (Scrutinizer without claim ordering) is obtained
  by running :class:`~repro.api.service.VerificationService` with
  ``config.as_sequential()``.
* :data:`SYSTEM_PROFILES` reproduces the qualitative system comparison of
  Table 3 (Scrutinizer vs AggChecker, BriQ and StatSearch).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.claims.corpus import ClaimCorpus
from repro.config import ScrutinizerConfig
from repro.core.report import ClaimVerification, VerificationReport
from repro.crowd.oracle import GroundTruthOracle
from repro.crowd.timing import TimingModel
from repro.crowd.voting import majority_vote
from repro.crowd.worker import SimulatedChecker
from repro.errors import SimulationError


class ManualBaseline:
    """Verification without any computational support."""

    def __init__(
        self,
        corpus: ClaimCorpus,
        config: ScrutinizerConfig | None = None,
        checkers: Sequence[SimulatedChecker] | None = None,
    ) -> None:
        self.corpus = corpus
        self.config = config if config is not None else ScrutinizerConfig()
        self.oracle = GroundTruthOracle(corpus)
        timing = TimingModel(cost_model=self.config.cost_model, seed=self.config.seed)
        if checkers is not None:
            self.checkers = list(checkers)
        else:
            self.checkers = [
                SimulatedChecker(
                    checker_id=f"M{index + 1}",
                    oracle=self.oracle,
                    timing=timing,
                    seed=self.config.seed + 100 + index,
                )
                for index in range(self.config.checker_count)
            ]
        if not self.checkers:
            raise SimulationError("the manual baseline needs at least one checker")

    def verify(self, claim_ids: Sequence[str] | None = None) -> VerificationReport:
        """Verify every claim manually, in document order."""
        ids = list(claim_ids) if claim_ids is not None else list(self.corpus.claim_ids)
        report = VerificationReport(system_name="Manual", checker_count=self.config.checker_count)
        votes_needed = min(self.config.votes_per_claim, len(self.checkers))
        for position, claim_id in enumerate(ids):
            claim = self.corpus.claim(claim_id)
            responses = []
            for offset in range(votes_needed):
                checker = self.checkers[(position + offset) % len(self.checkers)]
                responses.append(checker.verify_manually(claim))
            votes = [bool(response.verdict) for response in responses if response.decided]
            report.add(
                ClaimVerification(
                    claim_id=claim_id,
                    verdict=majority_vote(votes) if votes else None,
                    verified_sql=self.corpus.ground_truth(claim_id).sql or None,
                    elapsed_seconds=sum(response.elapsed_seconds for response in responses),
                    checker_votes=tuple(votes),
                    skipped=not bool(votes),
                    batch_index=1,
                )
            )
        return report


@dataclass(frozen=True)
class SystemProfile:
    """Qualitative properties of a claim-verification system (Table 3)."""

    name: str
    task: str
    claim_scope: str
    claim_types: str
    query_model: str
    operation_count: str
    user_model: str
    dataset_scope: str


#: The rows of Table 3 of the paper.
SYSTEM_PROFILES: tuple[SystemProfile, ...] = (
    SystemProfile(
        name="Scrutinizer",
        task="check",
        claim_scope="n claims",
        claim_types="general",
        query_model="SPA",
        operation_count="100s ops",
        user_model="crowd",
        dataset_scope="corpus",
    ),
    SystemProfile(
        name="AggChecker",
        task="check",
        claim_scope="1 claim",
        claim_types="explicit",
        query_model="SPA",
        operation_count="9 ops",
        user_model="single",
        dataset_scope="single",
    ),
    SystemProfile(
        name="BriQ",
        task="check",
        claim_scope="1 claim",
        claim_types="explicit",
        query_model="SPA",
        operation_count="6 ops",
        user_model="single",
        dataset_scope="single",
    ),
    SystemProfile(
        name="StatSearch",
        task="search",
        claim_scope="1 claim",
        claim_types="explicit",
        query_model="SP",
        operation_count="-",
        user_model="single",
        dataset_scope="corpus",
    ),
)
