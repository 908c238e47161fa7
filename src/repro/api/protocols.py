"""Extension points of the verification-service API.

The main loop of Algorithm 1 only ever talks to four structural roles:

* :class:`Checker` — a (human or simulated) fact checker who works through
  a question plan, or verifies a claim manually.
* :class:`AnswerSource` — whatever answers property screens and judges the
  final screen: the ground-truth oracle in simulations, a user interface in
  a real deployment.
* :class:`TranslationBackend` — the claim-to-query translation component
  (classifier training, batch prediction, query generation).
* :class:`BatchSelector` — the claim-ordering policy choosing the next
  batch of claims to verify.

All four are :class:`typing.Protocol` classes, so the stock implementations
(:class:`~repro.crowd.worker.SimulatedChecker`,
:class:`~repro.crowd.oracle.GroundTruthOracle`,
:class:`~repro.translation.translator.ClaimTranslator`,
:class:`~repro.planning.planner.QuestionPlanner`) satisfy them without
inheriting from anything, and user-supplied replacements only need to match
the method signatures.  Swap them in through
:class:`~repro.api.builder.ScrutinizerBuilder`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Protocol, runtime_checkable

from repro.claims.model import Claim, ClaimGroundTruth, ClaimProperty
from repro.crowd.oracle import FinalAnswer, ScreenAnswer
from repro.crowd.worker import CheckerResponse
from repro.ml.base import Prediction
from repro.pipeline.batch import ClaimBatchPredictions
from repro.planning.batching import BatchCandidate, ClaimSelection
from repro.planning.screens import QueryOption, QuestionPlan, Screen
from repro.translation.translator import TranslationResult

__all__ = [
    "AnswerSource",
    "BatchSelector",
    "Checker",
    "TranslationBackend",
]


@runtime_checkable
class Checker(Protocol):
    """A fact checker processing one claim at a time.

    Reference implementation: :class:`repro.crowd.worker.SimulatedChecker`.
    A deployment against real experts would implement the same two methods
    on top of a task queue and a user interface.
    """

    @property
    def checker_id(self) -> str: ...

    def verify_manually(self, claim: Claim) -> CheckerResponse:
        """Verify a claim without system assistance (cold start)."""
        ...

    def verify_with_plan(self, claim: Claim, plan: QuestionPlan) -> CheckerResponse:
        """Work through the planner's question sequence for one claim."""
        ...


@runtime_checkable
class AnswerSource(Protocol):
    """Answers planner questions about claims.

    Reference implementation: :class:`repro.crowd.oracle.GroundTruthOracle`,
    which answers from corpus annotations.  A deployment would route these
    calls to checkers instead.
    """

    def answer_screen(self, claim_id: str, screen: Screen) -> ScreenAnswer:
        """Answer one property screen (select or suggest labels)."""
        ...

    def answer_final(
        self, claim_id: str, query_options: Sequence[QueryOption]
    ) -> FinalAnswer:
        """Judge the final screen of candidate queries."""
        ...

    def is_claim_correct(self, claim_id: str) -> bool:
        """Whether the claim, as written, is correct."""
        ...

    def reference_value(self, claim_id: str) -> float | None:
        """The value the reference query evaluates to, when known."""
        ...

    def reference_sql(self, claim_id: str) -> str | None:
        """The reference verifying query, when known."""
        ...

    def claim_complexity(self, claim_id: str) -> int:
        """Complexity of the claim's verifying query (drives timing)."""
        ...


@runtime_checkable
class TranslationBackend(Protocol):
    """The automated claim-to-query translation component.

    Reference implementation:
    :class:`repro.translation.translator.ClaimTranslator`.
    """

    @property
    def is_trained(self) -> bool: ...

    def bootstrap(
        self,
        claims: Sequence[Claim],
        truths: Sequence[ClaimGroundTruth] | None = None,
    ) -> object:
        """Fit the feature pipeline if unfitted and, given ``truths``, the models.

        The service calls it with its corpus claims at construction, so a
        backend's features are fitted before its first batch.
        """
        ...

    def retrain(
        self, claims: Sequence[Claim], truths: Sequence[ClaimGroundTruth]
    ) -> None:
        """Feed newly verified claims back into the models (Algorithm 1)."""
        ...

    def predict_many(self, claims: Sequence[Claim]) -> ClaimBatchPredictions:
        """Predictions for many claims in one pass (the only prediction path).

        The service calls this once per batch over the whole pending pool,
        scores every claim from the returned probability matrices, and
        plans each selected claim from its row.
        """
        ...

    def translate(
        self,
        claim: Claim,
        predictions: Mapping[ClaimProperty, Prediction],
        validated_context: Mapping[ClaimProperty, Sequence[str]] | None = None,
    ) -> TranslationResult:
        """Generate and tentatively execute candidate queries.

        ``predictions`` is the claim's row of the :meth:`predict_many`
        batch; properties missing from ``validated_context`` fall back to
        its top-ranked labels.
        """
        ...

    def evaluate_accuracy(
        self,
        claims: Sequence[Claim],
        truths: Sequence[ClaimGroundTruth],
        top_k: int = 1,
    ) -> Mapping[ClaimProperty, float]:
        """Per-property top-k accuracy on held-out claims (Figures 8-9)."""
        ...


@runtime_checkable
class BatchSelector(Protocol):
    """Chooses the next batch of claims to verify (Section 5.2).

    Reference implementation:
    :class:`repro.planning.planner.QuestionPlanner`, whose ``plan_batch``
    solves the ILP of Definition 9 (or returns document order for the
    *Sequential* baseline).
    """

    def plan_batch(
        self,
        candidates: Sequence[BatchCandidate],
        section_read_costs: Mapping[str, float],
        document_order: Sequence[str] | None = None,
    ) -> ClaimSelection:
        """Select the next batch from the unverified claims."""
        ...
