"""The verification service: Algorithm 1 as an incremental, pluggable engine.

:class:`VerificationService` owns the long-lived components of the system —
corpus, translation backend, checkers, answer source, planner — and exposes
the main loop one step at a time:

* :meth:`~VerificationService.submit` enqueues claims (incrementally, at
  any point of a run),
* :meth:`~VerificationService.run_batch` executes one iteration of
  Algorithm 1 and returns a :class:`BatchResult`,
* :meth:`~VerificationService.iter_results` streams per-claim
  :class:`~repro.core.report.ClaimVerification` objects as they are decided,
* :meth:`~VerificationService.on_batch_complete` registers progress
  callbacks, and
* :meth:`~VerificationService.run_to_completion` drives the loop to the end
  and returns the :class:`~repro.core.report.VerificationReport`.

Build one through :class:`~repro.api.builder.ScrutinizerBuilder`; callers
that need intermediate state step it batch by batch.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.api.protocols import AnswerSource, BatchSelector, Checker, TranslationBackend
from repro.claims.corpus import ClaimCorpus
from repro.claims.model import Claim, ClaimProperty
from repro.config import ScrutinizerConfig
from repro.core.report import ClaimVerification, VerificationReport
from repro.core.session import VerificationSession
from repro.crowd.oracle import GroundTruthOracle
from repro.crowd.timing import TimingModel
from repro.crowd.voting import majority_vote
from repro.crowd.worker import CheckerResponse, SimulatedChecker
from repro.errors import ClaimError, ConfigurationError, InfeasibleSelectionError, SimulationError
from repro.ml.base import Prediction
from repro.pipeline.batch import ClaimBatchPredictions
from repro.planning.batching import BatchCandidate
from repro.planning.planner import QuestionPlanner
from repro.translation.translator import ClaimTranslator

__all__ = [
    "BatchResult",
    "LIFECYCLE_EVENTS",
    "LifecycleCallback",
    "ProgressCallback",
    "VerificationService",
]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one iteration of the main loop (one claim batch)."""

    batch_index: int
    claim_ids: tuple[str, ...]
    verifications: tuple[ClaimVerification, ...]
    #: Crowd time spent on this batch, in (simulated) seconds.
    seconds_spent: float
    #: Machine time spent predicting and planning the batch, in wall-clock
    #: seconds (retraining is reported separately in
    #: :attr:`retrain_seconds` — each bucket counts its time exactly once).
    planning_seconds: float
    #: Machine time spent retraining the classifiers after the batch.
    retrain_seconds: float
    #: Classifier accuracy on the still-pending claims, keyed by series
    #: name; empty once no claims remain.
    accuracy_by_property: dict[str, float]
    #: Which strategy selected the batch: the engine's ``"engine-direct"``
    #: or ``"engine-dp"``; under a cost threshold the reference MILP's
    #: ``"scipy-milp"``, or ``"greedy"`` when its solver fails;
    #: ``"sequential"`` for the baseline; or a custom batch selector's own
    #: tag.
    solver: str
    #: Number of claims still pending after this batch.
    pending_after: int

    @property
    def batch_size(self) -> int:
        return len(self.claim_ids)


ProgressCallback = Callable[[BatchResult], None]

#: Session lifecycle events observable via
#: :meth:`VerificationService.on_lifecycle_event`, in the order a typical
#: run emits them.  ``"submitted"`` fires on every (non-empty) submit,
#: ``"batch"`` after each batch, ``"completed"`` when the last pending
#: claim of the run is decided, ``"snapshot"`` after a checkpoint capture,
#: ``"restored"`` after snapshot state is applied.
LIFECYCLE_EVENTS = ("submitted", "batch", "completed", "snapshot", "restored")

#: Receives the event name and the service it happened on.  A serving
#: layer uses these hooks to track tenant activity (admission accounting,
#: idle detection for eviction) without polling the session.
LifecycleCallback = Callable[[str, "VerificationService"], None]


class VerificationService:
    """Incremental claim-verification engine with pluggable backends.

    Parameters
    ----------
    corpus:
        The annotated claim corpus (document, claims, ground truth, data).
    config:
        System configuration; ``config.claim_ordering=False`` yields the
        *Sequential* baseline.
    translator:
        Any :class:`~repro.api.protocols.TranslationBackend`; defaults to a
        fresh :class:`~repro.translation.translator.ClaimTranslator`.  The
        service bootstraps it on the corpus claims, which fits its
        featurizer unless it is already fitted.  An object missing a
        protocol member is refused with
        :class:`~repro.errors.ConfigurationError`.
    checkers:
        Any sequence of :class:`~repro.api.protocols.Checker`; defaults to
        ``config.checker_count`` simulated checkers with distinct seeds.
    answer_source:
        Any :class:`~repro.api.protocols.AnswerSource`; defaults to the
        ground-truth oracle over the corpus.
    planner:
        The question planner building per-claim screen sequences.
    batch_selector:
        Any :class:`~repro.api.protocols.BatchSelector`; defaults to the
        planner itself, which selects through its
        :class:`~repro.planning.engine.PlannerEngine` (``planner.engine``;
        a server shares one engine across its sessions by assigning it).
    """

    def __init__(
        self,
        corpus: ClaimCorpus,
        config: ScrutinizerConfig | None = None,
        *,
        translator: TranslationBackend | None = None,
        checkers: Sequence[Checker] | None = None,
        answer_source: AnswerSource | None = None,
        planner: QuestionPlanner | None = None,
        batch_selector: BatchSelector | None = None,
        accuracy_sample_size: int = 60,
        system_name: str | None = None,
    ) -> None:
        self.corpus = corpus
        self.config = config if config is not None else ScrutinizerConfig()
        self.planner = planner if planner is not None else QuestionPlanner(self.config)
        self.batch_selector: BatchSelector = (
            batch_selector if batch_selector is not None else self.planner
        )
        self.answer_source: AnswerSource = (
            answer_source
            if answer_source is not None
            else GroundTruthOracle(corpus, value_tolerance=0.05)
        )
        self._timing = TimingModel(cost_model=self.config.cost_model, seed=self.config.seed)
        self._accuracy_sample_size = accuracy_sample_size
        self._rng = np.random.default_rng(self.config.seed)
        if translator is not None and not isinstance(translator, TranslationBackend):
            missing = [
                name
                for name in vars(TranslationBackend)
                if not name.startswith("_") and not hasattr(translator, name)
            ]
            raise ConfigurationError(
                f"translator {type(translator).__name__} is not a "
                f"TranslationBackend: it lacks {', '.join(missing)}"
            )
        self.translator: TranslationBackend = (
            translator
            if translator is not None
            else ClaimTranslator(corpus.database, config=self.config.translation)
        )
        self.translator.bootstrap([annotated.claim for annotated in corpus])
        if checkers is not None:
            self.checkers: list[Checker] = list(checkers)
        else:
            self.checkers = [
                SimulatedChecker(
                    checker_id=f"S{index + 1}",
                    oracle=self.answer_source,
                    timing=self._timing,
                    seed=self.config.seed + index,
                )
                for index in range(self.config.checker_count)
            ]
        if not self.checkers:
            raise SimulationError("the verification service needs at least one checker")
        self._system_name = (
            system_name
            if system_name is not None
            else ("Scrutinizer" if self.config.claim_ordering else "Sequential")
        )
        self._document_order = list(corpus.document.claim_ids)
        self._section_read_costs = {
            section.section_id: section.read_cost
            for section in corpus.document.sections
        }
        self._callbacks: list[ProgressCallback] = []
        self._lifecycle_callbacks: list[LifecycleCallback] = []
        self._session: VerificationSession | None = None
        self._report: VerificationReport | None = None
        self._batch_index = 0

    # ------------------------------------------------------------------ #
    # run state
    # ------------------------------------------------------------------ #
    @property
    def session(self) -> VerificationSession | None:
        """The state of the current run (``None`` before the first submit)."""
        return self._session

    @property
    def system_name(self) -> str:
        """The name stamped on reports produced by this service."""
        return self._system_name

    @property
    def accuracy_sample_size(self) -> int:
        return self._accuracy_sample_size

    @property
    def timing(self) -> TimingModel:
        """The timing model shared with the default simulated checkers."""
        return self._timing

    @property
    def report(self) -> VerificationReport:
        """The report accumulated so far in the current run."""
        if self._report is None:
            self._report = VerificationReport(
                system_name=self._system_name, checker_count=self.config.checker_count
            )
        return self._report

    @property
    def batches_run(self) -> int:
        return self._batch_index

    @property
    def pending_count(self) -> int:
        return self._session.pending_count if self._session is not None else 0

    @property
    def is_complete(self) -> bool:
        """Whether every submitted claim has been verified."""
        return self._session is None or self._session.is_complete

    def on_batch_complete(self, callback: ProgressCallback) -> "VerificationService":
        """Register a callback invoked with each :class:`BatchResult`."""
        self._callbacks.append(callback)
        return self

    def on_lifecycle_event(self, callback: LifecycleCallback) -> "VerificationService":
        """Register a callback for session lifecycle transitions.

        The callback receives ``(event, service)`` for every event in
        :data:`LIFECYCLE_EVENTS`.
        """
        self._lifecycle_callbacks.append(callback)
        return self

    def _emit(self, event: str) -> None:
        for callback in self._lifecycle_callbacks:
            callback(event, self)

    # ------------------------------------------------------------------ #
    # checkpoint / restore
    # ------------------------------------------------------------------ #
    def snapshot(self, metadata: Mapping[str, object] | None = None):
        """Capture the run as a :class:`~repro.runtime.snapshot.ServiceSnapshot`.

        The snapshot serializes to versioned JSON
        (:meth:`~repro.runtime.snapshot.ServiceSnapshot.save`) and restores
        through :meth:`ScrutinizerBuilder.from_snapshot
        <repro.api.builder.ScrutinizerBuilder.from_snapshot>`; the resumed
        run continues byte-identically to an uninterrupted one.
        """
        from repro.runtime.snapshot import ServiceSnapshot

        snapshot = ServiceSnapshot.capture(self, metadata=metadata)
        self._emit("snapshot")
        return snapshot

    def get_rng_state(self) -> dict:
        """The accuracy-sampling generator state, for checkpointing."""
        return self._rng.bit_generator.state

    def restore_run_state(
        self,
        *,
        system_name: str,
        batch_index: int,
        session: VerificationSession | None,
        report: VerificationReport | None,
        rng_state: dict | None,
        timing_rng_state: dict | None,
        checker_states: Sequence[Mapping[str, object] | None],
    ) -> None:
        """Overwrite the mutable run state (snapshot restore back door).

        Checker states are applied positionally to checkers exposing a
        ``restore_state`` hook; extra or missing states are ignored so a
        restore with customized checkers degrades to fresh behaviour
        instead of failing.
        """
        self._system_name = system_name
        self._batch_index = batch_index
        self._session = session
        self._report = report
        if rng_state is not None:
            self._rng.bit_generator.state = rng_state
        if timing_rng_state is not None:
            self._timing.set_rng_state(timing_rng_state)
        for checker, state in zip(self.checkers, checker_states):
            restore = getattr(checker, "restore_state", None)
            if restore is not None and state is not None:
                restore(state)
        self._emit("restored")

    # ------------------------------------------------------------------ #
    # incremental verification
    # ------------------------------------------------------------------ #
    def submit(self, claim_ids: Sequence[str] | None = None) -> "VerificationService":
        """Enqueue claims for verification (defaults to the whole corpus).

        May be called repeatedly, including between batches: newly submitted
        claims join the pending pool considered by the next batch selection.
        Claims already verified in this run are ignored, and an explicitly
        empty submission is a no-op (the run simply stays complete).
        Unknown claim ids are rejected here, before any batch work starts.
        """
        ids = list(claim_ids) if claim_ids is not None else list(self.corpus.claim_ids)
        unknown = [claim_id for claim_id in ids if claim_id not in self.corpus]
        if unknown:
            raise ClaimError(f"unknown claims submitted: {unknown[:5]!r}")
        if not ids:
            return self
        if self._session is None:
            self._session = VerificationSession(ids)
        else:
            self._session.submit(ids)
        self._emit("submitted")
        return self

    def run_batch(self) -> BatchResult | None:
        """Run one iteration of Algorithm 1; ``None`` when nothing is pending.

        One iteration selects the next claim batch, plans and collects the
        crowd's answers for every claim in it, retrains the classifiers on
        the newly verified claims, and measures classifier accuracy on the
        claims still pending.  A selection that raises leaves the batch
        counter where it was.
        """
        session = self._session
        if session is None or session.is_complete:
            return None
        report = self.report
        planning_started = time.perf_counter()
        pending = session.pending_claim_ids
        batch_predictions = self._predict_pending(pending)
        selection = self.batch_selector.plan_batch(
            self._batch_candidates(pending, batch_predictions),
            self._section_read_costs,
            document_order=self._document_order,
        )
        if not selection.claim_ids:
            # A legal-but-empty selection (possible under a genuine cost
            # threshold with min_batch_size=0) would verify nothing while
            # leaving claims pending — run_to_completion and the serving
            # scheduler would spin forever.  Surface it instead.
            raise InfeasibleSelectionError(
                "batch selection made no progress: no pending claim fits the "
                "cost threshold",
                constraint="cost_threshold",
            )
        self._batch_index += 1
        planning_seconds = time.perf_counter() - planning_started
        report.computation_seconds += planning_seconds

        batch_seconds = 0.0
        verified_claims: list[Claim] = []
        verifications: list[ClaimVerification] = []
        for position, claim_id in enumerate(selection.claim_ids):
            claim = self.corpus.claim(claim_id)
            # Ranked per-claim predictions are materialized lazily, only for
            # the claims actually selected into the batch; the claim's row
            # is the only input its question plan gets.
            if batch_predictions is not None and claim_id in batch_predictions:
                predictions = batch_predictions.predictions_for(claim_id)
            else:
                predictions = None
            verification = self._verify_claim(
                claim, predictions, position, self._batch_index
            )
            session.mark_verified(claim_id)
            report.add(verification)
            verifications.append(verification)
            batch_seconds += verification.elapsed_seconds
            verified_claims.append(claim)

        retrain_started = time.perf_counter()
        self._retrain(verified_claims)
        retrain_seconds = time.perf_counter() - retrain_started
        report.computation_seconds += retrain_seconds

        accuracy: dict[str, float] = {}
        # Accuracy is measured on the still-pending claims; once the run is
        # complete there is no held-out sample left, so nothing is recorded
        # (an all-zero entry here would be a measurement artifact).
        if not session.is_complete:
            accuracy = self._evaluate_accuracy(session.pending_claim_ids)
            report.accuracy_history.append(accuracy)
        # The result gets its own copy: the history entry appended to the
        # report must not be reachable through a callback's BatchResult,
        # where a consumer could mutate it.
        result = BatchResult(
            batch_index=self._batch_index,
            claim_ids=selection.claim_ids,
            verifications=tuple(verifications),
            seconds_spent=batch_seconds,
            planning_seconds=planning_seconds,
            retrain_seconds=retrain_seconds,
            accuracy_by_property=dict(accuracy),
            solver=selection.solver,
            pending_after=session.pending_count,
        )
        for callback in self._callbacks:
            callback(result)
        self._emit("batch")
        if session.is_complete:
            self._emit("completed")
        return result

    def iter_results(self) -> Iterator[ClaimVerification]:
        """Stream per-claim verifications, driving batches as needed.

        Yields every verification of each batch as soon as the batch
        completes, until no submitted claims remain.
        """
        while True:
            result = self.run_batch()
            if result is None:
                return
            yield from result.verifications

    def run_to_completion(
        self,
        claim_ids: Sequence[str] | None = None,
        max_batches: int | None = None,
    ) -> VerificationReport:
        """Drive the loop until done (or ``max_batches``) and return the report."""
        if self._session is None or claim_ids is not None:
            self.submit(claim_ids)
        while not self.is_complete:
            if max_batches is not None and self._batch_index >= max_batches:
                break
            self.run_batch()
        report = self.report
        report.verifications.sort(key=lambda verification: verification.batch_index)
        return report

    # ------------------------------------------------------------------ #
    # bootstrap helpers
    # ------------------------------------------------------------------ #
    def warm_start(self, claim_ids: Sequence[str] | None = None) -> None:
        """Train the translation backend on previously checked claims.

        The classifiers train over the featurizer the service fitted on
        the corpus at construction; the vocabulary is not refitted to
        these claims.
        """
        ids = list(claim_ids) if claim_ids is not None else list(self.corpus.claim_ids)
        claims = [self.corpus.claim(claim_id) for claim_id in ids]
        truths = [self.corpus.ground_truth(claim_id) for claim_id in ids]
        self.translator.bootstrap(claims, truths)

    # ------------------------------------------------------------------ #
    # per-claim verification
    # ------------------------------------------------------------------ #
    def _verify_claim(
        self,
        claim: Claim,
        predictions: Mapping[ClaimProperty, Prediction] | None,
        position: int,
        batch_index: int,
    ) -> ClaimVerification:
        votes: list[bool] = []
        responses: list[CheckerResponse] = []
        plan = None
        if predictions is not None:
            # The plan depends only on the claim, its predictions and the
            # answer source, so every assigned checker works through one.
            plan = self.planner.plan_claim(
                claim, predictions, self.translator, self.answer_source
            )
        for checker in self._assign_checkers(position):
            if plan is None:
                response = checker.verify_manually(claim)
            else:
                response = checker.verify_with_plan(claim, plan)
            responses.append(response)
            if response.decided:
                votes.append(bool(response.verdict))
        elapsed = sum(response.elapsed_seconds for response in responses)
        decided_responses = [response for response in responses if response.decided]
        if votes:
            verdict: bool | None = majority_vote(votes)
        else:
            verdict = None
        chosen_sql = next(
            (response.chosen_sql for response in decided_responses if response.chosen_sql),
            None,
        )
        suggested_value = next(
            (
                response.suggested_value
                for response in decided_responses
                if response.suggested_value is not None
            ),
            None,
        )
        return ClaimVerification(
            claim_id=claim.claim_id,
            verdict=verdict,
            verified_sql=chosen_sql,
            elapsed_seconds=elapsed,
            checker_votes=tuple(votes),
            suggested_value=suggested_value,
            skipped=not bool(votes),
            batch_index=batch_index,
        )

    def _assign_checkers(self, position: int) -> list[Checker]:
        """Round-robin assignment of ``votes_per_claim`` checkers to a claim."""
        count = min(self.config.votes_per_claim, len(self.checkers))
        start = position % len(self.checkers)
        return [self.checkers[(start + offset) % len(self.checkers)] for offset in range(count)]

    # ------------------------------------------------------------------ #
    # batch construction and retraining
    # ------------------------------------------------------------------ #
    def _predict_pending(self, pending: Sequence[str]) -> ClaimBatchPredictions | None:
        """Predictions for every pending claim, as one batch.

        One ``predict_many`` call — a single feature matrix and one matrix
        operation per property.  It is the batch's only prediction: batch
        selection scores its arrays, and each selected claim is planned
        and translated from its row.
        """
        if not self.translator.is_trained:
            return None
        return self.translator.predict_many(
            [self.corpus.claim(claim_id) for claim_id in pending]
        )

    def _batch_candidates(
        self,
        pending: Sequence[str],
        batch_predictions: ClaimBatchPredictions | None,
    ) -> list[BatchCandidate]:
        if batch_predictions is None:
            manual_cost = self.planner.cost_model.manual_cost
            costs = np.full(len(pending), manual_cost)
            utilities = np.ones(len(pending))
        else:
            costs, utilities = self.planner.estimate_scores_batch(batch_predictions)
            self.planner.engine.record(scores_computed=len(pending))
        return [
            BatchCandidate(
                claim_id=claim_id,
                section_id=self.corpus.claim(claim_id).section_id,
                verification_cost=float(costs[index]),
                training_utility=float(utilities[index]),
            )
            for index, claim_id in enumerate(pending)
        ]

    def _retrain(self, verified_claims: Sequence[Claim]) -> None:
        if not verified_claims:
            return
        truths = [self.corpus.ground_truth(claim.claim_id) for claim in verified_claims]
        self.translator.retrain(list(verified_claims), truths)

    # ------------------------------------------------------------------ #
    # accuracy tracking (Figures 8 and 9)
    # ------------------------------------------------------------------ #
    def _evaluate_accuracy(self, pending: Sequence[str]) -> dict[str, float]:
        if not self.translator.is_trained or not pending:
            scores = {prop.value: 0.0 for prop in ClaimProperty.ordered()}
            scores["average"] = 0.0
            return scores
        sample_ids = list(pending)
        if len(sample_ids) > self._accuracy_sample_size:
            chosen = self._rng.choice(
                len(sample_ids), size=self._accuracy_sample_size, replace=False
            )
            sample_ids = [sample_ids[int(index)] for index in chosen]
        claims = [self.corpus.claim(claim_id) for claim_id in sample_ids]
        truths = [self.corpus.ground_truth(claim_id) for claim_id in sample_ids]
        per_property = self.translator.evaluate_accuracy(claims, truths, top_k=1)
        scores = {prop.value: score for prop, score in per_property.items()}
        scores["average"] = float(np.mean(list(per_property.values())))
        return scores
