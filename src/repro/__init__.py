"""Reproduction of the Scrutinizer claim-verification system (VLDB 2020).

The front door is the verification-service API in :mod:`repro.api`::

    from repro import ScrutinizerBuilder

    service = ScrutinizerBuilder(corpus).build_service()
    service.submit()                      # enqueue claims (all, or a subset)
    for verification in service.iter_results():
        print(verification.claim_id, verification.verdict)
    report = service.report               # aggregate effort and accuracy
    payload = report.to_json()            # ship across process boundaries

Every stage of the loop is a swappable protocol
(:class:`~repro.api.protocols.Checker`,
:class:`~repro.api.protocols.AnswerSource`,
:class:`~repro.api.protocols.TranslationBackend`,
:class:`~repro.api.protocols.BatchSelector`): the builder wires in custom
implementations — a real checker UI instead of the simulated crowd, a
different learner, a different claim-ordering policy — without touching the
loop.  ``service.run_to_completion()`` runs the loop to the end in one
call; see ``docs/api.md`` for the full tour.

The substrates, mirroring the paper's structure:

* :mod:`repro.dataset` and :mod:`repro.sqlengine` — an in-memory relational
  store and an executor for the statistical-check SQL fragment the paper
  verifies claims with (Definition 3).
* :mod:`repro.text` and :mod:`repro.ml` — the feature pipeline (Figure 4) and
  the classifiers used for claim-to-query translation.
* :mod:`repro.pipeline` — the vectorized batch pipeline: the shared claim
  feature store, batch-prediction containers and array-based planning
  scores that keep the per-batch hot path free of per-claim Python loops.
* :mod:`repro.formulas`, :mod:`repro.claims` and :mod:`repro.translation` —
  the claim model, the formula generalisation machinery (Section 4.2) and the
  query-generation algorithm (Algorithm 2).
* :mod:`repro.planning` — cost-based question planning and claim ordering
  (Section 5).
* :mod:`repro.crowd`, :mod:`repro.core` and :mod:`repro.simulation` — the
  simulated crowd of domain experts, the main verification loop
  (Algorithm 1) and the full-report simulator used in Section 6.2.
* :mod:`repro.runtime` — versioned JSON checkpoints with byte-identical
  resume (:class:`~repro.runtime.snapshot.ServiceSnapshot`) and the worker
  pool the server schedules on.
* :mod:`repro.serving` — the multi-tenant serving layer: one
  :class:`~repro.serving.server.VerificationServer` multiplexes many tenant
  sessions behind admission control, passivating idle sessions to
  snapshots and rehydrating them on demand (``python -m repro.serving``).
* :mod:`repro.synth` — a synthetic substitute for the proprietary IEA corpus.
* :mod:`repro.experiments` — one entry point per table/figure of the paper.
"""

from repro.api.builder import ScrutinizerBuilder
from repro.api.protocols import AnswerSource, BatchSelector, Checker, TranslationBackend
from repro.api.service import BatchResult, VerificationService
from repro.claims.model import Claim, ClaimProperty, ComparisonOp
from repro.core.report import ClaimVerification, VerificationReport
from repro.dataset.database import Database
from repro.dataset.relation import Relation
from repro.pipeline.batch import ClaimBatchPredictions
from repro.pipeline.feature_store import ClaimFeatureStore
from repro.runtime.snapshot import ServiceSnapshot
from repro.serving.server import AdmissionPolicy, VerificationServer
from repro.synth.report_generator import SyntheticCorpusConfig, generate_corpus
from repro.translation.translator import ClaimTranslator

__version__ = "1.3.0"

__all__ = [
    "AdmissionPolicy",
    "AnswerSource",
    "BatchResult",
    "BatchSelector",
    "Checker",
    "Claim",
    "ClaimBatchPredictions",
    "ClaimFeatureStore",
    "ClaimProperty",
    "ClaimTranslator",
    "ClaimVerification",
    "ComparisonOp",
    "Database",
    "Relation",
    "ScrutinizerBuilder",
    "ServiceSnapshot",
    "SyntheticCorpusConfig",
    "TranslationBackend",
    "VerificationReport",
    "VerificationServer",
    "VerificationService",
    "generate_corpus",
    "__version__",
]
