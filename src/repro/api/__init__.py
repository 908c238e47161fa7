"""Public verification-service API: protocols, builder, streaming service.

This package is the front door for embedding the Scrutinizer loop:

* :mod:`repro.api.protocols` — the structural extension points
  (:class:`Checker`, :class:`AnswerSource`, :class:`TranslationBackend`,
  whose ``predict_many`` is the planning hot path, and
  :class:`BatchSelector`).
* :mod:`repro.api.builder` — :class:`ScrutinizerBuilder`, fluent
  construction with pluggable backends, and restore from a checkpoint
  (``from_snapshot``).
* :mod:`repro.api.service` — :class:`VerificationService`, the incremental
  engine (``submit`` / ``run_batch`` / ``iter_results`` / callbacks) and
  the one way to run Algorithm 1 (``run_to_completion``).

Reports cross process boundaries through
:meth:`~repro.core.report.VerificationReport.to_json` and
:meth:`~repro.core.report.VerificationReport.from_json`.

Layering contract: layer 10 of the enforced import DAG — may import the
data plane and planners below it (``pipeline``/``planning``, ``crowd``,
``core``/``synth``, ``translation``, ``claims``, …); never ``runtime``,
``serving`` or ``gateway``. Enforced by reprolint; see
``docs/architecture.md``.
"""

from repro.api.builder import ScrutinizerBuilder
from repro.api.protocols import (
    AnswerSource,
    BatchSelector,
    Checker,
    TranslationBackend,
)
from repro.api.service import (
    LIFECYCLE_EVENTS,
    BatchResult,
    LifecycleCallback,
    ProgressCallback,
    VerificationService,
)

__all__ = [
    "AnswerSource",
    "BatchResult",
    "BatchSelector",
    "Checker",
    "LIFECYCLE_EVENTS",
    "LifecycleCallback",
    "ProgressCallback",
    "ScrutinizerBuilder",
    "TranslationBackend",
    "VerificationService",
]
