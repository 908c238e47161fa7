"""Public verification-service API: protocols, builder, streaming service.

This package is the front door for embedding the Scrutinizer loop:

* :mod:`repro.api.protocols` — the structural extension points
  (:class:`Checker`, :class:`AnswerSource`, :class:`TranslationBackend`
  with its batch extension :class:`BatchTranslationBackend`,
  :class:`BatchSelector`).
* :mod:`repro.api.builder` — :class:`ScrutinizerBuilder`, fluent
  construction with pluggable backends.
* :mod:`repro.api.service` — :class:`VerificationService`, the incremental
  engine (``submit`` / ``run_batch`` / ``iter_results`` / callbacks).
* :mod:`repro.api.serialization` — JSON report files.

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
    BatchTranslationBackend,
    Checker,
    TranslationBackend,
)
from repro.api.serialization import read_report, write_report
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
    "BatchTranslationBackend",
    "Checker",
    "LIFECYCLE_EVENTS",
    "LifecycleCallback",
    "ProgressCallback",
    "ScrutinizerBuilder",
    "TranslationBackend",
    "VerificationService",
    "read_report",
    "write_report",
]
