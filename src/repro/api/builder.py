"""Fluent construction of verification services.

:class:`ScrutinizerBuilder` assembles the pluggable components of the
verification loop without positional-argument guesswork::

    service = (
        ScrutinizerBuilder(corpus)
        .with_checkers([my_checker])
        .with_answer_source(my_ui_adapter)
        .build_service()
    )
    service.submit()
    for verification in service.iter_results():
        ...

``service.run_to_completion()`` drives the same loop to the end and returns
the report in one call.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.api.protocols import AnswerSource, BatchSelector, Checker, TranslationBackend
from repro.api.service import ProgressCallback, VerificationService
from repro.claims.corpus import ClaimCorpus
from repro.config import ScrutinizerConfig
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.runtime.snapshot import ServiceSnapshot

__all__ = ["ScrutinizerBuilder"]


class ScrutinizerBuilder:
    """Step-by-step configuration of the verification service.

    Every ``with_*`` method returns the builder, so calls chain;
    ``build_service()`` may be called repeatedly — each call constructs a
    fresh service from the accumulated settings.
    """

    def __init__(self, corpus: ClaimCorpus) -> None:
        self._corpus = corpus
        self._config: ScrutinizerConfig | None = None
        self._sequential = False
        self._translator: TranslationBackend | None = None
        self._checkers: list[Checker] | None = None
        self._answer_source: AnswerSource | None = None
        self._batch_selector: BatchSelector | None = None
        self._accuracy_sample_size = 60
        self._callbacks: list[ProgressCallback] = []
        self._snapshot: "ServiceSnapshot | None" = None

    # ------------------------------------------------------------------ #
    # components
    # ------------------------------------------------------------------ #
    def with_config(self, config: ScrutinizerConfig) -> "ScrutinizerBuilder":
        """Set the system configuration (costs, batching, translation)."""
        self._config = config
        return self

    def with_translator(self, translator: TranslationBackend) -> "ScrutinizerBuilder":
        """Use a custom (or pre-trained) translation backend."""
        self._translator = translator
        return self

    def with_checkers(self, checkers: Sequence[Checker]) -> "ScrutinizerBuilder":
        """Use custom checkers instead of the simulated crowd."""
        self._checkers = list(checkers)
        return self

    def with_answer_source(self, answer_source: AnswerSource) -> "ScrutinizerBuilder":
        """Answer planner questions from a custom source (e.g. a UI)."""
        self._answer_source = answer_source
        return self

    def with_batch_selector(self, batch_selector: BatchSelector) -> "ScrutinizerBuilder":
        """Use a custom claim-ordering policy."""
        self._batch_selector = batch_selector
        return self

    def with_accuracy_sample_size(self, sample_size: int) -> "ScrutinizerBuilder":
        """How many pending claims to sample when measuring accuracy."""
        if sample_size < 1:
            raise ConfigurationError("accuracy sample size must be at least 1")
        self._accuracy_sample_size = sample_size
        return self

    def sequential_baseline(self) -> "ScrutinizerBuilder":
        """Disable claim ordering: the *Sequential* baseline of the paper."""
        self._sequential = True
        return self

    # ------------------------------------------------------------------ #
    # checkpoint restore
    # ------------------------------------------------------------------ #
    @classmethod
    def from_snapshot(
        cls, snapshot: "ServiceSnapshot", corpus: ClaimCorpus
    ) -> "ScrutinizerBuilder":
        """A builder whose built service resumes from ``snapshot``.

        ``snapshot`` is a :class:`~repro.runtime.snapshot.ServiceSnapshot`
        (``ServiceSnapshot.load`` reads one from a file).  The snapshot's
        configuration is applied automatically; the resulting service
        continues the checkpointed run byte-identically (same batch
        selections, predictions and verdicts as an uninterrupted run).
        Custom components (checkers, answer sources, batch selectors) still
        have to be re-attached through the usual ``with_*`` methods — only
        their serializable state comes from the snapshot.
        """
        from repro.runtime.snapshot import scrutinizer_config_from_dict

        builder = cls(corpus)
        builder._snapshot = snapshot
        builder.with_config(scrutinizer_config_from_dict(snapshot.config))
        builder.with_accuracy_sample_size(snapshot.accuracy_sample_size)
        return builder

    def on_batch_complete(self, callback: ProgressCallback) -> "ScrutinizerBuilder":
        """Register a progress callback on the built service."""
        self._callbacks.append(callback)
        return self

    # ------------------------------------------------------------------ #
    # assembly
    # ------------------------------------------------------------------ #
    def _resolved_config(self) -> ScrutinizerConfig:
        config = self._config if self._config is not None else ScrutinizerConfig()
        if self._sequential and config.claim_ordering:
            config = config.as_sequential()
        return config

    def build_service(self) -> VerificationService:
        """Construct a :class:`VerificationService` from the settings.

        When the builder came from :meth:`from_snapshot`, the service is
        restored before being returned: the translation backend is rebuilt
        directly from the snapshot state (skipping the cold bootstrap), and
        session, report, batch counter and RNG streams are reinstated.
        """
        translator = self._translator
        if translator is None and self._snapshot is not None and self._snapshot.translator:
            from repro.translation.translator import ClaimTranslator

            translator = ClaimTranslator.from_state(
                self._corpus.database, self._snapshot.translator, self._corpus.claim
            )
        service = VerificationService(
            self._corpus,
            self._resolved_config(),
            translator=translator,
            checkers=self._checkers,
            answer_source=self._answer_source,
            batch_selector=self._batch_selector,
            accuracy_sample_size=self._accuracy_sample_size,
        )
        for callback in self._callbacks:
            service.on_batch_complete(callback)
        if self._snapshot is not None:
            # The translation backend is already in place: either rebuilt
            # from the snapshot state above, or explicitly attached by the
            # caller (in which case the explicit component wins).
            self._snapshot.restore_into(service)
        return service
