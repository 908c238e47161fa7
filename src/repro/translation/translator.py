"""End-to-end claim-to-query translation facade.

:class:`ClaimTranslator` wires the preprocessor, the four property
classifiers and the query generator together.  Algorithm 1 uses it twice
per batch: :meth:`~ClaimTranslator.predict_many` predicts every pending
claim at once (the planner turns each claim's row into answer options),
and — after the crowd validated a selected claim's context —
:meth:`~ClaimTranslator.translate` generates and tentatively executes
candidate queries from that same row.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import asdict, dataclass

from repro.claims.model import Claim, ClaimGroundTruth, ClaimProperty
from repro.config import TranslationConfig
from repro.dataset.database import Database
from repro.errors import FormulaSyntaxError, TranslationError
from repro.formulas.ast import Formula
from repro.formulas.parser import parse_formula
from repro.ml.base import Prediction
from repro.pipeline.batch import ClaimBatchPredictions
from repro.translation.classifiers import PropertyClassifierSuite, SuiteConfig, TrainingExample
from repro.translation.preprocess import ClaimPreprocessor
from repro.translation.querygen import QueryGenerationResult, QueryGenerator


@dataclass(frozen=True)
class TranslationResult:
    """Everything the system derived for one claim."""

    claim: Claim
    generation: QueryGenerationResult
    #: ``True`` = validated, ``False`` = contradicted, ``None`` = undecided
    #: (general claims whose parameter only a human can judge).
    verdict: bool | None
    suggested_values: tuple[float, ...] = ()


class ClaimTranslator:
    """The automated translation component of Scrutinizer."""

    def __init__(
        self,
        database: Database,
        config: TranslationConfig | None = None,
        preprocessor: ClaimPreprocessor | None = None,
        suite_config: SuiteConfig | None = None,
    ) -> None:
        self.config = config if config is not None else TranslationConfig()
        self._preprocessor = preprocessor if preprocessor is not None else ClaimPreprocessor()
        self._suite = PropertyClassifierSuite(self._preprocessor, suite_config)
        self._generator = QueryGenerator(database, config=self.config)

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    @property
    def suite(self) -> PropertyClassifierSuite:
        return self._suite

    @property
    def is_trained(self) -> bool:
        return self._suite.is_trained

    def bootstrap(
        self,
        claims: Sequence[Claim],
        truths: Sequence[ClaimGroundTruth] | None = None,
    ) -> "ClaimTranslator":
        """Fit the feature pipeline if unfitted and, given labels, the classifiers.

        The featurizer is fitted once, on the claims of the first
        bootstrap; a later bootstrap keeps it (a service fits it on its
        whole corpus at construction).  In the paper's warm-start setting
        the previously checked claims provide labels immediately; in the
        cold-start scenario only the claim texts are available, so without
        ``truths`` classifier training waits for the first retrain.
        """
        if not claims:
            raise TranslationError("bootstrap requires at least one claim")
        if not self._preprocessor.is_fitted:
            self._preprocessor.fit(claims)
        if truths is None:
            return self
        if len(claims) != len(truths):
            raise TranslationError("claims and truths must be aligned")
        examples = [
            TrainingExample.from_ground_truth(claim, truth)
            for claim, truth in zip(claims, truths)
        ]
        self._suite.fit(examples)
        return self

    def evaluate_accuracy(
        self,
        claims: Sequence[Claim],
        truths: Sequence[ClaimGroundTruth],
        top_k: int = 1,
    ) -> dict[ClaimProperty, float]:
        """Per-property top-k accuracy on held-out claims.

        Part of the :class:`~repro.api.protocols.TranslationBackend`
        protocol; delegates to the classifier suite.
        """
        return self._suite.evaluate_accuracy(claims, truths, top_k=top_k)

    def retrain(self, claims: Sequence[Claim], truths: Sequence[ClaimGroundTruth]) -> None:
        """Feed newly verified claims back into the classifiers (Algorithm 1)."""
        if len(claims) != len(truths):
            raise TranslationError("claims and truths must be aligned")
        examples = [
            TrainingExample.from_ground_truth(claim, truth)
            for claim, truth in zip(claims, truths)
        ]
        self._suite.retrain(examples)

    # ------------------------------------------------------------------ #
    # prediction and generation
    # ------------------------------------------------------------------ #
    def predict(self, claim: Claim) -> dict[ClaimProperty, Prediction]:
        """Ranked property predictions for one claim: a one-claim batch."""
        return self.predict_many([claim]).predictions_at(0)

    def predict_many(self, claims: Sequence[Claim]) -> ClaimBatchPredictions:
        """Predictions for many claims from one feature matrix.

        The batch front door of the translation component: one shared
        feature-store lookup, one matrix multiplication per property.  The
        returned :class:`~repro.pipeline.batch.ClaimBatchPredictions`
        serves both array consumers (batch-selection scoring) and ranked
        per-claim dictionaries (question planning for selected claims).
        """
        return self._suite.predict_proba_many(claims)

    def translate(
        self,
        claim: Claim,
        predictions: Mapping[ClaimProperty, Prediction],
        validated_context: Mapping[ClaimProperty, Sequence[str]] | None = None,
    ) -> TranslationResult:
        """Translate a claim into candidate queries and a tentative verdict.

        ``predictions`` is the claim's row of the batch predictions (see
        :meth:`predict_many`).  ``validated_context`` carries the
        crowd-confirmed labels per property; for properties not present
        (typically the formula, which the crowd never validates directly)
        the top-k labels of ``predictions`` are used instead, ``k`` set per
        property by the translation config.
        """
        limits = {
            ClaimProperty.RELATION: self.config.top_k_relations,
            ClaimProperty.KEY: self.config.top_k_keys,
            ClaimProperty.ATTRIBUTE: self.config.top_k_attributes,
            ClaimProperty.FORMULA: self.config.top_k_formulas,
        }
        labels: dict[ClaimProperty, list[str]] = {}
        for claim_property, limit in limits.items():
            validated = list((validated_context or {}).get(claim_property, ()))
            labels[claim_property] = validated or [
                label for label, _ in predictions[claim_property].top_k(limit)
            ]
        parameter = claim.parameter
        generation = self._generator.generate(
            relations=labels[ClaimProperty.RELATION],
            keys=labels[ClaimProperty.KEY],
            attributes=labels[ClaimProperty.ATTRIBUTE],
            formulas=self._parse_formulas(labels[ClaimProperty.FORMULA]),
            parameter=parameter,
        )
        verdict: bool | None
        if claim.is_explicit and parameter is not None:
            verdict = generation.has_match
        else:
            verdict = None
        return TranslationResult(
            claim=claim,
            generation=generation,
            verdict=verdict,
            suggested_values=generation.suggested_values(),
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _parse_formulas(labels: Sequence[str]) -> list[Formula]:
        formulas: list[Formula] = []
        for label in labels:
            try:
                formulas.append(parse_formula(label))
            except FormulaSyntaxError:
                continue
        return formulas

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict[str, object]:
        """JSON-compatible state of the translation component.

        Covers the translation config, the fitted preprocessor and the
        classifier suite (models, training examples, retrain count).
        The database is deliberately excluded — it is shared, read-only
        infrastructure that the restoring side already holds.
        """
        return {
            "kind": "claim_translator",
            "config": asdict(self.config),
            "preprocessor": self._preprocessor.to_state(),
            "suite": self._suite.to_state(),
        }

    @classmethod
    def from_state(
        cls,
        database: Database,
        state: Mapping[str, object],
        claim_lookup: Callable[[str], Claim],
    ) -> "ClaimTranslator":
        """Rebuild a translator from :meth:`to_state` output.

        ``claim_lookup`` resolves stored training-example claim ids (e.g.
        ``corpus.claim``).  The restored translator predicts byte-identically
        to the captured one: the preprocessor fits its featurizer again on
        its stored fit corpus, deterministically, and the models restore
        their exact weights.
        """
        config = TranslationConfig(**state["config"])  # type: ignore[arg-type]
        preprocessor = ClaimPreprocessor.from_state(state["preprocessor"])  # type: ignore[arg-type]
        translator = cls(database, config=config, preprocessor=preprocessor)
        translator._suite = PropertyClassifierSuite.from_state(
            state["suite"], preprocessor, claim_lookup  # type: ignore[arg-type]
        )
        return translator
