"""The four property classifiers (Section 3.1 / 4.1).

One classifier per query property — relations, primary-key values,
attribute labels and formulas — each trained over the Figure 4 features.
The suite keeps all four aligned, retrains them as labelled claims arrive
(active learning) and exposes the ranked probability distributions consumed
by query generation and by question planning.

The suite predicts in batches only: features come from a shared
:class:`~repro.pipeline.feature_store.ClaimFeatureStore` (featurize each
claim once), and prediction is one probability matrix per property
(:meth:`PropertyClassifierSuite.predict_proba_many`), from which ranked
per-claim predictions are read row by row.  A single claim is a one-row
batch.  Retraining is incremental — softmax weights always continue from
the previous fit.  The featurizer is fitted once, when the translator is
bootstrapped; retraining ignores n-grams outside its vocabulary.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import asdict, dataclass

from repro.claims.model import Claim, ClaimGroundTruth, ClaimProperty
from repro.errors import ConfigurationError, NotFittedError, TranslationError
from repro.ml.knn import KNearestNeighborsClassifier
from repro.ml.logistic import SoftmaxRegressionClassifier
from repro.ml.state import model_from_state, model_to_state
from repro.pipeline.batch import ClaimBatchPredictions, PropertyBatch
from repro.pipeline.feature_store import ClaimFeatureStore
from repro.translation.preprocess import ClaimPreprocessor


@dataclass(frozen=True)
class TrainingExample:
    """One labelled claim: text features plus the four property labels."""

    claim: Claim
    labels: Mapping[ClaimProperty, str]

    @staticmethod
    def from_ground_truth(claim: Claim, truth: ClaimGroundTruth) -> "TrainingExample":
        return TrainingExample(
            claim=claim,
            labels={
                claim_property: truth.primary_label(claim_property)
                for claim_property in ClaimProperty.ordered()
            },
        )


@dataclass
class SuiteConfig:
    """Model-selection and retraining knobs of the classifier suite.

    Each property uses k-NN below ``parametric_threshold`` training
    samples (or with fewer than two labels) and softmax regression above
    it — the paper's setup.  Softmax retrains always continue from the
    previous weights; the featurizer is fitted once and never refitted, so
    the feature dimension never changes under them.  Pass a
    ``SuiteConfig`` to :class:`~repro.translation.translator.ClaimTranslator`
    (``suite_config=``) to change any of these.
    """

    #: Below this many training samples the k-NN fallback is used.
    parametric_threshold: int = 40
    knn_neighbors: int = 5
    learning_rate: float = 0.5
    epochs: int = 120
    l2: float = 1e-3
    seed: int = 0


class PropertyClassifierSuite:
    """Trains and serves the four property classifiers."""

    def __init__(
        self,
        preprocessor: ClaimPreprocessor,
        config: SuiteConfig | None = None,
    ) -> None:
        self._config = config if config is not None else SuiteConfig()
        self._models: dict[ClaimProperty, object] = {}
        self._examples: list[TrainingExample] = []
        self._store = ClaimFeatureStore(preprocessor)
        self._retrain_count = 0

    # ------------------------------------------------------------------ #
    # training data management
    # ------------------------------------------------------------------ #
    @property
    def retrain_count(self) -> int:
        return self._retrain_count

    @property
    def feature_store(self) -> ClaimFeatureStore:
        """The shared claim-feature cache."""
        return self._store

    # ------------------------------------------------------------------ #
    # (re)training
    # ------------------------------------------------------------------ #
    def fit(self, examples: Sequence[TrainingExample] | None = None) -> "PropertyClassifierSuite":
        """Train all four classifiers on the accumulated examples."""
        if examples is not None:
            self._examples = list(examples)
        if not self._examples:
            raise TranslationError("cannot train the classifier suite without examples")
        features = self._store.matrix([example.claim for example in self._examples])
        for claim_property in ClaimProperty.ordered():
            labels = [example.labels[claim_property] for example in self._examples]
            model = self._resolve_model(
                self._models.get(claim_property), len(self._examples), len(set(labels))
            )
            model.fit(features, labels)
            self._models[claim_property] = model
        self._retrain_count += 1
        return self

    def retrain(self, new_examples: Sequence[TrainingExample]) -> "PropertyClassifierSuite":
        """Add newly verified claims as training samples and refit (Algorithm 1)."""
        self._examples.extend(new_examples)
        return self.fit()

    def _resolve_model(self, previous: object | None, sample_count: int, class_count: int):
        """Pick the model for one property, continuing a warm fit if possible.

        k-NN below the parametric threshold or with fewer than two labels;
        otherwise ``previous`` when it is a softmax (its next ``fit``
        continues from its weights), else a new softmax.
        """
        config = self._config
        if sample_count < config.parametric_threshold or class_count < 2:
            return KNearestNeighborsClassifier(k=min(config.knn_neighbors, sample_count))
        if isinstance(previous, SoftmaxRegressionClassifier):
            return previous
        return SoftmaxRegressionClassifier(
            learning_rate=config.learning_rate,
            epochs=config.epochs,
            l2=config.l2,
            seed=config.seed,
        )

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    @property
    def is_trained(self) -> bool:
        return len(self._models) == len(ClaimProperty.ordered())

    def predict_proba_many(self, claims: Sequence[Claim]) -> ClaimBatchPredictions:
        """Batch predictions as per-property probability matrices.

        The hot path of the verification loop: one feature-store lookup for
        the whole batch, then one ``X @ W`` per property.  Ranked
        per-claim :class:`~repro.ml.base.Prediction` objects are
        materialized lazily by the returned batch, typically only for the
        claims selected into the next crowd batch.
        """
        if not self.is_trained:
            raise NotFittedError("the classifier suite has not been trained yet")
        features = self._store.matrix(claims)
        by_property = {
            claim_property: PropertyBatch(
                labels=model.classes,
                probabilities=model.predict_proba_batch(features),
            )
            for claim_property, model in self._models.items()
        }
        return ClaimBatchPredictions(
            [claim.claim_id for claim in claims], by_property
        )

    # ------------------------------------------------------------------ #
    # evaluation helpers (Figures 8-10)
    # ------------------------------------------------------------------ #
    def evaluate_accuracy(
        self,
        claims: Sequence[Claim],
        truths: Sequence[ClaimGroundTruth],
        top_k: int = 1,
    ) -> dict[ClaimProperty, float]:
        """Top-k accuracy of every classifier on held-out claims."""
        if len(claims) != len(truths):
            raise ConfigurationError("claims and truths must be aligned")
        if not claims:
            return {claim_property: 0.0 for claim_property in ClaimProperty.ordered()}
        batch = self.predict_proba_many(claims)
        scores: dict[ClaimProperty, float] = {}
        for claim_property in ClaimProperty.ordered():
            property_batch = batch.by_property[claim_property]
            hits = 0
            for index, truth in enumerate(truths):
                prediction = property_batch.prediction(index)
                top_labels = {label for label, _ in prediction.top_k(top_k)}
                if set(truth.property_labels(claim_property)) & top_labels:
                    hits += 1
            scores[claim_property] = hits / len(claims)
        return scores

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict[str, object]:
        """JSON-compatible state of the whole suite.

        Training examples are stored as claim-id/label pairs (the claims
        themselves come back from the corpus on restore), models through
        their own ``to_state`` hooks.  The preprocessor is *not* included —
        it is shared infrastructure serialized separately by
        :class:`~repro.runtime.snapshot.ServiceSnapshot`.
        """
        return {
            "config": asdict(self._config),
            "examples": [
                {
                    "claim_id": example.claim.claim_id,
                    "labels": {
                        claim_property.value: label
                        for claim_property, label in example.labels.items()
                    },
                }
                for example in self._examples
            ],
            "retrain_count": self._retrain_count,
            "models": {
                claim_property.value: model_to_state(model)
                for claim_property, model in self._models.items()
            },
        }

    @classmethod
    def from_state(
        cls,
        state: Mapping[str, object],
        preprocessor: ClaimPreprocessor,
        claim_lookup: Callable[[str], Claim],
    ) -> "PropertyClassifierSuite":
        """Rebuild a suite around an already-restored preprocessor.

        ``claim_lookup`` resolves the stored claim ids back to corpus
        claims (training examples keep their texts out of the state).  The
        restored models serve byte-identical predictions, and a restored
        softmax continues from its weights at the next retrain, as the
        captured one would have.
        """
        suite = cls(preprocessor, SuiteConfig(**state["config"]))  # type: ignore[arg-type]
        suite._examples = [
            TrainingExample(
                claim=claim_lookup(str(entry["claim_id"])),
                labels={
                    ClaimProperty(claim_property): str(label)
                    for claim_property, label in entry["labels"].items()
                },
            )
            for entry in state.get("examples", ())  # type: ignore[union-attr]
        ]
        suite._retrain_count = int(state.get("retrain_count", 0))  # type: ignore[arg-type]
        suite._models = {
            ClaimProperty(claim_property): model_from_state(model_state)
            for claim_property, model_state in state.get("models", {}).items()  # type: ignore[union-attr]
        }
        return suite
