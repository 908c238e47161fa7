"""Claim preprocessing (Section 4.1, Figure 4).

Preprocessing fits the Figure 4 featurizer on the claims available at
bootstrap and turns batches of claims into the dense feature matrix the
property classifiers consume (:meth:`ClaimPreprocessor.feature_matrix`,
one row per claim).  A single claim is a one-row batch.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import asdict

import numpy as np

from repro.claims.model import Claim
from repro.errors import ConfigurationError, NotFittedError
from repro.text.features import ClaimFeaturizer, FeaturizerConfig


class ClaimPreprocessor:
    """Fits the featurizer once on a corpus of texts and featurizes claim batches.

    The preprocessor is the one owner of "fitted or not": it holds no
    featurizer until :meth:`fit` (or :meth:`fit_texts`) builds one, and a
    second fit raises, so feature indices never change under the
    classifiers trained on them.
    """

    def __init__(self, config: FeaturizerConfig | None = None) -> None:
        self.config = config if config is not None else FeaturizerConfig()
        self._featurizer: ClaimFeaturizer | None = None
        self._fitted_claim_texts: list[str] = []
        self._fitted_sentence_texts: list[str] = []

    @property
    def is_fitted(self) -> bool:
        return self._featurizer is not None

    @property
    def featurizer(self) -> ClaimFeaturizer:
        if self._featurizer is None:
            raise NotFittedError("the claim preprocessor has not been fitted yet")
        return self._featurizer

    def fit(self, claims: Sequence[Claim]) -> "ClaimPreprocessor":
        """Fit the feature pipeline on the claims available at bootstrap."""
        return self.fit_texts(
            [claim.text for claim in claims],
            [claim.context_text for claim in claims],
        )

    def fit_texts(self, claim_texts: Sequence[str], sentence_texts: Sequence[str] | None = None) -> "ClaimPreprocessor":
        if self._featurizer is not None:
            raise ConfigurationError(
                "the featurizer is fitted once; build a new preprocessor to fit other texts"
            )
        self._featurizer = ClaimFeaturizer(self.config, claim_texts, sentence_texts)
        self._fitted_claim_texts = list(claim_texts)
        self._fitted_sentence_texts = (
            list(sentence_texts) if sentence_texts is not None else list(claim_texts)
        )
        return self

    def feature_matrix(self, claims: Sequence[Claim]) -> np.ndarray:
        """Feature matrix for a batch of claims (one row per claim)."""
        return self.featurizer.transform_matrix(
            [claim.text for claim in claims],
            [claim.context_text for claim in claims],
        )

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict[str, object]:
        """JSON-compatible state: featurizer config plus the fit corpus.

        Fitting is a deterministic function of the config and the fit
        texts, so the state stores those instead of vocabularies and IDF
        arrays; :meth:`from_state` fits a new featurizer on them and lands
        on byte-identical feature vectors.
        """
        return {
            "featurizer_config": asdict(self.config),
            "claim_texts": list(self._fitted_claim_texts),
            "sentence_texts": list(self._fitted_sentence_texts),
            "fitted": self.is_fitted,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "ClaimPreprocessor":
        """Rebuild a preprocessor producing byte-identical features."""
        preprocessor = cls(FeaturizerConfig(**state["featurizer_config"]))  # type: ignore[arg-type]
        if state.get("fitted"):
            preprocessor.fit_texts(
                list(state.get("claim_texts", ())),  # type: ignore[arg-type]
                list(state.get("sentence_texts", ())),  # type: ignore[arg-type]
            )
        return preprocessor
