"""The claim featurizer of Figure 4.

"For each claim in a sentence, we concatenate the sentence embedding with
the TF-IDF scores of the unigrams and bigrams in the claim, followed by the
TF-IDF scores of every 3 characters."  The resulting multi-dimensional
vector is fed to the four property classifiers.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.text.embeddings import HashingWordEmbeddings
from repro.text.tfidf import TfidfVectorizer, character_ngrams, word_ngrams
from repro.text.tokenizer import Tokenizer


@dataclass(frozen=True)
class FeaturizerConfig:
    """Knobs of the feature pipeline."""

    embedding_dimension: int = 64
    word_max_features: int = 2000
    char_max_features: int = 2000
    char_ngram_order: int = 3
    min_df: int = 1
    seed: int = 13


class ClaimFeaturizer:
    """Fits the Figure 4 pipeline on a corpus and featurises claims.

    The featurizer is fitted on the texts available at bootstrap time and
    its vocabulary stays fixed throughout verification: retraining never
    refits it, only a new bootstrap does.  Refitting changes feature
    indices, so every ``fit`` bumps :attr:`generation`; consumers caching
    feature vectors (the pipeline's
    :class:`~repro.pipeline.feature_store.ClaimFeatureStore`) compare
    generations to discard stale rows, and the incremental classifiers
    restart from scratch rather than warm-starting across generations.

    Fitted tables are replaced, never mutated: ``fit`` assigns fresh
    vocabulary, IDF and context-mean objects, and nothing
    writes into them afterwards.  A deep copy therefore wraps the same
    tables in fresh vectorizers and embeddings, and copies only the
    embeddings' base-vector cache, which grows as tokens are seen.  Copies
    share the tables until one of them refits, which leaves the others
    untouched.  The serving layer copies one fitted featurizer per tenant.
    """

    def __init__(self, config: FeaturizerConfig | None = None) -> None:
        self.config = config if config is not None else FeaturizerConfig()
        self._tokenizer = Tokenizer(lowercase=True, remove_stopwords=False)
        self._embeddings = HashingWordEmbeddings(
            dimension=self.config.embedding_dimension, seed=self.config.seed
        )
        self._word_tfidf = TfidfVectorizer(
            analyzer=self._word_analyzer,
            max_features=self.config.word_max_features,
            min_df=self.config.min_df,
        )
        self._char_tfidf = TfidfVectorizer(
            analyzer=self._char_analyzer,
            max_features=self.config.char_max_features,
            min_df=self.config.min_df,
        )
        self._fitted = False
        self._generation = 0

    def __deepcopy__(self, memo: dict[int, object]) -> "ClaimFeaturizer":
        clone = copy.copy(self)
        memo[id(self)] = clone
        clone._embeddings = copy.copy(self._embeddings)
        clone._embeddings._cache = dict(self._embeddings._cache)
        clone._word_tfidf = copy.copy(self._word_tfidf)
        clone._word_tfidf.analyzer = clone._word_analyzer
        clone._char_tfidf = copy.copy(self._char_tfidf)
        clone._char_tfidf.analyzer = clone._char_analyzer
        return clone

    # ------------------------------------------------------------------ #
    # analyzers
    # ------------------------------------------------------------------ #
    def _word_analyzer(self, text: str) -> list[str]:
        return word_ngrams(self._tokenizer(text), orders=(1, 2))

    def _char_analyzer(self, text: str) -> list[str]:
        return character_ngrams(text, order=self.config.char_ngram_order)

    # ------------------------------------------------------------------ #
    # fitting / transforming
    # ------------------------------------------------------------------ #
    def fit(self, claim_texts: Sequence[str], sentence_texts: Sequence[str] | None = None) -> "ClaimFeaturizer":
        """Fit the TF-IDF vocabularies and the embedding smoothing.

        ``claim_texts`` are the claim word sequences, ``sentence_texts`` the
        surrounding sentences (defaults to the claim texts themselves when a
        corpus of full sentences is not available).
        """
        if not claim_texts:
            raise ConfigurationError("cannot fit the featurizer on an empty corpus")
        sentences = list(sentence_texts) if sentence_texts is not None else list(claim_texts)
        self._embeddings.fit(self._tokenizer.tokenize_many(sentences))
        self._word_tfidf.fit(claim_texts)
        self._char_tfidf.fit(claim_texts)
        self._fitted = True
        self._generation += 1
        return self

    def transform_matrix(
        self,
        claim_texts: Sequence[str],
        sentence_texts: Sequence[str] | None = None,
    ) -> np.ndarray:
        """Featurise a batch of claims into a dense matrix.

        Row ``i`` concatenates three segments: the embedding of sentence
        ``i`` (the claim text itself when no sentences are given), then the
        word and character TF-IDF scores of claim ``i``.
        """
        if not self._fitted:
            raise NotFittedError("ClaimFeaturizer.transform_matrix called before fit")
        if sentence_texts is not None and len(sentence_texts) != len(claim_texts):
            raise ConfigurationError("claim_texts and sentence_texts must have the same length")
        if not claim_texts:
            return np.zeros((0, self.dimension))
        sentences = sentence_texts if sentence_texts is not None else claim_texts
        return np.vstack(
            [
                np.concatenate(
                    [
                        self._embeddings.embed_tokens(self._tokenizer(sentence)),
                        self._word_tfidf.transform_one(claim_text),
                        self._char_tfidf.transform_one(claim_text),
                    ]
                )
                for claim_text, sentence in zip(claim_texts, sentences)
            ]
        )

    @property
    def dimension(self) -> int:
        """Total feature dimension after fitting."""
        if not self._fitted:
            raise NotFittedError("ClaimFeaturizer.dimension requested before fit")
        return (
            self.config.embedding_dimension
            + self._word_tfidf.dimension
            + self._char_tfidf.dimension
        )

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    @property
    def generation(self) -> int:
        """How many times :meth:`fit` has run; 0 before the first fit."""
        return self._generation

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict[str, object]:
        """JSON-compatible state composing the component states.

        Stores the fitted vocabularies, IDF weights and embedding context
        means directly (not the fit corpus), so restoring never re-runs
        ``fit`` — and :attr:`generation` survives, keeping
        feature-store generation checks honest across a resume.
        """
        return {
            "config": asdict(self.config),
            "embeddings": self._embeddings.to_state(),
            "word_tfidf": self._word_tfidf.to_state(),
            "char_tfidf": self._char_tfidf.to_state(),
            "fitted": self._fitted,
            "generation": self._generation,
        }

    @classmethod
    def from_state(cls, state: dict[str, object]) -> "ClaimFeaturizer":
        """Rebuild a featurizer producing byte-identical feature vectors."""
        featurizer = cls(FeaturizerConfig(**state["config"]))  # type: ignore[arg-type]
        featurizer._embeddings = HashingWordEmbeddings.from_state(
            state["embeddings"]  # type: ignore[arg-type]
        )
        featurizer._word_tfidf = TfidfVectorizer.from_state(
            featurizer._word_analyzer, state["word_tfidf"]  # type: ignore[arg-type]
        )
        featurizer._char_tfidf = TfidfVectorizer.from_state(
            featurizer._char_analyzer, state["char_tfidf"]  # type: ignore[arg-type]
        )
        featurizer._fitted = bool(state["fitted"])
        featurizer._generation = int(state["generation"])  # type: ignore[arg-type]
        return featurizer
