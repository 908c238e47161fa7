"""The claim featurizer of Figure 4.

"For each claim in a sentence, we concatenate the sentence embedding with
the TF-IDF scores of the unigrams and bigrams in the claim, followed by the
TF-IDF scores of every 3 characters."  The resulting multi-dimensional
vector is fed to the four property classifiers.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
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
    """The Figure 4 pipeline, fitted on a corpus in its constructor.

    ``claim_texts`` are the claim word sequences the TF-IDF vocabularies
    are fitted on, ``sentence_texts`` the surrounding sentences the
    embedding smoothing is fitted on (the claim texts themselves when a
    corpus of full sentences is not available).  The fit happens once:
    the vocabulary stays fixed throughout verification, and retraining
    ignores n-grams outside it.

    The fitted tables (vocabulary, IDF and context-mean objects) are never
    written after construction.  A deep copy therefore wraps the same
    tables in fresh vectorizers and embeddings, and copies only the
    embeddings' base-vector cache, which grows as tokens are seen.  The
    serving layer copies one fitted featurizer per tenant.
    """

    def __init__(
        self,
        config: FeaturizerConfig,
        claim_texts: Sequence[str],
        sentence_texts: Sequence[str] | None = None,
    ) -> None:
        if not claim_texts:
            raise ConfigurationError("cannot fit the featurizer on an empty corpus")
        self.config = config
        self._tokenizer = Tokenizer(lowercase=True, remove_stopwords=False)
        sentences = sentence_texts if sentence_texts is not None else claim_texts
        self._embeddings = HashingWordEmbeddings(
            self._tokenizer.tokenize_many(sentences),
            dimension=config.embedding_dimension,
            seed=config.seed,
        )
        self._word_tfidf = TfidfVectorizer(
            self._word_analyzer,
            claim_texts,
            max_features=config.word_max_features,
            min_df=config.min_df,
        )
        self._char_tfidf = TfidfVectorizer(
            self._char_analyzer,
            claim_texts,
            max_features=config.char_max_features,
            min_df=config.min_df,
        )

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
    # transforming
    # ------------------------------------------------------------------ #
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
        """Total feature dimension."""
        return (
            self.config.embedding_dimension
            + self._word_tfidf.dimension
            + self._char_tfidf.dimension
        )
