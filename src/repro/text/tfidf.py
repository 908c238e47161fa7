"""TF-IDF vectorisation over word n-grams and character n-grams.

The claim featurizer of Figure 4 concatenates TF-IDF scores of the claim's
unigrams and bigrams with TF-IDF scores of every 3 characters.  This module
provides the two n-gram extractors and a small, dependency-free TF-IDF
vectorizer with the usual smoothed inverse document frequency.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError


def word_ngrams(tokens: Sequence[str], orders: Sequence[int] = (1, 2)) -> list[str]:
    """Word n-grams of the requested orders, joined with spaces."""
    grams: list[str] = []
    for order in orders:
        if order < 1:
            raise ConfigurationError("n-gram order must be at least 1")
        if order == 1:
            grams.extend(tokens)
            continue
        for start in range(len(tokens) - order + 1):
            grams.append(" ".join(tokens[start : start + order]))
    return grams


def character_ngrams(text: str, order: int = 3) -> list[str]:
    """Character n-grams of the text ("TF-IDF scores of every 3 characters")."""
    if order < 1:
        raise ConfigurationError("n-gram order must be at least 1")
    compact = " ".join(text.lower().split())
    if len(compact) < order:
        return [compact] if compact else []
    return [compact[index : index + order] for index in range(len(compact) - order + 1)]


class TfidfVectorizer:
    """Minimal TF-IDF vectorizer over caller-provided analyzers.

    The vectorizer is fitted in its constructor: the vocabulary and the
    IDF weights come from ``documents`` and never change afterwards.

    Parameters
    ----------
    analyzer:
        Callable mapping a raw document to its list of terms.
    documents:
        The fit corpus.
    max_features:
        Keep only the ``max_features`` most frequent terms (by document
        frequency); ``None`` keeps everything.
    min_df:
        Drop terms appearing in fewer than ``min_df`` documents.
    """

    def __init__(
        self,
        analyzer: Callable[[str], list[str]],
        documents: Iterable[str],
        max_features: int | None = None,
        min_df: int = 1,
    ) -> None:
        if min_df < 1:
            raise ConfigurationError("min_df must be at least 1")
        self.analyzer = analyzer
        document_frequency: Counter[str] = Counter()
        document_count = 0
        for document in documents:
            document_count += 1
            document_frequency.update(set(analyzer(document)))
        if document_count == 0:
            raise ConfigurationError("cannot fit a TF-IDF vectorizer on an empty corpus")
        eligible = [
            (term, frequency)
            for term, frequency in document_frequency.items()
            if frequency >= min_df
        ]
        eligible.sort(key=lambda item: (-item[1], item[0]))
        if max_features is not None:
            eligible = eligible[:max_features]
        kept_terms = sorted(term for term, _ in eligible)
        self._vocabulary = {term: index for index, term in enumerate(kept_terms)}
        idf = np.zeros(len(self._vocabulary))
        for term, index in self._vocabulary.items():
            frequency = document_frequency[term]
            idf[index] = math.log((1 + document_count) / (1 + frequency)) + 1.0
        self._idf = idf

    @property
    def dimension(self) -> int:
        return len(self._vocabulary)

    def transform_one(self, document: str) -> np.ndarray:
        vector = np.zeros(len(self._vocabulary))
        terms = self.analyzer(document)
        if not terms:
            return vector
        counts = Counter(terms)
        total = sum(counts.values())
        for term, count in counts.items():
            index = self._vocabulary.get(term)
            if index is None:
                continue
            vector[index] = (count / total) * self._idf[index]
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector
