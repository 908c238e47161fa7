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

from repro.errors import ConfigurationError, NotFittedError


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

    Parameters
    ----------
    analyzer:
        Callable mapping a raw document to its list of terms.
    max_features:
        Keep only the ``max_features`` most frequent terms (by document
        frequency); ``None`` keeps everything.
    min_df:
        Drop terms appearing in fewer than ``min_df`` documents.
    """

    def __init__(
        self,
        analyzer: Callable[[str], list[str]],
        max_features: int | None = None,
        min_df: int = 1,
    ) -> None:
        if min_df < 1:
            raise ConfigurationError("min_df must be at least 1")
        self.analyzer = analyzer
        self.max_features = max_features
        self.min_df = min_df
        self._vocabulary: dict[str, int] = {}
        self._idf: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # fitting
    # ------------------------------------------------------------------ #
    def fit(self, documents: Iterable[str]) -> "TfidfVectorizer":
        document_frequency: Counter[str] = Counter()
        document_count = 0
        for document in documents:
            document_count += 1
            document_frequency.update(set(self.analyzer(document)))
        if document_count == 0:
            raise ConfigurationError("cannot fit a TF-IDF vectorizer on an empty corpus")
        eligible = [
            (term, frequency)
            for term, frequency in document_frequency.items()
            if frequency >= self.min_df
        ]
        eligible.sort(key=lambda item: (-item[1], item[0]))
        if self.max_features is not None:
            eligible = eligible[: self.max_features]
        kept_terms = sorted(term for term, _ in eligible)
        self._vocabulary = {term: index for index, term in enumerate(kept_terms)}
        idf = np.zeros(len(self._vocabulary))
        for term, index in self._vocabulary.items():
            frequency = document_frequency[term]
            idf[index] = math.log((1 + document_count) / (1 + frequency)) + 1.0
        self._idf = idf
        return self

    # ------------------------------------------------------------------ #
    # transformation
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        return len(self._vocabulary)

    def transform_one(self, document: str) -> np.ndarray:
        if self._idf is None:
            raise NotFittedError("TfidfVectorizer.transform called before fit")
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

    def transform(self, documents: Iterable[str]) -> np.ndarray:
        rows = [self.transform_one(document) for document in documents]
        if not rows:
            return np.zeros((0, len(self._vocabulary)))
        return np.vstack(rows)

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #
    def to_state(self) -> dict[str, object]:
        """JSON-compatible fitted state (everything except the analyzer).

        The analyzer is a caller-provided callable and cannot be
        serialized; :meth:`from_state` takes it back as an argument.
        Vocabulary is stored as a term list in index order, so restored
        transforms are byte-identical.
        """
        terms = sorted(self._vocabulary, key=self._vocabulary.__getitem__)
        return {
            "max_features": self.max_features,
            "min_df": self.min_df,
            "vocabulary": terms,
            "idf": None if self._idf is None else self._idf.tolist(),
        }

    @classmethod
    def from_state(
        cls, analyzer: Callable[[str], list[str]], state: dict[str, object]
    ) -> "TfidfVectorizer":
        """Rebuild a vectorizer whose transforms match byte for byte."""
        vectorizer = cls(
            analyzer,
            max_features=state["max_features"],  # type: ignore[arg-type]
            min_df=int(state["min_df"]),  # type: ignore[arg-type]
        )
        terms = list(state["vocabulary"])  # type: ignore[arg-type]
        vectorizer._vocabulary = {term: index for index, term in enumerate(terms)}
        idf = state.get("idf")
        vectorizer._idf = None if idf is None else np.asarray(idf, dtype=float)
        return vectorizer
