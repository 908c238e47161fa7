"""Deterministic word embeddings replacing the paper's GloVe vectors.

The classifiers of Section 4.1 average pre-trained GloVe vectors over the
sentence to obtain a dense distributed representation.  An offline
reproduction cannot download GloVe, so we substitute *hashed
random-projection embeddings*: every word gets a reproducible pseudo-random
unit vector seeded from a stable hash of the token, and (optionally) a
corpus-fitted co-occurrence smoothing step pulls vectors of words that
frequently appear together closer to each other, which recovers the property
the classifiers actually rely on — related domain terms end up near each
other in the embedding space.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError


def _stable_token_seed(token: str, salt: int) -> int:
    digest = hashlib.sha256(f"{salt}:{token}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class HashingWordEmbeddings:
    """GloVe substitute: deterministic per-token vectors plus smoothing.

    The embeddings are fitted in their constructor: the co-occurrence
    smoothing comes from ``tokenized_texts`` and never changes afterwards.
    For every token we average the base vectors of the other tokens it
    co-occurs with inside a sentence; mixing that context mean into the
    token's own vector makes domain-related words ("electricity",
    "demand", "TWh") more similar, approximating what pre-trained GloVe
    provides out of the box.

    Parameters
    ----------
    tokenized_texts:
        The fit corpus, one token sequence per sentence; an empty corpus
        leaves every token at its base vector.
    dimension:
        Size of the embedding vectors (GloVe commonly uses 50–300; the
        default of 64 keeps the feature matrices small).
    seed:
        Salt mixed into the per-token hash so different instances can
        produce different spaces.
    smoothing:
        Weight in ``[0, 1)`` of the co-occurrence smoothing; ``0``
        disables smoothing entirely.
    """

    def __init__(
        self,
        tokenized_texts: Iterable[Sequence[str]],
        dimension: int = 64,
        seed: int = 13,
        smoothing: float = 0.5,
    ) -> None:
        if dimension < 1:
            raise ConfigurationError("embedding dimension must be positive")
        if not 0.0 <= smoothing < 1.0:
            raise ConfigurationError("smoothing must be in [0, 1)")
        self.dimension = dimension
        self.seed = seed
        self.smoothing = smoothing
        self._cache: dict[str, np.ndarray] = {}
        sums: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(dimension))
        counts: dict[str, int] = defaultdict(int)
        for tokens in tokenized_texts:
            unique = list(dict.fromkeys(tokens))
            if len(unique) < 2:
                continue
            vectors = {token: self._base_vector(token) for token in unique}
            total = np.sum(list(vectors.values()), axis=0)
            for token in unique:
                context = total - vectors[token]
                sums[token] += context / (len(unique) - 1)
                counts[token] += 1
        self._context_means: dict[str, np.ndarray] = {}
        for token, accumulated in sums.items():
            mean = accumulated / counts[token]
            norm = np.linalg.norm(mean)
            if norm > 0:
                self._context_means[token] = mean / norm

    # ------------------------------------------------------------------ #
    # base vectors
    # ------------------------------------------------------------------ #
    def _base_vector(self, token: str) -> np.ndarray:
        cached = self._cache.get(token)
        if cached is not None:
            return cached
        generator = np.random.default_rng(_stable_token_seed(token, self.seed))
        vector = generator.standard_normal(self.dimension)
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector = vector / norm
        self._cache[token] = vector
        return vector

    def vector(self, token: str) -> np.ndarray:
        """Embedding of one token, smoothed when it occurs in the fit corpus."""
        base = self._base_vector(token)
        context = self._context_means.get(token)
        if context is None or self.smoothing == 0.0:
            return base
        mixed = (1.0 - self.smoothing) * base + self.smoothing * context
        norm = np.linalg.norm(mixed)
        return mixed / norm if norm > 0 else base

    # ------------------------------------------------------------------ #
    # sentence embedding
    # ------------------------------------------------------------------ #
    def embed_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """Average the token embeddings (the paper averages GloVe vectors)."""
        if not tokens:
            return np.zeros(self.dimension)
        vectors = [self.vector(token) for token in tokens]
        return np.mean(vectors, axis=0)

    def similarity(self, first: str, second: str) -> float:
        """Cosine similarity between two token embeddings."""
        a = self.vector(first)
        b = self.vector(second)
        denominator = np.linalg.norm(a) * np.linalg.norm(b)
        if denominator == 0:
            return 0.0
        return float(np.dot(a, b) / denominator)
