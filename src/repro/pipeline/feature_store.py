"""Shared claim-feature store with generation-based invalidation.

Featurization is the single most repeated computation of the verification
loop: Algorithm 1 re-predicts the four properties of every pending claim
after every batch, and every prediction starts from the same feature
vector.  The store featurizes each claim exactly once per *featurizer
generation* and serves whole row matrices, so the classifiers can run one
matrix multiplication per property instead of per-claim Python loops.

Generations make the cache safe: every
:meth:`~repro.text.features.ClaimFeaturizer.fit` bumps the featurizer's
generation, and the store discards all cached rows the moment its recorded
generation no longer matches the preprocessor's — the bug class where a
refit silently kept serving vectors from the old vocabulary cannot occur.

Rows live in one capacity-bounded dict in RAM: the paper's largest
document, the 1,539-claim IEA report, needs about 30 MB of float64 rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.claims.model import Claim
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - cycle broken at runtime: the
    # preprocessor package imports the pipeline for its classifier suite.
    from repro.translation.preprocess import ClaimPreprocessor

__all__ = ["ClaimFeatureStore"]


class ClaimFeatureStore:
    """Caches featurized claim rows keyed by claim id.

    The store never featurizes a claim twice within one featurizer
    generation, and batch requests featurize all missing claims in a single
    :meth:`~repro.translation.preprocess.ClaimPreprocessor.feature_matrix`
    call.  Rows are returned read-only so a cached vector can be handed to
    many consumers without defensive copies.  The cache is
    capacity-bounded (``max_rows``) with insertion-order eviction.
    """

    def __init__(
        self, preprocessor: ClaimPreprocessor, max_rows: int | None = None
    ) -> None:
        if max_rows is not None and max_rows < 1:
            raise ConfigurationError("max_rows must be at least 1 (or None for unbounded)")
        self._preprocessor = preprocessor
        self._rows: dict[str, np.ndarray] = {}
        self._generation = preprocessor.feature_generation
        self._max_rows = max_rows

    @property
    def preprocessor(self) -> ClaimPreprocessor:
        return self._preprocessor

    @property
    def max_rows(self) -> int | None:
        """Cache capacity bound; ``None`` means unbounded.

        A multi-tenant server sets this per session so that many resident
        tenants cannot together hold every feature row of a large corpus in
        memory: each tenant's cache holds its own working set only — the
        stores are per-suite instances, so tenants are isolated from each
        other's invalidations and evictions by construction.
        """
        return self._max_rows

    @max_rows.setter
    def max_rows(self, value: int | None) -> None:
        if value is not None and value < 1:
            raise ConfigurationError("max_rows must be at least 1 (or None for unbounded)")
        self._max_rows = value
        self._evict_over_capacity()

    def forget(self, claim_ids: Sequence[str]) -> int:
        """Drop the cached rows of specific claims (e.g. verified ones).

        Returns how many rows were actually dropped.  Claims that were
        never cached are ignored, so a caller can pass a whole batch.
        """
        dropped = 0
        for claim_id in claim_ids:
            if self._rows.pop(claim_id, None) is not None:
                dropped += 1
        return dropped

    def _evict_over_capacity(self) -> None:
        if self._max_rows is None:
            return
        # Insertion order approximates recency on the verification hot
        # path: each batch re-requests the pending pool, and rows it still
        # needs are re-inserted right after an eviction makes room.
        while len(self._rows) > self._max_rows:
            self._rows.pop(next(iter(self._rows)))

    def _insert(self, claim_id: str, row: np.ndarray) -> None:
        self._rows[claim_id] = row
        self._evict_over_capacity()

    @property
    def generation(self) -> int:
        """The featurizer generation the cached rows belong to."""
        self._sync_generation()
        return self._generation

    @property
    def cached_count(self) -> int:
        self._sync_generation()
        return len(self._rows)

    def invalidate(self) -> None:
        """Drop every cached row (also happens automatically on refits)."""
        self._rows.clear()
        self._generation = self._preprocessor.feature_generation

    def _sync_generation(self) -> None:
        if self._generation != self._preprocessor.feature_generation:
            self.invalidate()

    # ------------------------------------------------------------------ #
    # featurization
    # ------------------------------------------------------------------ #
    def vector(self, claim: Claim) -> np.ndarray:
        """The feature row of one claim (cached, read-only)."""
        self._sync_generation()
        row = self._rows.get(claim.claim_id)
        if row is None:
            row = np.asarray(self._preprocessor.preprocess(claim).features, dtype=float)
            row.setflags(write=False)
            self._insert(claim.claim_id, row)
        return row

    def matrix(self, claims: Sequence[Claim]) -> np.ndarray:
        """Feature matrix with one row per claim, in claim order.

        Missing claims are featurized together in one call; cached claims
        are served from the cache.  The returned matrix is assembled from
        local references, so a capacity bound smaller than the request is
        still served correctly (the overflow just is not cached).
        """
        self._sync_generation()
        rows = self._rows
        by_id = {
            claim.claim_id: rows[claim.claim_id]
            for claim in claims
            if claim.claim_id in rows
        }
        missing = [claim for claim in claims if claim.claim_id not in by_id]
        if missing:
            computed = np.ascontiguousarray(
                self._preprocessor.feature_matrix(missing), dtype=float
            )
            computed.setflags(write=False)
            for index, claim in enumerate(missing):
                by_id[claim.claim_id] = computed[index]
                self._insert(claim.claim_id, computed[index])
        if not claims:
            return np.zeros((0, self._preprocessor.featurizer.dimension))
        return np.vstack([by_id[claim.claim_id] for claim in claims])
