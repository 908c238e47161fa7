"""Shared claim-feature store.

Featurization is the single most repeated computation of the verification
loop: Algorithm 1 re-predicts the four properties of every pending claim
after every batch, and every prediction starts from the same feature
vector.  The store featurizes each claim exactly once and serves whole row
matrices, so the classifiers can run one matrix multiplication per
property instead of per-claim Python loops.  Caching is safe because the
featurizer is fitted once and never refitted: a cached row stays valid for
the life of the store.

Rows live in one plain dict in RAM, with no bound and no eviction: a
store holds at most one row per corpus claim its session featurizes (the
paper's largest document, the 1,539-claim IEA report, needs about 30 MB of
float64 rows).  Snapshots carry no rows and only resident sessions hold
a store, so a server's bound on resident sessions bounds the total.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.claims.model import Claim

if TYPE_CHECKING:  # pragma: no cover - cycle broken at runtime: the
    # preprocessor package imports the pipeline for its classifier suite.
    from repro.translation.preprocess import ClaimPreprocessor

__all__ = ["ClaimFeatureStore"]


class ClaimFeatureStore:
    """Caches featurized claim rows keyed by claim id.

    The store never featurizes a claim twice, and a request featurizes all
    its missing claims in a single
    :meth:`~repro.translation.preprocess.ClaimPreprocessor.feature_matrix`
    call.  :meth:`matrix` is the only way in: a single claim is a one-row
    matrix, and every matrix is a fresh copy, so a consumer writing into it
    cannot corrupt the cache.
    """

    def __init__(self, preprocessor: ClaimPreprocessor) -> None:
        self._preprocessor = preprocessor
        self._rows: dict[str, np.ndarray] = {}

    @property
    def cached_count(self) -> int:
        return len(self._rows)

    # ------------------------------------------------------------------ #
    # featurization
    # ------------------------------------------------------------------ #
    def matrix(self, claims: Sequence[Claim]) -> np.ndarray:
        """Feature matrix with one row per claim, in claim order.

        Missing claims are featurized together in one call; cached claims
        are served from the cache.
        """
        rows = self._rows
        missing = [claim for claim in claims if claim.claim_id not in rows]
        if missing:
            computed = np.ascontiguousarray(
                self._preprocessor.feature_matrix(missing), dtype=float
            )
            for index, claim in enumerate(missing):
                rows[claim.claim_id] = computed[index]
        if not claims:
            return np.zeros((0, self._preprocessor.featurizer.dimension))
        return np.vstack([rows[claim.claim_id] for claim in claims])
