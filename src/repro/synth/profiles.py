"""Skewed frequency profiles calibrated to Table 1 of the paper.

Table 1 reports percentiles of how often each property value (relation,
primary key, attribute, formula) appears across the 1539 checked claims:
half of the values appear at most ~10 times while the most frequent ones
appear hundreds of times.  Zipf-like sampling weights reproduce that shape.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError


def zipf_weights(count: int, exponent: float = 1.1) -> np.ndarray:
    """Normalised Zipf weights for ``count`` items (rank 1 most likely)."""
    if count < 1:
        raise ConfigurationError("count must be at least 1")
    if exponent <= 0:
        raise ConfigurationError("exponent must be positive")
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def frequency_percentiles(
    frequencies: Sequence[int], percents: Sequence[float] = (10, 25, 50, 95, 99)
) -> dict[float, float]:
    """Percentiles of a frequency distribution (the Table 1 computation)."""
    if not frequencies:
        return {percent: 0.0 for percent in percents}
    array = np.asarray(sorted(frequencies), dtype=float)
    return {percent: float(np.percentile(array, percent)) for percent in percents}


#: Paper-reported percentiles of property value frequencies (Table 1),
#: used by the experiments to report paper-vs-measured side by side.
PAPER_TABLE1: dict[str, dict[float, float]] = {
    "relation": {10: 2, 25: 4, 50: 10, 95: 199, 99: 532},
    "key": {10: 2, 25: 2, 50: 4, 95: 39, 99: 107},
    "attribute": {10: 1, 25: 2, 50: 7, 95: 127, 99: 1400},
    "formula": {10: 1, 25: 1, 50: 1, 95: 8, 99: 55},
}

#: Corpus-level counts reported in Section 6 of the paper.
PAPER_CORPUS_COUNTS = {
    "claims": 1539,
    "sentences": 7901,
    "pages": 661,
    "relations": 1791,
    "keys": 830,
    "attributes": 87,
    "formulas": 413,
}
