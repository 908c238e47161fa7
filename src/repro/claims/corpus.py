"""The annotated claim corpus tying documents, claims and data together.

The corpus provides (i) the training material for the four property
classifiers, (ii) the ground truth used by the simulated crowd, and (iii)
the descriptive statistics reported in Table 1 of the paper (percentiles of
property value frequencies).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.claims.annotations import CheckerAnnotation
from repro.claims.document import Document
from repro.claims.model import Claim, ClaimGroundTruth, ClaimProperty
from repro.dataset.database import Database
from repro.errors import ClaimError, ConfigurationError


@dataclass(frozen=True)
class AnnotatedClaim:
    """A claim together with its ground truth and checker annotations."""

    claim: Claim
    ground_truth: ClaimGroundTruth
    annotations: tuple[CheckerAnnotation, ...] = ()

    def __post_init__(self) -> None:
        if self.claim.claim_id != self.ground_truth.claim_id:
            raise ClaimError(
                "claim and ground truth ids differ: "
                f"{self.claim.claim_id!r} vs {self.ground_truth.claim_id!r}"
            )

    @property
    def claim_id(self) -> str:
        return self.claim.claim_id


@dataclass(frozen=True)
class PropertyFrequencyProfile:
    """Frequency distribution of one property's values over the corpus."""

    claim_property: ClaimProperty
    counts: dict[str, int]

    @property
    def distinct_values(self) -> int:
        return len(self.counts)

    def percentile(self, percent: float) -> float:
        """The ``percent``-th percentile of value frequencies (Table 1)."""
        if not self.counts:
            return 0.0
        frequencies = np.array(sorted(self.counts.values()), dtype=float)
        return float(np.percentile(frequencies, percent))

    def percentiles(self, percents: Sequence[float] = (10, 25, 50, 95, 99)) -> dict[float, float]:
        return {percent: self.percentile(percent) for percent in percents}

    def most_common(self, count: int) -> list[tuple[str, int]]:
        return Counter(self.counts).most_common(count)


class ClaimCorpus:
    """Document, claims, ground truth and database bundled together."""

    def __init__(
        self,
        document: Document,
        database: Database,
        annotated_claims: Iterable[AnnotatedClaim],
        name: str = "corpus",
    ) -> None:
        self.name = name
        self.document = document
        self.database = database
        self._claims: dict[str, AnnotatedClaim] = {}
        for annotated in annotated_claims:
            if annotated.claim_id in self._claims:
                raise ClaimError(f"duplicate claim id {annotated.claim_id!r} in corpus")
            self._claims[annotated.claim_id] = annotated

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def claim_ids(self) -> tuple[str, ...]:
        return tuple(self._claims)

    @property
    def claim_count(self) -> int:
        return len(self._claims)

    def annotated(self, claim_id: str) -> AnnotatedClaim:
        try:
            return self._claims[claim_id]
        except KeyError:
            raise ClaimError(f"unknown claim {claim_id!r}") from None

    def claim(self, claim_id: str) -> Claim:
        return self.annotated(claim_id).claim

    def ground_truth(self, claim_id: str) -> ClaimGroundTruth:
        return self.annotated(claim_id).ground_truth

    def __iter__(self) -> Iterator[AnnotatedClaim]:
        return iter(self._claims.values())

    def __len__(self) -> int:
        return len(self._claims)

    def __contains__(self, claim_id: object) -> bool:
        return isinstance(claim_id, str) and claim_id in self._claims

    # ------------------------------------------------------------------ #
    # statistics (Table 1 and corpus description)
    # ------------------------------------------------------------------ #
    def explicit_share(self) -> float:
        """Fraction of claims that are explicit (about half in the IEA corpus)."""
        if not self._claims:
            return 0.0
        explicit = sum(1 for annotated in self if annotated.claim.is_explicit)
        return explicit / len(self._claims)

    def property_profile(self, claim_property: ClaimProperty) -> PropertyFrequencyProfile:
        """Frequency distribution of one property's labels over all claims."""
        counts: Counter[str] = Counter()
        for annotated in self:
            counts.update(annotated.ground_truth.property_labels(claim_property))
        return PropertyFrequencyProfile(claim_property=claim_property, counts=dict(counts))

    def incorrect_claim_ids(self) -> tuple[str, ...]:
        return tuple(
            annotated.claim_id for annotated in self if not annotated.ground_truth.is_correct
        )

    # ------------------------------------------------------------------ #
    # splits
    # ------------------------------------------------------------------ #
    def split(self, train_fraction: float, seed: int = 0) -> tuple[list[str], list[str]]:
        """Random train/test split of claim ids."""
        if not 0.0 < train_fraction < 1.0:
            raise ConfigurationError("train_fraction must be in (0, 1)")
        generator = np.random.default_rng(seed)
        ids = list(self._claims)
        generator.shuffle(ids)
        cut = max(1, int(round(train_fraction * len(ids))))
        return ids[:cut], ids[cut:]

    def subset(self, claim_ids: Sequence[str]) -> "ClaimCorpus":
        """A corpus restricted to the given claims (document unchanged)."""
        return ClaimCorpus(
            document=self.document,
            database=self.database,
            annotated_claims=[self.annotated(claim_id) for claim_id in claim_ids],
            name=f"{self.name}-subset",
        )
