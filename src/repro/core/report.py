"""Verification reports — the output of the system.

The report maps every verified claim to the query that explains the
decision, flags claims judged incorrect together with suggested corrections,
and aggregates the effort statistics that the evaluation section of the
paper reports (total person-time, savings against the manual baseline,
accuracy of the aggregated verdicts).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.claims.corpus import ClaimCorpus
from repro.errors import ConfigurationError, SerializationError

#: Version stamp of the JSON report format; bump on breaking layout changes.
REPORT_FORMAT_VERSION = 1

#: Working hours assumed when converting seconds to person-weeks
#: ("an eight hours work day and a five day week", Section 6.2).
SECONDS_PER_WORK_WEEK = 8 * 5 * 3600


def seconds_to_weeks(total_seconds: float, checkers: int = 1) -> float:
    """Convert accumulated person-seconds into elapsed weeks for a team."""
    if checkers < 1:
        raise ConfigurationError("checkers must be at least 1")
    return total_seconds / (SECONDS_PER_WORK_WEEK * checkers)


@dataclass(frozen=True)
class ClaimVerification:
    """The verification outcome for a single claim."""

    claim_id: str
    verdict: bool | None
    verified_sql: str | None
    elapsed_seconds: float
    checker_votes: tuple[bool, ...] = ()
    suggested_value: float | None = None
    skipped: bool = False
    batch_index: int = 0

    @property
    def decided(self) -> bool:
        return self.verdict is not None and not self.skipped

    # ------------------------------------------------------------------ #
    # (de)serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, object]:
        """A JSON-compatible representation of this verification."""
        return {
            "claim_id": self.claim_id,
            "verdict": self.verdict,
            "verified_sql": self.verified_sql,
            "elapsed_seconds": self.elapsed_seconds,
            "checker_votes": list(self.checker_votes),
            "suggested_value": self.suggested_value,
            "skipped": self.skipped,
            "batch_index": self.batch_index,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ClaimVerification":
        """Rebuild a verification from :meth:`to_dict` output."""
        verdict = payload.get("verdict")
        if verdict is not None and not isinstance(verdict, bool):
            # A non-boolean verdict (e.g. "false" or 0 from a non-Python
            # producer) would silently count as decided/validated downstream.
            raise SerializationError(
                f"invalid ClaimVerification payload: verdict must be "
                f"true/false/null, got {verdict!r}"
            )
        verified_sql = payload.get("verified_sql")
        if verified_sql is not None and not isinstance(verified_sql, str):
            raise SerializationError(
                f"invalid ClaimVerification payload: verified_sql must be "
                f"a string or null, got {verified_sql!r}"
            )
        try:
            suggested_value = payload.get("suggested_value")
            return cls(
                claim_id=str(payload["claim_id"]),
                verdict=verdict,
                verified_sql=verified_sql,
                elapsed_seconds=float(payload["elapsed_seconds"]),  # type: ignore[arg-type]
                checker_votes=tuple(
                    bool(vote) for vote in payload.get("checker_votes", ())  # type: ignore[union-attr]
                ),
                suggested_value=None if suggested_value is None else float(suggested_value),  # type: ignore[arg-type]
                skipped=bool(payload.get("skipped", False)),
                batch_index=int(payload.get("batch_index", 0)),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(
                f"invalid ClaimVerification payload: {error}"
            ) from error


@dataclass
class VerificationReport:
    """Aggregated outcome of a verification run."""

    system_name: str
    verifications: list[ClaimVerification] = field(default_factory=list)
    #: Time spent by the machine (planning, ILP, retraining), in seconds.
    computation_seconds: float = 0.0
    #: Classifier accuracy history: one entry per batch, keyed by series name.
    accuracy_history: list[Mapping[str, float]] = field(default_factory=list)
    checker_count: int = 1

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def add(self, verification: ClaimVerification) -> None:
        self.verifications.append(verification)

    # ------------------------------------------------------------------ #
    # effort statistics
    # ------------------------------------------------------------------ #
    @property
    def claim_count(self) -> int:
        return len(self.verifications)

    @property
    def decided_count(self) -> int:
        return sum(1 for verification in self.verifications if verification.decided)

    @property
    def total_seconds(self) -> float:
        return sum(verification.elapsed_seconds for verification in self.verifications)

    @property
    def total_weeks(self) -> float:
        return seconds_to_weeks(self.total_seconds, checkers=self.checker_count)

    def cumulative_seconds(self) -> list[float]:
        """Accumulated verification time after each claim (Figure 7 series)."""
        series: list[float] = []
        running = 0.0
        for verification in self.verifications:
            running += verification.elapsed_seconds
            series.append(running)
        return series

    def savings_against(self, baseline: "VerificationReport") -> float:
        """Fractional time savings relative to another report."""
        if baseline.total_seconds == 0:
            return 0.0
        return 1.0 - self.total_seconds / baseline.total_seconds

    # ------------------------------------------------------------------ #
    # result quality
    # ------------------------------------------------------------------ #
    def verdict_accuracy(self, corpus: ClaimCorpus) -> float:
        """Fraction of decided claims whose verdict matches the ground truth."""
        decided = [verification for verification in self.verifications if verification.decided]
        if not decided:
            return 0.0
        hits = sum(
            1
            for verification in decided
            if verification.verdict == corpus.ground_truth(verification.claim_id).is_correct
        )
        return hits / len(decided)

    def incorrect_claims(self) -> list[ClaimVerification]:
        """Claims the crowd judged incorrect, with suggested corrections."""
        return [
            verification
            for verification in self.verifications
            if verification.decided and verification.verdict is False
        ]

    def average_classifier_accuracy(self, series: str = "average") -> float:
        """Mean of one accuracy series over the verification period (Table 2)."""
        values = [entry[series] for entry in self.accuracy_history if series in entry]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def max_classifier_accuracy(self, series: str = "average") -> float:
        values = [entry[series] for entry in self.accuracy_history if series in entry]
        if not values:
            return 0.0
        return max(values)

    # ------------------------------------------------------------------ #
    # (de)serialization — reports cross process boundaries as JSON
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, object]:
        """A JSON-compatible representation of the whole report."""
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "system_name": self.system_name,
            "checker_count": self.checker_count,
            "computation_seconds": self.computation_seconds,
            "accuracy_history": [dict(entry) for entry in self.accuracy_history],
            "verifications": [verification.to_dict() for verification in self.verifications],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "VerificationReport":
        """Rebuild a report from :meth:`to_dict` output."""
        version = payload.get("format_version")
        if version != REPORT_FORMAT_VERSION:
            raise SerializationError(
                f"unsupported report format version {version!r} "
                f"(expected {REPORT_FORMAT_VERSION})"
            )
        try:
            verifications = [
                ClaimVerification.from_dict(entry)
                for entry in payload.get("verifications", ())  # type: ignore[union-attr]
            ]
            report = cls(
                system_name=str(payload["system_name"]),
                verifications=verifications,
                computation_seconds=float(payload.get("computation_seconds", 0.0)),  # type: ignore[arg-type]
                accuracy_history=[
                    {str(series): float(value) for series, value in entry.items()}
                    for entry in payload.get("accuracy_history", ())  # type: ignore[union-attr]
                ],
                checker_count=int(payload.get("checker_count", 1)),  # type: ignore[arg-type]
            )
        except SerializationError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as error:
            raise SerializationError(
                f"invalid VerificationReport payload: {error}"
            ) from error
        return report

    def to_json(self, indent: int | None = None) -> str:
        """Serialize the report to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        """Deserialize a report from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SerializationError(f"report is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise SerializationError("report JSON must be an object")
        return cls.from_dict(payload)

    # ------------------------------------------------------------------ #
    # presentation
    # ------------------------------------------------------------------ #
    def to_rows(self) -> list[dict[str, object]]:
        """Tabular form of the per-claim results (for export or inspection)."""
        return [
            {
                "claim_id": verification.claim_id,
                "verdict": verification.verdict,
                "sql": verification.verified_sql,
                "seconds": round(verification.elapsed_seconds, 2),
                "suggested_value": verification.suggested_value,
                "skipped": verification.skipped,
                "batch": verification.batch_index,
            }
            for verification in self.verifications
        ]
