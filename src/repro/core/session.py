"""Mutable state of one verification run of Algorithm 1."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.report import ClaimVerification
from repro.errors import SimulationError


@dataclass(frozen=True)
class BatchRecord:
    """Summary of one iteration of the main loop."""

    batch_index: int
    claim_ids: tuple[str, ...]
    seconds_spent: float
    accuracy_by_property: dict[str, float] = field(default_factory=dict)
    solver: str = ""

    @property
    def batch_size(self) -> int:
        return len(self.claim_ids)

    # ------------------------------------------------------------------ #
    # (de)serialization — used by run checkpoints
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, object]:
        return {
            "batch_index": self.batch_index,
            "claim_ids": list(self.claim_ids),
            "seconds_spent": self.seconds_spent,
            "accuracy_by_property": dict(self.accuracy_by_property),
            "solver": self.solver,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "BatchRecord":
        return cls(
            batch_index=int(payload["batch_index"]),  # type: ignore[arg-type]
            claim_ids=tuple(str(claim_id) for claim_id in payload["claim_ids"]),  # type: ignore[union-attr]
            seconds_spent=float(payload["seconds_spent"]),  # type: ignore[arg-type]
            accuracy_by_property={
                str(series): float(value)
                for series, value in payload.get("accuracy_by_property", {}).items()  # type: ignore[union-attr]
            },
            solver=str(payload.get("solver", "")),
        )


class VerificationSession:
    """Tracks which claims remain to verify and what has been decided."""

    def __init__(self, claim_ids: Sequence[str]) -> None:
        if not claim_ids:
            raise SimulationError("a verification session needs at least one claim")
        self._pending: list[str] = list(dict.fromkeys(claim_ids))
        self._verified: dict[str, ClaimVerification] = {}
        self._batches: list[BatchRecord] = []

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    @property
    def pending_claim_ids(self) -> tuple[str, ...]:
        return tuple(self._pending)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def verified_count(self) -> int:
        return len(self._verified)

    @property
    def is_complete(self) -> bool:
        return not self._pending

    @property
    def batches(self) -> tuple[BatchRecord, ...]:
        return tuple(self._batches)

    @property
    def verifications(self) -> tuple[ClaimVerification, ...]:
        return tuple(self._verified.values())

    # ------------------------------------------------------------------ #
    # transitions
    # ------------------------------------------------------------------ #
    def submit(self, claim_ids: Sequence[str]) -> int:
        """Add claims to the pending pool mid-run; returns how many were new.

        Claims already pending or already verified in this session are
        ignored, so resubmission is safe.
        """
        added = 0
        pending = set(self._pending)
        for claim_id in claim_ids:
            if claim_id in pending or claim_id in self._verified:
                continue
            self._pending.append(claim_id)
            pending.add(claim_id)
            added += 1
        return added

    def mark_verified(self, verification: ClaimVerification) -> None:
        claim_id = verification.claim_id
        if claim_id not in self._pending:
            raise SimulationError(f"claim {claim_id!r} is not pending verification")
        self._pending.remove(claim_id)
        self._verified[claim_id] = verification

    def record_batch(self, record: BatchRecord) -> None:
        self._batches.append(record)

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #
    @classmethod
    def from_state(
        cls,
        pending: Sequence[str],
        verifications: Sequence[ClaimVerification],
        batches: Sequence[BatchRecord],
    ) -> "VerificationSession":
        """Rebuild a mid-run session from checkpointed state.

        Unlike the constructor this accepts an empty pending pool: a
        checkpoint taken after the final batch has verified claims but
        nothing left to do.
        """
        session = cls.__new__(cls)
        session._pending = list(dict.fromkeys(pending))
        session._verified = {
            verification.claim_id: verification for verification in verifications
        }
        session._batches = list(batches)
        return session
