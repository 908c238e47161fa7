"""Mutable state of one verification run of Algorithm 1."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.errors import SimulationError


class VerificationSession:
    """Tracks which claims remain to verify and which are done.

    The verifications themselves live in the run's
    :class:`~repro.core.report.VerificationReport`; the session keeps only
    the pending order and the verified ids.
    """

    def __init__(self, claim_ids: Sequence[str]) -> None:
        if not claim_ids:
            raise SimulationError("a verification session needs at least one claim")
        self._pending: list[str] = list(dict.fromkeys(claim_ids))
        self._verified: set[str] = set()

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

    def mark_verified(self, claim_id: str) -> None:
        if claim_id not in self._pending:
            raise SimulationError(f"claim {claim_id!r} is not pending verification")
        self._pending.remove(claim_id)
        self._verified.add(claim_id)

    # ------------------------------------------------------------------ #
    # checkpoint state
    # ------------------------------------------------------------------ #
    @classmethod
    def from_state(
        cls, pending: Sequence[str], verified: Iterable[str]
    ) -> "VerificationSession":
        """Rebuild a mid-run session from checkpointed state.

        Unlike the constructor this accepts an empty pending pool: a
        checkpoint taken after the final batch has verified claims but
        nothing left to do.
        """
        session = cls.__new__(cls)
        session._pending = list(dict.fromkeys(pending))
        session._verified = set(verified)
        return session
