"""Work-stealing, deadline-aware tenant scheduling for the serving layer.

The original server scheduled rounds with a global barrier: pick the
``max_resident_sessions`` least-recently-scheduled tenants, ``map`` them
over the pool, wait for *all* of them, repeat.  Past a handful of tenants
that shape collapses — every round is as slow as its slowest tenant, and
freed workers idle behind the barrier while runnable tenants wait whole
rounds for a slot.

:class:`TenantScheduler` replaces the round-robin pick with
**weighted-deficit scheduling** and the barrier with a **steal pump**
(driven by :meth:`repro.runtime.pool.WorkerPool.submit` /
:meth:`~repro.runtime.pool.WorkerPool.wait_any` in the server):

* every runnable tenant accrues *deficit credit* each round in proportion
  to its backlog pressure — ``weight = (1 + pending) ** pressure_exponent``
  — and being scheduled costs one unit, so tenants that keep losing slots
  accumulate an ever-stronger claim on the next one (weighted deficit
  round-robin, the classic fair-queueing construction);
* a runnable tenant that has waited ``deadline_rounds`` consecutive
  rounds without a slot jumps the queue outright, which turns fairness
  from a tendency into a bound: no tenant waits more than
  ``deadline_rounds`` plus one drain of the forced cohort;
* the server dispatches the chosen tenants through ``submit`` and refills
  each freed worker from the remainder of the round's schedule instead of
  waiting on a barrier — the refill is counted as a *steal*.

The scheduler is deliberately ignorant of services, pools and snapshots:
it sees lightweight tenant views (anything with ``tenant_id``,
``pending_claims``, ``admission_index`` and ``last_scheduled_round``
attributes) and returns a :class:`RoundDecision`.  The server owns all
bookkeeping; this module owns only the policy, which keeps it
independently testable (including under hypothesis-generated adversarial
arrival orders).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import ConfigurationError

__all__ = [
    "RoundDecision",
    "SchedulerConfig",
    "TenantScheduler",
    "TenantView",
]


class TenantView(Protocol):
    """The minimal tenant surface the scheduler reads (duck-typed)."""

    tenant_id: str
    admission_index: int
    pending_claims: int
    last_scheduled_round: int


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the work-stealing tenant scheduler."""

    #: Backlog pressure: a runnable tenant's share of each round's credit
    #: is proportional to ``(1 + pending) ** pressure_exponent``.  ``0``
    #: gives pure (unweighted) deficit round-robin; ``1`` weighs strictly
    #: by backlog.  The default square root rewards backlog without letting
    #: one huge tenant monopolise the pool.
    pressure_exponent: float = 0.5
    #: Hard anti-starvation bound: a runnable tenant unscheduled for this
    #: many consecutive rounds jumps the queue in the next round.
    deadline_rounds: int = 8

    def __post_init__(self) -> None:
        if self.pressure_exponent < 0:
            raise ConfigurationError("pressure_exponent must be non-negative")
        if self.deadline_rounds < 1:
            raise ConfigurationError("deadline_rounds must be at least 1")


@dataclass(frozen=True)
class RoundDecision:
    """What one scheduling round decided, in dispatch order."""

    #: Tenants granted a batch this round, in dispatch order (deadline
    #: jumpers first, then by descending deficit).
    scheduled: tuple[str, ...]
    #: The subset of ``scheduled`` that jumped the queue on the deadline.
    deadline_boosted: tuple[str, ...]
    #: Runnable tenants that did *not* get a slot this round.
    waiting: tuple[str, ...]


@dataclass
class _TenantState:
    """Per-tenant fairness state (scheduler-private)."""

    deficit: float = 0.0
    #: Consecutive rounds the tenant has been runnable without a slot.
    waiting_rounds: int = 0


@dataclass
class TenantScheduler:
    """Weighted-deficit, deadline-bounded tenant picker (one per server)."""

    config: SchedulerConfig = field(default_factory=SchedulerConfig)
    _states: dict[str, _TenantState] = field(default_factory=dict)

    def waiting_rounds(self, tenant_id: str) -> int:
        """How many consecutive rounds the tenant has waited for a slot."""
        state = self._states.get(tenant_id)
        return state.waiting_rounds if state is not None else 0

    def forget(self, tenant_id: str) -> None:
        """Drop fairness state (tenant removed or fully drained)."""
        self._states.pop(tenant_id, None)

    def select(
        self, runnable: list[TenantView], quota: int
    ) -> RoundDecision:
        """Pick up to ``quota`` distinct tenants for this round.

        ``runnable`` is every tenant with pending work; ``quota`` is the
        round's slot budget (the server passes
        ``min(len(runnable), max_resident_sessions)``).  Tenants absent
        from ``runnable`` have drained: their deficit resets, exactly like
        a deficit-round-robin flow whose queue empties — credit never
        accrues while idle.
        """
        if quota < 0:
            raise ConfigurationError("quota must be non-negative")
        runnable_ids = {view.tenant_id for view in runnable}
        for tenant_id in list(self._states):
            if tenant_id not in runnable_ids:
                self.forget(tenant_id)
        if not runnable or quota == 0:
            return RoundDecision(scheduled=(), deadline_boosted=(), waiting=())
        quota = min(quota, len(runnable))
        weights = {
            view.tenant_id: (1.0 + max(0, view.pending_claims))
            ** self.config.pressure_exponent
            for view in runnable
        }
        total_weight = sum(weights.values())
        for view in runnable:
            state = self._states.setdefault(view.tenant_id, _TenantState())
            state.deficit += quota * weights[view.tenant_id] / total_weight
        forced = [
            view
            for view in runnable
            if self._states[view.tenant_id].waiting_rounds
            >= self.config.deadline_rounds
        ]
        forced.sort(
            key=lambda view: (
                -self._states[view.tenant_id].waiting_rounds,
                view.admission_index,
            )
        )
        forced_ids = {view.tenant_id for view in forced}
        remainder = [view for view in runnable if view.tenant_id not in forced_ids]
        remainder.sort(
            key=lambda view: (
                -self._states[view.tenant_id].deficit,
                view.last_scheduled_round,
                view.admission_index,
            )
        )
        ordered = forced + remainder
        scheduled = ordered[:quota]
        scheduled_ids = tuple(view.tenant_id for view in scheduled)
        boosted = tuple(
            view.tenant_id for view in forced if view.tenant_id in set(scheduled_ids)
        )
        waiting: list[str] = []
        for view in runnable:
            state = self._states[view.tenant_id]
            if view.tenant_id in set(scheduled_ids):
                state.deficit -= 1.0
                state.waiting_rounds = 0
            else:
                state.waiting_rounds += 1
                waiting.append(view.tenant_id)
        return RoundDecision(
            scheduled=scheduled_ids,
            deadline_boosted=boosted,
            waiting=tuple(waiting),
        )
