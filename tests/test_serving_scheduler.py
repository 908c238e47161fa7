"""Tenant scheduler policy: fairness, deadlines, no starvation.

The scheduler is pure policy over lightweight tenant views, so these
tests drive it directly — including hypothesis-generated adversarial
backlog sequences — without a server, pool or corpus in sight.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.serving.scheduler import RoundDecision, SchedulerConfig, TenantScheduler


@dataclass
class _View:
    """Minimal stand-in for the server's tenant record."""

    tenant_id: str
    admission_index: int
    pending_claims: int
    last_scheduled_round: int = -1


def _views(*pending: int) -> list[_View]:
    return [
        _View(tenant_id=f"t{index}", admission_index=index, pending_claims=count)
        for index, count in enumerate(pending)
    ]


# ---------------------------------------------------------------------- #
# configuration
# ---------------------------------------------------------------------- #
def test_config_validation():
    with pytest.raises(ConfigurationError):
        SchedulerConfig(pressure_exponent=-0.1)
    with pytest.raises(ConfigurationError):
        SchedulerConfig(deadline_rounds=0)
    SchedulerConfig(pressure_exponent=0.0, deadline_rounds=1)


def test_empty_round_decisions():
    scheduler = TenantScheduler()
    assert scheduler.select([], quota=4) == RoundDecision((), (), ())
    views = _views(3, 3)
    assert scheduler.select(views, quota=0) == RoundDecision((), (), ())
    with pytest.raises(ConfigurationError):
        scheduler.select(views, quota=-1)


# ---------------------------------------------------------------------- #
# weighted-deficit fairness
# ---------------------------------------------------------------------- #
def test_equal_tenants_alternate_across_rounds():
    """Equal backlogs, quota 2: two rounds cover all four tenants."""
    scheduler = TenantScheduler()
    views = _views(5, 5, 5, 5)
    first = scheduler.select(views, quota=2)
    assert first.scheduled == ("t0", "t1")
    assert first.waiting == ("t2", "t3")
    second = scheduler.select(views, quota=2)
    assert second.scheduled == ("t2", "t3")
    assert set(first.scheduled) | set(second.scheduled) == {view.tenant_id for view in views}


def test_backlog_pressure_biases_the_pick():
    """With exponent 1, a 99x backlog wins the first slot outright."""
    scheduler = TenantScheduler(SchedulerConfig(pressure_exponent=1.0))
    decision = scheduler.select(_views(1, 99), quota=1)
    assert decision.scheduled == ("t1",)


def test_zero_exponent_ignores_backlog():
    """Pure deficit round-robin: backlog size never changes the order."""
    scheduler = TenantScheduler(SchedulerConfig(pressure_exponent=0.0))
    decision = scheduler.select(_views(1, 9999), quota=1)
    assert decision.scheduled == ("t0",)


def test_drained_tenant_forgets_its_state():
    scheduler = TenantScheduler()
    views = _views(5, 5)
    scheduler.select(views, quota=1)
    assert scheduler.waiting_rounds("t1") == 1
    # t1 drains (absent from runnable); its fairness state is dropped.
    scheduler.select(views[:1], quota=1)
    assert scheduler.waiting_rounds("t1") == 0


# ---------------------------------------------------------------------- #
# deadline anti-starvation
# ---------------------------------------------------------------------- #
def test_starved_tenant_jumps_the_queue_at_the_deadline():
    """A featherweight tenant is forced in after ``deadline_rounds``."""
    config = SchedulerConfig(pressure_exponent=1.0, deadline_rounds=2)
    scheduler = TenantScheduler(config)
    views = _views(1, 1000, 1000)
    # Rounds 1-2: the heavy tenants' pressure keeps t0 out.
    for _ in range(2):
        decision = scheduler.select(views, quota=1)
        assert "t0" not in decision.scheduled
        assert not decision.deadline_boosted
    # Round 3: t0 has waited deadline_rounds rounds and is forced first.
    decision = scheduler.select(views, quota=1)
    assert decision.scheduled == ("t0",)
    assert decision.deadline_boosted == ("t0",)
    assert scheduler.waiting_rounds("t0") == 0


def test_forced_cohort_orders_by_longest_wait():
    config = SchedulerConfig(pressure_exponent=1.0, deadline_rounds=1)
    scheduler = TenantScheduler(config)
    t0, t1, t2 = _views(1, 1, 1000)
    scheduler.select([t1, t2], quota=1)  # t2's pressure wins; t1 waits 1.
    scheduler.select([t0, t1, t2], quota=1)  # t1 forced in; t0, t2 wait 1.
    scheduler.select([t0, t1, t2], quota=1)  # t0, t2 tied: admission -> t0.
    # t2 has now waited two consecutive rounds and t1 one; the forced
    # cohort drains longest wait first, not by admission order.
    decision = scheduler.select([t0, t1, t2], quota=2)
    assert decision.scheduled == ("t2", "t1")
    assert decision.deadline_boosted == ("t2", "t1")


# ---------------------------------------------------------------------- #
# the starvation bound, under adversarial backlogs
# ---------------------------------------------------------------------- #
@settings(deadline=None, max_examples=40)
@given(
    tenant_count=st.integers(min_value=2, max_value=8),
    pressure_exponent=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    deadline_rounds=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_no_tenant_ever_starves(tenant_count, pressure_exponent, deadline_rounds, data):
    """No runnable tenant waits more than ``deadline_rounds + tenants``.

    The deadline turns fairness into a hard bound: once a tenant hits
    ``deadline_rounds`` consecutive waits it joins the forced cohort,
    which is ordered by longest wait and drains at >= 1 slot per round —
    so even the adversarial case (every other tenant forced first) is
    served within another ``tenant_count`` rounds.  Backlogs and quotas
    are drawn fresh each round to hunt for sequences that break this.
    """
    scheduler = TenantScheduler(
        SchedulerConfig(
            pressure_exponent=pressure_exponent, deadline_rounds=deadline_rounds
        )
    )
    views = _views(*[1] * tenant_count)
    bound = deadline_rounds + tenant_count
    rounds = data.draw(st.integers(min_value=bound + 1, max_value=3 * bound))
    for round_index in range(rounds):
        for view in views:
            view.pending_claims = data.draw(
                st.integers(min_value=1, max_value=10_000),
                label=f"pending[{view.tenant_id}]@{round_index}",
            )
        quota = data.draw(
            st.integers(min_value=1, max_value=tenant_count),
            label=f"quota@{round_index}",
        )
        decision = scheduler.select(views, quota)
        assert len(decision.scheduled) == min(quota, tenant_count)
        assert set(decision.scheduled).isdisjoint(decision.waiting)
        assert set(decision.scheduled) | set(decision.waiting) == {
            view.tenant_id for view in views
        }
        for view in views:
            if view.tenant_id in decision.scheduled:
                view.last_scheduled_round = round_index
            waited = scheduler.waiting_rounds(view.tenant_id)
            assert waited <= bound, (
                f"{view.tenant_id} waited {waited} consecutive rounds, "
                f"beyond the {bound}-round starvation bound"
            )
