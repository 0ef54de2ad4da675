"""Clocks and the live timeline: determinism and simulator equivalence.

The pinned contracts:

* :class:`VirtualClock` never touches the OS clock and cannot miss a
  pulse — including the pathological interleaving where the pulse fires
  synchronously right after a waiter's deadline check (the lost-wakeup
  regression);
* :class:`AsyncTimeline` releases same-timestamp events in *exactly*
  the simulator's heap order, because it is a :class:`Simulator` and
  inherits its heap.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.service import AsyncTimeline, VirtualClock, WallClock
from repro.sim.engine import Priority, Simulator


# ----------------------------------------------------------------------
# VirtualClock.
# ----------------------------------------------------------------------
def test_virtual_clock_starts_and_advances():
    clock = VirtualClock(start_time=5.0)
    assert clock.now() == 5.0
    clock.advance(2.5)
    assert clock.now() == 7.5
    clock.advance_to(7.5)  # no-op advance to the same instant is legal
    assert clock.now() == 7.5


def test_virtual_clock_refuses_rewind_and_negative_advance():
    clock = VirtualClock(start_time=3.0)
    with pytest.raises(ValueError, match="rewind"):
        clock.advance_to(2.9)
    with pytest.raises(ValueError, match="negative"):
        clock.advance(-0.1)


def test_virtual_clock_resume_at_rewinds_for_restore():
    """``resume_at`` is the snapshot-restore anchor: unlike advance_to it
    may set any time, including one behind the current reading."""
    clock = VirtualClock(start_time=10.0)
    clock.resume_at(4.0)
    assert clock.now() == 4.0


def test_wait_until_returns_immediately_when_deadline_already_reached(run_async):
    async def scenario():
        clock = VirtualClock(start_time=8.0)
        await clock.wait_until(8.0, asyncio.Event())
        await clock.wait_until(3.0, asyncio.Event())

    run_async(scenario())


def test_wait_until_wakes_on_wake_event_without_deadline(run_async):
    async def scenario():
        clock = VirtualClock()
        wake = asyncio.Event()
        waiter = asyncio.ensure_future(clock.wait_until(None, wake))
        for _ in range(3):
            await asyncio.sleep(0)
        assert not waiter.done()
        wake.set()
        await waiter

    run_async(scenario())


def test_wait_until_cannot_miss_a_synchronous_pulse(run_async):
    """The lost-wakeup regression: a pulse fired synchronously (no await
    between the waiter's park and the advance) must still wake it.

    An ``asyncio.Event``-based tick loses this race — ``ensure_future``
    defers ``Event.wait()``'s first step, so a set-then-clear pulse can
    land before the waiter registers.  The clock registers plain futures
    synchronously inside ``wait_until``, which closes the window.
    """

    async def scenario():
        clock = VirtualClock()
        wake = asyncio.Event()
        waiter = asyncio.ensure_future(clock.wait_until(9.0, wake))
        # One yield: the waiter checks its deadline and parks.
        await asyncio.sleep(0)
        # Synchronous advance — no further awaits before the assert loop.
        clock.advance_to(9.0)
        for _ in range(5):
            await asyncio.sleep(0)
        assert waiter.done()
        await waiter

    run_async(scenario())


def test_wait_until_repulses_until_deadline_reached(run_async):
    """Partial advances re-check and re-park; the deadline advance wakes."""

    async def scenario():
        clock = VirtualClock()
        wake = asyncio.Event()
        waiter = asyncio.ensure_future(clock.wait_until(10.0, wake))
        for t in (2.0, 5.0, 9.9):
            await asyncio.sleep(0)
            clock.advance_to(t)
            for _ in range(3):
                await asyncio.sleep(0)
            assert not waiter.done()
        clock.advance_to(10.0)
        for _ in range(3):
            await asyncio.sleep(0)
        assert waiter.done()
        await waiter

    run_async(scenario())


def test_virtual_clock_leaves_no_waiters_behind(run_async):
    async def scenario():
        clock = VirtualClock()
        wake = asyncio.Event()
        wake.set()
        await clock.wait_until(100.0, wake)  # returns via wake, not pulse
        assert clock._waiters == []

    run_async(scenario())


# ----------------------------------------------------------------------
# WallClock (no real sleeps: only the no-wait paths are exercised).
# ----------------------------------------------------------------------
def test_wall_clock_validates_rate_and_advances_monotonically():
    with pytest.raises(ValueError, match="rate"):
        WallClock(rate=0.0)
    clock = WallClock(rate=50.0, start_time=3.0)
    first = clock.now()
    assert first >= 3.0
    assert clock.now() >= first


def test_wall_clock_resume_at_reanchors():
    clock = WallClock(rate=1.0)
    clock.resume_at(42.0)
    assert 42.0 <= clock.now() < 43.0


def test_wall_clock_wait_until_no_wait_paths(run_async):
    async def scenario():
        clock = WallClock(rate=1.0, start_time=10.0)
        wake = asyncio.Event()
        wake.set()
        await clock.wait_until(10_000.0, wake)  # wake already set
        await clock.wait_until(5.0, asyncio.Event())  # deadline passed

    run_async(scenario())


def test_wall_clock_wait_until_wakes_on_event_before_deadline(run_async):
    async def scenario():
        clock = WallClock(rate=1.0)
        wake = asyncio.Event()
        waiter = asyncio.ensure_future(clock.wait_until(10_000.0, wake))
        await asyncio.sleep(0)
        wake.set()
        await waiter  # resolves via the event, millennia before timeout

    run_async(scenario())


# ----------------------------------------------------------------------
# AsyncTimeline: the simulator contract.
# ----------------------------------------------------------------------
def test_timeline_is_a_simulator():
    """One heap: the live timeline inherits the simulator's scheduling
    surface and overrides only how events are released."""
    assert issubclass(AsyncTimeline, Simulator)
    for name in ("schedule", "schedule_in", "cancel", "pending_events", "events_fired"):
        assert name not in AsyncTimeline.__dict__


def test_timeline_schedule_guards_match_simulator():
    timeline = AsyncTimeline(VirtualClock(start_time=5.0))
    with pytest.raises(ValueError, match="NaN"):
        timeline.schedule(float("nan"), lambda: None)
    with pytest.raises(ValueError, match="past"):
        timeline.schedule(4.0, lambda: None)
    with pytest.raises(ValueError, match="negative"):
        timeline.schedule_in(-1.0, lambda: None)


def test_timeline_cancel_and_counters():
    clock = VirtualClock()
    timeline = AsyncTimeline(clock)
    fired = []
    keep = timeline.schedule(1.0, lambda: fired.append("keep"))
    drop = timeline.schedule(1.0, lambda: fired.append("drop"))
    assert timeline.pending_events == 2
    timeline.cancel(drop)
    assert timeline.pending_events == 1
    assert timeline.next_event_time() == 1.0
    clock.advance_to(1.0)
    assert timeline.fire_due() == 1
    assert fired == ["keep"]
    assert timeline.events_fired == 1
    assert timeline.next_event_time() is None
    assert keep.time == 1.0


def test_timeline_now_ratchets_to_fired_event_then_clock():
    clock = VirtualClock()
    timeline = AsyncTimeline(clock)
    seen = []
    timeline.schedule(3.0, lambda: seen.append(timeline.now))
    clock.advance_to(3.0)
    timeline.fire_due()
    assert seen == [3.0]
    clock.advance_to(7.0)
    assert timeline.now == 7.0  # clock ahead of last event
    timeline.sync_to_clock()
    assert timeline._now == 7.0


def test_timeline_schedule_in_anchors_at_live_clock():
    """From a live ingress context (clock ahead of the last fired event)
    a relative delay must anchor at the *fresh* clock time — anchoring at
    the stale ``_now`` would schedule into the past."""
    clock = VirtualClock()
    timeline = AsyncTimeline(clock)
    clock.advance_to(6.0)
    handle = timeline.schedule_in(2.0, lambda: None)
    assert handle.time == 8.0


def test_timeline_fires_in_simulator_heap_order():
    """Same (time, priority) schedule → byte-identical release order.

    This is the keystone of replay-vs-live equivalence: both drivers
    push onto the same inherited heap, so ascending-priority then
    scheduling-order tie-breaking is shared by construction.
    """
    schedule = [
        (2.0, Priority.MAPPING, "map@2"),
        (1.0, Priority.ARRIVAL, "arr@1"),
        (2.0, Priority.COMPLETION, "done@2"),
        (2.0, Priority.ARRIVAL, "arr@2a"),
        (2.0, Priority.ARRIVAL, "arr@2b"),
        (1.0, Priority.COMPLETION, "done@1"),
        (3.0, Priority.CONTROL, "ctl@3"),
        (2.0, Priority.CONTROL, "ctl@2"),
    ]

    sim_order: list[str] = []
    sim = Simulator()
    for time, priority, label in schedule:
        sim.schedule(time, (lambda x=label: sim_order.append(x)), priority=priority)
    sim.run()

    live_order: list[str] = []
    clock = VirtualClock()
    timeline = AsyncTimeline(clock)
    for time, priority, label in schedule:
        timeline.schedule(time, (lambda x=label: live_order.append(x)), priority=priority)
    while (nxt := timeline.next_event_time()) is not None:
        clock.advance_to(nxt)
        timeline.fire_due()

    assert live_order == sim_order
    assert timeline.now == sim.now


def test_timeline_callbacks_can_reschedule():
    """An event scheduling a follow-up at its own instant fires in the
    same ``fire_due`` sweep (exactly like the simulator's step loop)."""
    clock = VirtualClock()
    timeline = AsyncTimeline(clock)
    order = []

    def first():
        order.append("first")
        timeline.schedule(timeline.now, lambda: order.append("chained"))

    timeline.schedule(1.0, first)
    clock.advance_to(1.0)
    assert timeline.fire_due() == 2
    assert order == ["first", "chained"]
