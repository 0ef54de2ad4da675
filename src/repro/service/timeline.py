"""The live event timeline: the simulator's heap, advanced by a clock.

:class:`AsyncTimeline` *is* a :class:`~repro.sim.engine.Simulator`: it
inherits the heap, ``schedule``/``schedule_in``/``cancel``, the event
counters and :meth:`~repro.sim.engine.Simulator.next_event_time`, so
the entire mapping core — allocator, machines, pruner, estimator,
control plane, dynamics — runs over either driver unchanged, and the
same-timestamp tie-breaking (ascending priority, then scheduling order)
is identical between replay and live by construction.

Only the release of due events differs.  Instead of ``run()``, events
are released by :meth:`fire_due` whenever the owning service's pump
observes the clock has reached them, and :attr:`now` never lags the
clock.  Under a :class:`~repro.service.clock.VirtualClock` advanced
exactly to the next pending event time (the deterministic harness's
protocol), every callback observes the same ``now`` it would under the
simulator — the keystone of the replay-vs-live byte-identity contract.
"""

from __future__ import annotations

import heapq

from ..sim.engine import Simulator
from .clock import Clock

__all__ = ["AsyncTimeline"]


class AsyncTimeline(Simulator):
    """A :class:`Simulator` whose events are released by a clock."""

    def __init__(self, clock: Clock) -> None:
        super().__init__(start_time=clock.now())
        self.clock = clock

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current service time.

        Monotone: never behind the last fired event (so a callback at
        ``t`` sees exactly ``t`` even if the clock string lags) and never
        behind the clock (so live arrivals between events are stamped
        with fresh time — and ``schedule_in`` anchors there).
        """
        c = self.clock.now()
        return c if c > self._now else self._now

    def sync_to_clock(self) -> None:
        """Ratchet ``_now`` up to the clock (pump calls this per step) so
        absolute scheduling guards see current time even during stretches
        where no event fires."""
        c = self.clock.now()
        if c > self._now:
            self._now = c

    # ------------------------------------------------------------------
    def fire_due(self) -> int:
        """Fire every event due at or before the clock's current time.

        Events release in heap order — (time, priority, seq) — exactly
        as :meth:`Simulator.step` would.  ``_now`` ratchets to each
        entry's own timestamp before its callback runs, so callbacks
        never observe a time before their event.  Returns the number of
        callbacks fired.
        """
        fired = 0
        while self._queue:
            head = self._queue[0]
            if head.callback is None:
                heapq.heappop(self._queue)
                continue
            if head.time > self.clock.now():
                break
            entry = heapq.heappop(self._queue)
            if entry.time > self._now:
                self._now = entry.time
            callback, entry.callback = entry.callback, None
            self._events_fired += 1
            callback()
            fired += 1
        return fired
