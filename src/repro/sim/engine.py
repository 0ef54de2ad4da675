"""A minimal, deterministic discrete-event simulation engine.

The paper evaluates its pruning mechanism with a bespoke event-driven
simulator (§V-A).  This module provides that substrate: a time-ordered
event queue with stable tie-breaking, cancellable events, and run-until
semantics.  It is intentionally generic — the serverless system in
:mod:`repro.system` is built on top of it, and tests drive it directly.

Determinism rules:

* events at the same timestamp fire in ascending ``priority``, then in
  scheduling order (a monotonically increasing sequence number);
* cancellation is O(1) (lazy deletion), so schedules never shift.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from collections.abc import Callable

__all__ = ["EventHandle", "Simulator", "Priority"]


class Priority:
    """Standard priorities for same-timestamp ordering.

    Completions fire before arrivals so that a machine slot freed at time
    ``t`` is visible to the mapping event triggered by an arrival at the
    same ``t`` — the ordering the paper's batch-mode description implies
    (mapping happens "upon task completion (and task arrival when machine
    queues are not full)").
    """

    COMPLETION = 0
    #: Cluster-dynamics events (failure/recovery/scaling): after the
    #: completions of the same instant — work finished at ``t`` counts —
    #: but before arrivals, so a task arriving at ``t`` sees the post-churn
    #: cluster it would actually be admitted into.
    DYNAMICS = 5
    #: Control-plane events (scheduled β/α breakpoints of the adaptive
    #: pruning controllers): after churn — the setpoint change should see
    #: the post-churn cluster — but before arrivals, so a mapping event
    #: triggered at the same instant already runs under the new setpoints.
    CONTROL = 7
    ARRIVAL = 10
    MAPPING = 20
    DEFAULT = 50


@dataclass(order=True)
class _QueueEntry:
    time: float
    priority: int
    seq: int
    callback: Callable[[], None] | None = field(compare=False)


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`."""

    __slots__ = ("_entry",)

    def __init__(self, entry: _QueueEntry) -> None:
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry.time

    @property
    def cancelled(self) -> bool:
        return self._entry.callback is None


class Simulator:
    """Event loop: schedule callbacks at future times, run in time order."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[_QueueEntry] = []
        self._seq = itertools.count()
        self._events_fired = 0
        self._running = False

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending_events(self) -> int:
        return sum(1 for e in self._queue if e.callback is not None)

    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = Priority.DEFAULT,
    ) -> EventHandle:
        """Schedule ``callback`` to fire at ``time`` (>= now)."""
        if math.isnan(time):
            raise ValueError("event time is NaN")
        if time < self._now - 1e-12:
            raise ValueError(f"cannot schedule in the past: {time} < now={self._now}")
        entry = _QueueEntry(float(time), priority, next(self._seq), callback)
        heapq.heappush(self._queue, entry)
        return EventHandle(entry)

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = Priority.DEFAULT,
    ) -> EventHandle:
        """Schedule relative to the current time (:attr:`now`)."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule(self.now + delay, callback, priority)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event (no-op if already fired/cancelled)."""
        handle._entry.callback = None

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False when queue is empty."""
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.callback is None:
                continue  # lazily-deleted (cancelled) event
            self._now = entry.time
            callback, entry.callback = entry.callback, None
            self._events_fired += 1
            callback()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, ``until`` is reached, or the event
        budget ``max_events`` is spent.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        fired = 0
        try:
            while self._queue:
                if max_events is not None and fired >= max_events:
                    break
                nxt = self.next_event_time()
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    self._now = until
                    break
                if not self.step():
                    break
                fired += 1
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False

    def next_event_time(self) -> float | None:
        """Time of the earliest pending event (``None`` when drained)."""
        while self._queue and self._queue[0].callback is None:
            heapq.heappop(self._queue)
        return self._queue[0].time if self._queue else None
