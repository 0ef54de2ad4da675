"""Pluggable clocks for the live scheduler service.

The service maps on *service time* — the same axis the simulator calls
``sim.now`` — supplied by a :class:`Clock`:

* :class:`WallClock` derives service time from the monotonic OS clock,
  optionally scaled (``rate > 1`` compresses a recorded trace so a
  100-time-unit workload streams through in seconds);
* :class:`VirtualClock` is advanced explicitly by tests
  (:meth:`~VirtualClock.advance_to`), which is what makes the whole
  service suite deterministic and free of real sleeps.

A park is one plain future, resolved by whichever comes first: the
clock reaching the deadline, or :meth:`Wake.set`.  ``wait_until``
checks both conditions and registers that future with the clock and
with the :class:`Wake` synchronously, before its only ``await`` — so a
wake or an advance that lands between the caller's decision to wait
and the park can never be missed.  A timer resolves only at its own
deadline: an advance short of it leaves the waiter parked.
"""

from __future__ import annotations

import asyncio
import time
from typing import Protocol

__all__ = ["Clock", "Wake", "WallClock", "VirtualClock"]


def _resolve(fut: asyncio.Future) -> None:
    if not fut.done():
        fut.set_result(None)


class Wake:
    """A set/clear flag that resolves the one future parked on it.

    ``set()`` raises the flag and resolves the parked future, if any;
    ``clear()`` only lowers the flag.  Parking is :meth:`Clock.wait_until`'s
    business: it hands the flag its future synchronously, so no task or
    coroutine stands between a ``set()`` and the waiter it wakes.
    """

    __slots__ = ("_flag", "_waiter")

    def __init__(self) -> None:
        self._flag = False
        self._waiter: asyncio.Future | None = None

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        self._flag = True
        waiter, self._waiter = self._waiter, None
        if waiter is not None:
            _resolve(waiter)

    def clear(self) -> None:
        self._flag = False

    def _park(self, fut: asyncio.Future) -> None:
        if self._waiter is not None and not self._waiter.done():
            raise RuntimeError("a waiter is already parked on this Wake")
        self._waiter = fut


class Clock(Protocol):
    """Source of service time and the wait primitive the pump parks on."""

    def now(self) -> float:
        """Current service time."""
        ...  # pragma: no cover - protocol

    def resume_at(self, t: float) -> None:
        """Re-anchor so ``now()`` resumes from ``t`` (snapshot restore)."""
        ...  # pragma: no cover - protocol

    async def wait_until(self, deadline: float | None, wake: Wake) -> None:
        """Sleep until service time reaches ``deadline`` or ``wake`` is set.

        ``deadline=None`` waits for ``wake`` alone.  Implementations must
        check both conditions, then park on one future registered with
        the timer and with ``wake`` before awaiting (no missed wakeups).
        """
        ...  # pragma: no cover - protocol


class WallClock:
    """Service time driven by the monotonic OS clock.

    ``rate`` scales real seconds into service-time units:
    ``now() = base + (monotonic - origin) * rate``.  ``rate=1`` is
    production; a large rate replays recorded traces (whose deadlines
    are in abstract simulator units) quickly while preserving ordering.
    """

    def __init__(self, rate: float = 1.0, *, start_time: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self._base = float(start_time)
        self._origin = time.monotonic()

    def now(self) -> float:
        return self._base + (time.monotonic() - self._origin) * self.rate

    def resume_at(self, t: float) -> None:
        self._base = float(t)
        self._origin = time.monotonic()

    async def wait_until(self, deadline: float | None, wake: Wake) -> None:
        if wake.is_set():
            return
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        if deadline is None:
            wake._park(fut)
            await fut
            return
        delay = (deadline - self.now()) / self.rate
        if delay <= 0:
            return
        wake._park(fut)
        handle = loop.call_later(delay, _resolve, fut)
        try:
            await fut
        finally:
            handle.cancel()


class VirtualClock:
    """Explicitly advanced service time — the deterministic test clock.

    Tests (and :func:`~repro.service.service.run_until_quiescent`) move
    time with :meth:`advance_to`/:meth:`advance`; each advance resolves
    the timers whose deadline it reaches and leaves every other waiter
    parked.  Nothing here ever touches the OS clock, so a suite built on
    this clock contains zero real sleeps by construction.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: ``(deadline, future)`` of every parked ``wait_until``.
        self._timers: list[tuple[float, asyncio.Future]] = []

    def now(self) -> float:
        return self._now

    def resume_at(self, t: float) -> None:
        self._now = float(t)
        self._fire_due()

    # ------------------------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Move service time forward to ``t`` (never backward)."""
        if t < self._now:
            raise ValueError(f"cannot rewind virtual time: {t} < now={self._now}")
        self._now = float(t)
        self._fire_due()

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative advance: {dt}")
        self.advance_to(self._now + dt)

    def _fire_due(self) -> None:
        if not self._timers:
            return
        now = self._now
        pending = []
        for timer in self._timers:
            if timer[0] <= now:
                _resolve(timer[1])
            else:
                pending.append(timer)
        self._timers = pending

    # ------------------------------------------------------------------
    async def wait_until(self, deadline: float | None, wake: Wake) -> None:
        if wake.is_set() or (deadline is not None and self._now >= deadline):
            return
        fut = asyncio.get_running_loop().create_future()
        wake._park(fut)
        if deadline is None:
            await fut
            return
        timer = (deadline, fut)
        self._timers.append(timer)
        try:
            await fut
        finally:
            # Woken (or cancelled) before the deadline: drop the timer.
            if timer in self._timers:
                self._timers.remove(timer)
