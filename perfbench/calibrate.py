"""Host-speed calibration for the untraced timings.

Shared 2-core hosts switch between speed states for seconds to minutes
at a time (on the reference box a fixed loop alternates between ~15 ms
and ~30 ms).  A run that lands in the slow state would read ~1.7x
slower with no change to the program, so every timed interval is
bracketed by a short fixed loop that uses none of the program's code,
and reported at the reference speed::

    normalized = raw * REF_S / mean(loop time before, loop time after)

:data:`REF_S` is the loop's time in the reference box's fast state, so
normalized times read like raw times taken in that state.  The loop
mixes the program's kinds of work: small NumPy correlations, cumulative
sums and sorted searches, and Python object construction and method
calls.  Of the loops tried on the reference box, this mix tracked the
program's slow-down best; it still under-reads it by ~10 % in the slow
state, so a run spent wholly there reads somewhat fast.
"""

from __future__ import annotations

import time

import numpy as np

#: Loop time at the reference speed (fast state of a 2-core x86 box).
REF_S = 0.015

_ARRAYS = [np.linspace(0.1, 1.0, n) / n for n in (5, 17, 40, 90)]


class _Entry:
    __slots__ = ("t", "p")

    def __init__(self, t: float) -> None:
        self.t = t
        self.p = t * 0.5

    def shifted(self, dt: float) -> float:
        return self.t + dt * self.p


def _loop() -> float:
    acc = 0.0
    for i in range(500):
        a, b = _ARRAYS[i % 4], _ARRAYS[(i + 1) % 4]
        acc += float(np.cumsum(np.correlate(a, b[::-1], "full"))[-1])
        acc += float(np.searchsorted(np.cumsum(a), 0.5))
    queue: list[_Entry] = []
    for i in range(5000):
        queue.append(_Entry(float(i)))
        acc += queue[-1].shifted(1.5)
        if len(queue) > 256:
            queue.clear()
    return acc


class HostSpeed:
    """Times the calibration loop and converts raw intervals."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        """Loop time: twice the faster of two half-length loops, so a
        preemption inside one of them does not read as a slow host."""
        halves = []
        for _ in range(2):
            t0 = time.perf_counter()
            _loop()
            halves.append(time.perf_counter() - t0)
        dt = 2.0 * min(halves)
        self.samples.append(dt)
        return dt

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier taking raw seconds to reference seconds."""
        return REF_S / (0.5 * (before + after))

    def summary(self) -> dict:
        s = sorted(self.samples)
        return {
            "calibrations": len(s),
            "speed_median": REF_S / s[len(s) // 2],
            "speed_min": REF_S / s[-1],
            "speed_max": REF_S / s[0],
        }


class Segments:
    """Normalized time over a measurement cut into calibrated segments.

    :meth:`maybe_close` ends the current segment once it is
    ``segment_s`` long: the calibration loop runs (outside every timed
    interval), and the segment's raw time and the samples recorded in it
    are scaled by the factor of the loops on either side of it.  With
    ``speed=None`` (traced runs) nothing is calibrated or scaled.
    """

    def __init__(self, speed: HostSpeed | None, segment_s: float = float("inf")) -> None:
        self.speed = speed
        self.segment_s = segment_s
        self.raw_s = 0.0
        self.normalized_s = 0.0
        self.samples: list[float] = []
        self._pending: list[float] = []
        self._before = speed.sample() if speed is not None else 0.0
        self._t0 = time.perf_counter()

    def add(self, sample: float) -> None:
        self._pending.append(sample)

    def maybe_close(self, now: float) -> None:
        if now - self._t0 >= self.segment_s:
            self.close(now)

    def close(self, now: float | None = None) -> None:
        raw = (time.perf_counter() if now is None else now) - self._t0
        if self.speed is None:
            f = 1.0
        else:
            after = self.speed.sample()
            f = HostSpeed.factor(self._before, after)
            self._before = after
        self.raw_s += raw
        self.normalized_s += raw * f
        self.samples.extend(x * f for x in self._pending)
        self._pending.clear()
        self._t0 = time.perf_counter()
