"""Timeline analysis: what happened *during* a trial.

The aggregate robustness number (§V) hides the dynamics — when the spikes
hit, when the Toggle engaged dropping, how the batch queue backed up.
:class:`TimelineRecorder` subscribes to the resource allocator's observer
hook and materializes per-event records that can be rolled up into
windowed time series (the kind of plot an operator would watch).

Usage::

    recorder = TimelineRecorder()
    system = ServerlessSystem(pet, "MM", pruning=cfg, observer=recorder)
    system.run(tasks)
    for t, rate in zip(*recorder.on_time_rate_series(window=20.0)):
        ...
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..sim.task import Task
from ..system.allocator import EVENT_KINDS

__all__ = ["TimelineEvent", "TimelineRecorder"]


@dataclass(frozen=True)
class TimelineEvent:
    """One observed scheduling event."""

    time: float
    kind: str
    task_id: int
    task_type: int
    on_time: bool | None = None  #: for ``completed`` events


class TimelineRecorder:
    """Callable observer collecting the full event timeline of a trial."""

    def __init__(self) -> None:
        self.events: list[TimelineEvent] = []

    # -- observer protocol ------------------------------------------------
    def __call__(self, kind: str, task: Task, time: float) -> None:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown timeline event kind {kind!r}")
        on_time = None
        if kind == "completed":
            on_time = task.completed_on_time
        self.events.append(
            TimelineEvent(
                time=time,
                kind=kind,
                task_id=task.task_id,
                task_type=task.task_type,
                on_time=on_time,
            )
        )

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def counts(self) -> Counter:
        return Counter(e.kind for e in self.events)

    def times_of(self, kind: str) -> np.ndarray:
        return np.array([e.time for e in self.events if e.kind == kind])

    # -- time series -------------------------------------------------------
    def _window_counts(
        self, times: np.ndarray, span: float, window: float
    ) -> tuple[np.ndarray, np.ndarray]:
        if window <= 0:
            raise ValueError("window must be positive")
        edges = np.arange(0.0, span + window, window)
        counts, _ = np.histogram(times, bins=edges)
        centers = (edges[:-1] + edges[1:]) / 2.0
        return centers, counts.astype(np.float64)

    def span(self) -> float:
        return max((e.time for e in self.events), default=0.0)

    def rate_series(
        self, kind: str, window: float, span: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Windowed event rate (events per time unit) of one kind."""
        span = span if span is not None else self.span()
        centers, counts = self._window_counts(self.times_of(kind), span, window)
        return centers, counts / window

    def on_time_rate_series(
        self, window: float, span: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fraction of completions in each window that met their deadline.

        Windows with no completions report NaN (nothing finished there).
        """
        span = span if span is not None else self.span()
        completed = [e for e in self.events if e.kind == "completed"]
        all_times = np.array([e.time for e in completed])
        good_times = np.array([e.time for e in completed if e.on_time])
        centers, total = self._window_counts(all_times, span, window)
        _, good = self._window_counts(good_times, span, window)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(total > 0, good / np.maximum(total, 1), np.nan)
        return centers, ratio

    def backlog_series(
        self, window: float, span: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate batch-queue backlog: arrivals minus departures
        (dispatch or drop-from-pending) accumulated over time, sampled at
        window boundaries."""
        span = span if span is not None else self.span()
        deltas: list[tuple[float, int]] = []
        waiting: set[int] = set()
        for e in sorted(self.events, key=lambda ev: ev.time):
            if e.kind == "arrived":
                waiting.add(e.task_id)
                deltas.append((e.time, +1))
            elif e.kind in ("dispatched", "dropped_missed", "dropped_proactive"):
                if e.task_id in waiting:
                    waiting.discard(e.task_id)
                    deltas.append((e.time, -1))
        if not deltas:
            centers = np.arange(0.0, span + window, window)[:-1] + window / 2
            return centers, np.zeros_like(centers)
        times = np.array([t for t, _ in deltas])
        steps = np.cumsum([d for _, d in deltas])
        edges = np.arange(0.0, span + window, window)
        centers = (edges[:-1] + edges[1:]) / 2.0
        idx = np.searchsorted(times, edges[1:], side="right") - 1
        values = np.where(idx >= 0, steps[np.clip(idx, 0, None)], 0.0)
        return centers, values.astype(np.float64)

    def defer_churn(self) -> dict[int, int]:
        """Defer decisions per task — how often each waited out an event."""
        churn: Counter = Counter()
        for e in self.events:
            if e.kind == "deferred":
                churn[e.task_id] += 1
        return dict(churn)

    def summary(self) -> str:
        c = self.counts()
        return (
            f"{c.get('arrived', 0)} arrivals, {c.get('dispatched', 0)} dispatches, "
            f"{c.get('deferred', 0)} defers, {c.get('completed', 0)} completions, "
            f"{c.get('dropped_missed', 0)}+{c.get('dropped_proactive', 0)} drops "
            f"(reactive+proactive) over {self.span():.1f} time units"
        )
