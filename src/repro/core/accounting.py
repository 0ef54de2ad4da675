"""Accounting module (Fig. 4): gathers task meta-data for Toggle/Fairness.

The Accounting module observes the resource-allocation system and keeps
two horizons of bookkeeping:

* *per-mapping-event* counters — deadline misses and on-time completions
  since the previous mapping event; the Toggle reads misses, the Fairness
  module consumes completions (Fig. 5 step 2);
* *cumulative* counters per task type — totals over the whole run, used
  by metrics and the fairness analysis example.

A "deadline miss" is either a reactive drop (deadline already passed) or
a completion after the deadline; both signal oversubscription.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..sim.task import Task, TaskStatus

__all__ = ["Accounting", "TypeCounters"]


@dataclass
class TypeCounters:
    """Cumulative per-task-type tallies."""

    arrived: int = 0
    completed_on_time: int = 0
    completed_late: int = 0
    dropped_missed: int = 0
    dropped_proactive: int = 0
    deferred: int = 0  #: defer decisions (a task may be deferred many times)
    requeued: int = 0  #: churn evictions readmitted (failures/drains)
    #: Subset of ``dropped_proactive``: drops cascaded from a dropped
    #: ancestor in a DAG workload (always 0 for independent tasks).
    dropped_cascade: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_missed + self.dropped_proactive

    @property
    def finished(self) -> int:
        return self.completed_on_time + self.completed_late + self.dropped


def _total(counter: str) -> property:
    """A run-wide total: the sum of one :class:`TypeCounters` field over
    every task type."""
    return property(
        lambda self: sum(getattr(c, counter) for c in self.per_type.values()),
        doc=f"Run-wide ``{counter}`` count, summed over the task types.",
    )


#: The run-wide totals :meth:`Accounting.totals` reports, in payload
#: order; each is the ``total_<name>`` property.
_TOTALS = ("arrived", "on_time", "late", "dropped_missed", "dropped_proactive", "defers")


class Accounting:
    """Event-horizon and cumulative task statistics.

    ``per_type`` is the only cumulative tally; every ``total_*`` is
    derived from it.
    """

    total_arrived = _total("arrived")
    total_on_time = _total("completed_on_time")
    total_late = _total("completed_late")
    total_dropped_missed = _total("dropped_missed")
    total_dropped_proactive = _total("dropped_proactive")
    total_defers = _total("deferred")
    total_requeues = _total("requeued")
    total_dropped_cascade = _total("dropped_cascade")

    def __init__(self) -> None:
        self.per_type: dict[int, TypeCounters] = {}
        # Since-last-mapping-event buffers (flushed by the pruner).
        self._event_on_time: list[Task] = []
        self._event_misses: int = 0

    def _type(self, task: Task) -> TypeCounters:
        c = self.per_type.get(task.task_type)
        if c is None:
            c = self.per_type[task.task_type] = TypeCounters()
        return c

    # ------------------------------------------------------------------
    # Observation hooks, called by the allocator as things happen.
    # ------------------------------------------------------------------
    def record_arrival(self, task: Task) -> None:
        self._type(task).arrived += 1

    def record_completion(self, task: Task) -> None:
        if task.status is TaskStatus.COMPLETED_ON_TIME:
            self._type(task).completed_on_time += 1
            self._event_on_time.append(task)
        elif task.status is TaskStatus.COMPLETED_LATE:
            self._type(task).completed_late += 1
            self._event_misses += 1
        else:
            raise ValueError(f"record_completion on status {task.status}")

    def record_drop(self, task: Task) -> None:
        if task.status is TaskStatus.DROPPED_MISSED:
            self._type(task).dropped_missed += 1
            self._event_misses += 1
        elif task.status is TaskStatus.DROPPED_PROACTIVE:
            self._type(task).dropped_proactive += 1
        else:
            raise ValueError(f"record_drop on status {task.status}")

    def record_cascade(self, task: Task) -> None:
        """The drop just recorded for this task was cascaded from a
        dropped ancestor (call *after* :meth:`record_drop`) — a
        sub-tally that lets reports separate the pruner's own decisions
        from their downstream subgraph cost."""
        if task.status is not TaskStatus.DROPPED_PROACTIVE:
            raise ValueError(f"record_cascade on status {task.status}")
        self._type(task).dropped_cascade += 1

    def record_defer(self, task: Task) -> None:
        self._type(task).deferred += 1

    def record_requeue(self, task: Task) -> None:
        """A machine failure/drain evicted the task and it re-entered
        admission (not a miss: the task is still live)."""
        self._type(task).requeued += 1

    # ------------------------------------------------------------------
    # Mapping-event horizon (consumed by Toggle and Fairness).
    # ------------------------------------------------------------------
    @property
    def misses_since_last_event(self) -> int:
        """Deadline misses (reactive drops + late completions) since the
        previous mapping event — the Toggle's oversubscription signal."""
        return self._event_misses

    def on_time_since_last_event(self) -> list[Task]:
        """Tasks completed on time since the previous mapping event
        (Fig. 5 step 2 input)."""
        return list(self._event_on_time)

    def flush_event(self) -> None:
        """Reset the since-last-event buffers (end of Fig. 5 procedure)."""
        self._event_on_time.clear()
        self._event_misses = 0

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, int]:
        """Run-wide outcome totals by name: the ``/v1/stats`` accounting
        block and the control plane's cumulative signals."""
        return {name: getattr(self, f"total_{name}") for name in _TOTALS}

    def type_histogram(self) -> Counter:
        """On-time completions per task type (fairness analysis)."""
        return Counter({k: v.completed_on_time for k, v in self.per_type.items()})

    def drop_histogram(self) -> Counter:
        return Counter({k: v.dropped for k, v in self.per_type.items()})
