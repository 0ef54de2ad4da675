"""Heuristic interfaces and the shared two-phase batch planner.

§III of the paper: immediate-mode heuristics map each arriving task on the
spot; batch-mode heuristics keep an arrival (batch) queue and, at every
mapping event, run a two-phase process over a *virtual queue*:

  phase 1 — for every unmapped task find its best machine (per-heuristic
            objective, here: minimum expected completion time);
  phase 2 — among the resulting (task, machine) pairs pick the winner by
            the heuristic's selection rule, virtually assign it, repeat
            until machine-queue slots are exhausted or no tasks remain.

The planner below vectorizes both phases with NumPy over a
``(tasks, machines)`` expected-completion matrix built from per-machine
availability accumulators — no Python loops over the batch queue.  A
mapping event re-plans after every round of dispatches and defers (Fig. 5
steps 7–11); :class:`PlanningContext` carries the event's arrays from one
round to the next.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..sim.cluster import Cluster
from ..sim.machine import Machine
from ..sim.task import Task

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..system.completion import CompletionEstimator

__all__ = [
    "ImmediateHeuristic",
    "BatchHeuristic",
    "TwoPhaseBatchHeuristic",
    "PlanningContext",
    "Plan",
    "PlanEntry",
]

#: One planned assignment: (task, machine).
PlanEntry = tuple[Task, Machine]
Plan = list[PlanEntry]


class ImmediateHeuristic(abc.ABC):
    """Maps each task to a machine immediately upon arrival (Fig. 1a)."""

    #: Registry name, e.g. ``"MCT"``.
    name: str = "?"
    mode = "immediate"

    @abc.abstractmethod
    def select_machine(
        self,
        task: Task,
        cluster: Cluster,
        estimator: CompletionEstimator,
        now: float,
    ) -> Machine:
        """Pick the machine for ``task``."""

    def reset(self) -> None:
        """Clear any internal state (e.g. round-robin pointers)."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


class BatchHeuristic(abc.ABC):
    """Plans assignments for a batch of unmapped tasks (Fig. 1b)."""

    name: str = "?"
    mode = "batch"

    @abc.abstractmethod
    def plan(
        self,
        tasks: Sequence[Task],
        cluster: Cluster,
        estimator: CompletionEstimator,
        now: float,
    ) -> Plan:
        """Return virtual assignments respecting machine-queue slots.

        The plan is ordered (earlier entries were selected first); the
        allocator dispatches entries in order, re-checking chance of
        success against the *real* queue state as it goes.  Within a
        mapping event the allocator passes its :class:`PlanningContext`
        as ``tasks``: a sequence of the pending tasks that also carries
        the event's arrays, which a heuristic may reuse.
        """

    def reset(self) -> None:
        """Clear any internal state."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"


def _exec_mean_matrix(
    tasks: Sequence[Task], machines: Sequence[Machine], estimator: CompletionEstimator
) -> np.ndarray:
    """``(len(tasks), len(machines))`` expected execution times."""
    model = estimator.model
    means = getattr(model, "means", None)
    if means is not None:
        ttypes = np.fromiter((t.task_type for t in tasks), dtype=np.int64, count=len(tasks))
        mtypes = np.fromiter(
            (m.machine_type for m in machines), dtype=np.int64, count=len(machines)
        )
        return np.asarray(means)[ttypes][:, mtypes]
    # Fallback for models without a dense means table.
    return np.array(
        [[model.mean(t.task_type, m.machine_type) for m in machines] for t in tasks]
    )


class PlanningContext(Sequence[Task]):
    """One batch mapping event's planning state (Fig. 5 steps 7–11): a
    sequence of the event's pending tasks that carries the arrays the
    two-phase planner reads.

    The allocator re-plans the remaining tasks after every round of
    dispatches and defers, and nearly every round under deferring
    dispatches nothing, so no machine moves before the next round.  The
    context keeps what a round reads: the exec-mean matrix and deadlines
    of the whole eligible set, and the cluster's slots, availabilities
    and masked completion matrix with a snapshot of the machine versions
    and the clock.  Each round plans from copies of these arrays.  A
    consumed task's row is masked in place (``inf``, inactive) instead of
    compacted away, so the relative row order, and with it every
    first-index tie-break, is that of a fresh plan over the remaining
    tasks.  The machine arrays are rebuilt when a version or the clock
    differs from the snapshot.

    Nothing is built before the first round that plans more than one
    task: a one-task round takes the scalar path.  A context lives for
    one mapping event and holds no state across events.
    """

    def __init__(
        self, tasks: Sequence[Task], cluster: Cluster, estimator: CompletionEstimator
    ) -> None:
        self.tasks = list(tasks)
        self.cluster = cluster
        self.estimator = estimator
        self._pending: list[Task] | None = self.tasks
        self._remaining = len(self.tasks)
        #: Every consumed task id, and those not yet masked in the arrays
        #: (a consumption is masked by the next round that needs it).
        self._consumed: set[int] = set()
        self._unmasked: list[int] = []
        # Event arrays, over every row of ``tasks``, and the machine
        # arrays with the snapshot they were built at (see ``_sync``).
        self._exec_means: np.ndarray | None = None
        self._machines: list[Machine] = []
        self._versions: list[int] = []
        self._now = math.nan

    def __len__(self) -> int:
        return self._remaining

    def __getitem__(self, index):
        return self.pending[index]

    def __iter__(self):
        return iter(self.pending)

    @property
    def pending(self) -> list[Task]:
        """The tasks not consumed yet, in eligible-set order."""
        if self._pending is None:
            consumed = self._consumed
            self._pending = [t for t in self.tasks if t.task_id not in consumed]
        return self._pending

    def consume(self, task_ids: set[int]) -> None:
        """Take the tasks with these ids out of later rounds."""
        self._consumed |= task_ids
        self._unmasked.extend(task_ids)
        self._remaining -= len(task_ids)
        self._pending = None

    def plan_round(self, heuristic: TwoPhaseBatchHeuristic, now: float) -> Plan:
        """The two-phase plan of the pending tasks (see the module doc)."""
        remaining = self._remaining
        if not remaining:
            return []
        if remaining == 1:
            return self._plan_one(heuristic, self.pending[0], now)
        self._sync(now)
        open_machines = self._open_machines
        if not open_machines:
            return []
        machines = self._machines
        deadlines = self._deadlines
        if self._single_slot >= 0:
            # One free slot in the whole cluster: every task's best
            # machine is that slot's, so phase 1 is the cached column.
            m = self._single_slot
            best_completion = self._completion[:, m].copy()
            if not self._finite and not np.isfinite(best_completion).any():
                return []
            w = heuristic.select_winner(best_completion, deadlines, self._alive)
            return [(self.tasks[w], machines[m])]

        # With finite availabilities and means every active task has a
        # finite completion on any open machine, so the plan length and
        # the open-machine count alone decide when planning stops;
        # otherwise each step also checks that some active task can
        # still finish.
        finite = self._finite
        # Each virtual assignment only moves one machine's availability,
        # so the loop refreshes that single column in place instead of
        # rebuilding (T, M) — values (and argmin tie-breaks) are
        # identical to a rebuild.  A planned task's row is set to
        # ``inf`` in place, and so is its ``exec_means`` row, which
        # keeps later column refreshes from reviving it.
        completion = self._completion.copy()
        exec_means = self._exec_means.copy()
        active = self._alive.copy()
        # Scalars only from here on: plain lists, same float arithmetic.
        avail = self._avail.tolist()
        slots = self._slots.tolist()
        tasks = self.tasks
        rows = self._rows
        plan: Plan = []
        while len(plan) < remaining and open_machines:
            # Phase 1: best machine (min expected completion) per task.
            best_m = completion.argmin(axis=1)
            best_completion = completion[rows, best_m]
            if not finite and not np.isfinite(best_completion).any():
                break
            # Phase 2: heuristic-specific winner among (task, best machine).
            w = heuristic.select_winner(best_completion, deadlines, active)
            m = int(best_m[w])
            plan.append((tasks[w], machines[m]))
            avail[m] += exec_means[w, m]
            slots[m] -= 1
            active[w] = False
            exec_means[w] = np.inf
            completion[w] = np.inf
            if slots[m] > 0:
                completion[:, m] = avail[m] + exec_means[:, m]
            else:
                completion[:, m] = np.inf
                open_machines -= 1
        return plan

    def _sync(self, now: float) -> None:
        """Bring the arrays up to the pending tasks and the cluster at
        ``now``."""
        machines = self.cluster.machines
        if self._exec_means is None or machines != self._machines:
            self._build_event_arrays(machines)
        elif self._unmasked:
            if self._row_of is None:
                self._row_of = {t.task_id: i for i, t in enumerate(self.tasks)}
            for task_id in self._unmasked:
                row = self._row_of[task_id]
                self._alive[row] = False
                self._exec_means[row] = np.inf
                if self._completion is not None:
                    self._completion[row] = np.inf
            self._unmasked.clear()
        versions = [m.version for m in machines]
        if versions == self._versions and now == self._now:
            return
        self._versions = versions
        self._now = now
        free = [m.free_slots() for m in machines]
        slots = np.array([np.inf if f is None else f for f in free], dtype=np.float64)
        is_open = slots > 0
        self._slots = slots
        self._open_machines = open_machines = int(np.count_nonzero(is_open))
        self._completion = None
        if not open_machines:
            return
        self._single_slot = -1
        if open_machines == 1:
            m = int(is_open.argmax())
            if slots[m] == 1:
                self._single_slot = m
        avail = self.estimator.cluster_expected_available(machines, now)
        self._avail = avail
        self._completion = np.where(is_open[None, :], avail[None, :] + self._exec_means, np.inf)
        self._finite = self._means_finite and bool(np.isfinite(avail).all())

    def _build_event_arrays(self, machines: list[Machine]) -> None:
        """Exec means and deadlines of the whole eligible set, consumed
        rows masked."""
        tasks = self.tasks
        exec_means = _exec_mean_matrix(tasks, machines, self.estimator)
        # Computed before masking: only a pending task's ``inf`` mean
        # makes the planner check for a finishable task at every step.
        self._means_finite = bool(np.isfinite(exec_means).all())
        consumed = self._consumed
        if consumed:
            self._alive = np.fromiter(
                (t.task_id not in consumed for t in tasks), dtype=bool, count=len(tasks)
            )
            exec_means[~self._alive] = np.inf
        else:
            self._alive = np.ones(len(tasks), dtype=bool)
        self._unmasked.clear()
        self._row_of: dict[int, int] | None = None
        self._rows = np.arange(len(tasks))
        self._exec_means = exec_means
        self._deadlines = np.fromiter(
            (t.deadline for t in tasks), dtype=np.float64, count=len(tasks)
        )
        self._machines = list(machines)
        self._versions = []

    def _plan_one(self, heuristic: TwoPhaseBatchHeuristic, task: Task, now: float) -> Plan:
        """The plan of a single pending task — the norm under event-driven
        arrivals, where every arrival triggers its own mapping event.

        The (1, M) matrix machinery collapses to one pass over machines
        with free slots: same values, same first-minimum tie-break as
        ``np.argmin`` over the completion row, and availability is only
        computed for machines whose completion the matrix path would
        actually read (slot-less machines are ``inf`` either way).
        ``select_winner`` is still consulted — some subclasses draw RNG
        there (``RandomBatch``), and skipping it would desynchronize
        their stream.
        """
        estimator = self.estimator
        model = estimator.model
        ttype = task.task_type
        machines = self.cluster.machines
        best = np.inf
        best_m = -1
        for i, m in enumerate(machines):
            free = m.free_slots()
            if free is not None and free <= 0:
                continue
            c = estimator._scalar_chain(m, now)[-1] + model.mean(ttype, m.machine_type)
            if c < best:
                best = c
                best_m = i
        if best_m < 0 or not np.isfinite(best):
            return []
        heuristic.select_winner(
            np.array([best]),
            np.array([task.deadline]),
            np.ones(1, dtype=bool),
        )
        return [(task, machines[best_m])]


class TwoPhaseBatchHeuristic(BatchHeuristic):
    """Shared machinery for MM / MSD / MMU (§III-C) and friends.

    Subclasses provide :meth:`select_winner`, phase 2's selection rule.
    """

    def plan(
        self,
        tasks: Sequence[Task],
        cluster: Cluster,
        estimator: CompletionEstimator,
        now: float,
    ) -> Plan:
        if isinstance(tasks, PlanningContext):
            return tasks.plan_round(self, now)
        return PlanningContext(tasks, cluster, estimator).plan_round(self, now)

    @abc.abstractmethod
    def select_winner(
        self,
        best_completion: np.ndarray,
        deadlines: np.ndarray,
        active: np.ndarray,
    ) -> int:
        """Index of the winning task.  ``best_completion`` is ``inf`` for
        inactive tasks; implementations must never pick those, nor a task
        whose ``best_completion`` is ``inf``, and must not modify the
        arrays."""
