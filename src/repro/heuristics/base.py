"""Heuristic interfaces and the shared two-phase batch planner.

§III of the paper: immediate-mode heuristics map each arriving task on the
spot; batch-mode heuristics keep an arrival (batch) queue and, at every
mapping event, run a two-phase process over a *virtual queue*:

  phase 1 — for every unmapped task find its best machine (per-heuristic
            objective, here: minimum expected completion time);
  phase 2 — among the resulting (task, machine) pairs pick the winner by
            the heuristic's selection rule, virtually assign it, repeat
            until machine-queue slots are exhausted or no tasks remain.

The planner below vectorizes both phases with NumPy: each iteration builds
the full ``(tasks, machines)`` expected-completion matrix from per-machine
availability accumulators — no Python loops over the batch queue.
"""

from __future__ import annotations

import abc
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
        success against the *real* queue state as it goes.
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
        if not tasks:
            return []
        machines = list(cluster.machines)
        if len(tasks) == 1:
            # Single-task batch — the norm under event-driven arrivals,
            # where every arrival triggers its own mapping event.  The
            # (1, M) matrix machinery collapses to one pass over machines
            # with free slots: same values, same first-minimum tie-break
            # as ``np.argmin`` over the completion row, and availability
            # is only computed for machines whose completion the general
            # path would actually read (slot-less machines are ``inf``
            # either way).  ``select_winner`` is still consulted — some
            # subclasses draw RNG there (``RandomBatch``), and skipping
            # it would desynchronize their stream.
            task = tasks[0]
            model = estimator.model
            ttype = task.task_type
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
            w = self.select_winner(
                np.array([best]),
                np.array([task.deadline]),
                np.ones(1, dtype=bool),
            )
            return [(tasks[w], machines[best_m])]
        free = [m.free_slots() for m in machines]
        slots = np.array([np.inf if f is None else f for f in free], dtype=np.float64)
        open_machines = int(np.count_nonzero(slots > 0))
        if not open_machines:
            return []
        avail = estimator.cluster_expected_available(machines, now)
        exec_means = _exec_mean_matrix(tasks, machines, estimator)
        deadlines = np.fromiter((t.deadline for t in tasks), dtype=np.float64, count=len(tasks))
        active = np.ones(len(tasks), dtype=bool)
        # With finite availabilities and means every active task has a
        # finite completion on any open machine, so the plan length and
        # the open-machine count alone decide when planning stops;
        # otherwise each step also checks that some active task can
        # still finish.
        finite = bool(np.isfinite(avail).all() and np.isfinite(exec_means).all())

        plan: Plan = []
        # The completion matrix is built once; each virtual assignment
        # only moves one machine's availability, so the loop refreshes
        # that single column in place instead of rebuilding (T, M) —
        # values (and argmin tie-breaks) are identical to a rebuild.  A
        # planned task's row is set to ``inf`` in place, and so is its
        # ``exec_means`` row, which keeps later column refreshes from
        # reviving it.
        completion = np.where(slots[None, :] > 0, avail[None, :] + exec_means, np.inf)
        task_ids = np.arange(len(tasks))
        while len(plan) < len(tasks) and open_machines:
            # Phase 1: best machine (min expected completion) per task.
            best_m = completion.argmin(axis=1)
            best_completion = completion[task_ids, best_m]
            if not finite:
                best_completion[~active] = np.inf
                if not np.any(np.isfinite(best_completion)):
                    break
            # Phase 2: heuristic-specific winner among (task, best machine).
            w = self.select_winner(best_completion, deadlines, active)
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

    @abc.abstractmethod
    def select_winner(
        self,
        best_completion: np.ndarray,
        deadlines: np.ndarray,
        active: np.ndarray,
    ) -> int:
        """Index of the winning task.  ``best_completion`` is ``inf`` for
        inactive tasks; implementations must never pick those."""
