"""Runtime dependency semantics for DAG workloads.

The paper's allocator (§III) maps every arriving task immediately or
from the batch queue; with workflow edges a task must instead wait
until every parent completes.  :class:`DependencyTracker` is the
runtime side of that model, shared by both allocator modes:

* **Gating** — an arrived task whose parents are incomplete is *held*
  here (outside every mapping queue) and released into the allocator
  the moment its last parent completes.
* **Cascade drops** — dropping a task dooms its entire transitive
  dependent subgraph: held dependents are dropped on the spot,
  not-yet-arrived ones are marked doomed and dropped on arrival.  The
  invariant that makes this sound: a task is only ever mapped after all
  parents completed, so cascade victims are provably unmapped and no
  machine queue needs fixing up.
* **Chance propagation** — the estimator multiplies a held task's
  chance of success by :meth:`chance_factor`, the min-propagated
  (critical-path) chance of its ancestors: completed parents contribute
  1, dropped/doomed ones 0, and in-flight ones their most recent
  Eq. 2 estimate (recorded via :meth:`note_estimate`).  The pruner's
  gate scan uses the product to drop doomed subgraphs early.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ..metrics.collector import tally_outcomes
from ..sim.task import Task
from ..workload.dag import count_edges, task_depths, validate_deps

__all__ = ["DependencyTracker"]


class DependencyTracker:
    """Dependency state for one simulation run (one DAG workload)."""

    def __init__(self, tasks: Sequence[Task]) -> None:
        self.deps: dict[int, tuple[int, ...]] = {
            t.task_id: t.deps for t in tasks
        }
        validate_deps(self.deps, source="dag workload")
        #: Longest-path depth per task (roots 0) — drives per-depth
        #: outcome reporting.
        self.depth: dict[int, int] = task_depths(self.deps)
        self.num_edges: int = count_edges(self.deps)
        self.max_depth: int = max(self.depth.values(), default=0)
        # parent id -> child ids, in submission order (deterministic).
        self._children: dict[int, list[int]] = {}
        for t in tasks:
            for p in t.deps:
                self._children.setdefault(p, []).append(t.task_id)
        self._completed: set[int] = set()
        self._dead: set[int] = set()      # dropped or doomed ancestors
        self._held: dict[int, Task] = {}  # arrived, waiting on parents
        self._estimates: dict[int, float] = {}
        self.released_count: int = 0
        self.held_peak: int = 0

    # -- gating --------------------------------------------------------
    def ready(self, task: Task) -> bool:
        """All parents completed (vacuously true for root tasks)."""
        return all(p in self._completed for p in task.deps)

    def is_doomed(self, task: Task) -> bool:
        """Some ancestor was dropped — this task can never be released."""
        return task.task_id in self._dead

    def hold(self, task: Task) -> None:
        self._held[task.task_id] = task
        self.held_peak = max(self.held_peak, len(self._held))

    def held_tasks(self) -> list[Task]:
        """Arrived-but-unreleased tasks, in submission order."""
        return list(self._held.values())

    def drop_held(self, task: Task) -> None:
        """A held task was dropped directly (gate scan / deadline miss)."""
        self._held.pop(task.task_id, None)
        self._dead.add(task.task_id)

    def held_deadline_missed(self, now: float) -> list[Task]:
        """Pop held tasks whose hard deadline has passed."""
        missed = [t for t in self._held.values() if now > t.deadline]
        for t in missed:
            self.drop_held(t)
        return missed

    # -- release -------------------------------------------------------
    def note_completed(self, task: Task) -> list[Task]:
        """Record a completion; returns newly released held tasks."""
        self._completed.add(task.task_id)
        released = []
        for child_id in self._children.get(task.task_id, ()):
            child = self._held.get(child_id)
            if child is not None and self.ready(child):
                del self._held[child_id]
                released.append(child)
        self.released_count += len(released)
        return released

    # -- cascade -------------------------------------------------------
    def cascade(self, task: Task) -> list[Task]:
        """Doom every transitive dependent of a dropped task.

        Returns the held (arrived, unreleased, non-terminal) victims in
        deterministic BFS order for the caller to drop; dependents that
        have not arrived yet are merely marked and will be dropped at
        submission.  Victims are never mapped (see module docstring),
        so no machine or batch queue contains them.
        """
        self._dead.add(task.task_id)
        victims: list[Task] = []
        frontier = list(self._children.get(task.task_id, ()))
        while frontier:
            child_id = frontier.pop(0)
            if child_id in self._dead:
                continue
            self._dead.add(child_id)
            frontier.extend(self._children.get(child_id, ()))
            held = self._held.pop(child_id, None)
            if held is not None and not held.is_terminal:
                victims.append(held)
        return victims

    # -- chance propagation --------------------------------------------
    def has_dependents(self, task_id: int) -> bool:
        return task_id in self._children

    def note_estimate(self, task_id: int, chance: float) -> None:
        """Record a task's own Eq. 2 estimate for its dependents' factors.

        Only parents matter — estimates of leaf tasks are discarded so
        the map stays small on wide DAGs.
        """
        if task_id in self._children:
            self._estimates[task_id] = chance

    def chance_factor(self, task: Task) -> float:
        """Multiplicative critical-path factor for a task's chance.

        ``min`` over parents of the propagated chance: 1 for completed
        parents, 0 for dropped/doomed ones, and the parent's own latest
        estimate times *its* factor otherwise (unknown estimates default
        to 1 — optimism never drops a subgraph spuriously).
        """
        if not task.deps:
            return 1.0
        memo: dict[int, float] = {}

        def prop(tid: int) -> float:
            cached = memo.get(tid)
            if cached is not None:
                return cached
            if tid in self._completed:
                value = 1.0
            elif tid in self._dead:
                value = 0.0
            else:
                value = self._estimates.get(tid, 1.0)
                parents = self.deps.get(tid, ())
                if parents:
                    value *= min(prop(p) for p in parents)
            memo[tid] = value
            return value

        return min(prop(p) for p in task.deps)

    # -- reporting -----------------------------------------------------
    def stats(self, tasks: Iterable[Task], cascade_drops: int) -> dict:
        """Telemetry payload for ``SimulationResult.dag_stats``, with the
        per-depth outcome counts over the evaluation universe ``tasks``."""
        depths = tally_outcomes(tasks, lambda t: self.depth.get(t.task_id, 0))
        return {
            "edges": self.num_edges,
            "max_depth": self.max_depth,
            "released": self.released_count,
            "held_peak": self.held_peak,
            "cascade_drops": cascade_drops,
            "depths": {str(d): outcome.to_dict() for d, outcome in depths.items()},
        }
