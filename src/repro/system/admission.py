"""Admission control: the prune-at-arrival alternative.

A natural competitor to the paper's mechanism (cf. SLA-based admission
control, the paper's ref [24]): instead of deferring/dropping at mapping
events, simply *reject* arriving tasks whose chance of success on the
best machine is below a threshold.  Rejection is irrevocable — unlike a
deferred task, a rejected task cannot be revisited when a better machine
frees up.

Compared at the same 50 % threshold, it shows why the paper prefers
deferring: admission control throws away tasks that deferment would
have saved, especially in inconsistently heterogeneous clusters where
the right machine becomes available a few events later.

:class:`AdmissionController` wraps any :class:`~repro.system.allocator.
ResourceAllocator`-driving system by intercepting ``submit`` and
``requeue``; it is also the gate of the live
:class:`~repro.service.service.SchedulerService`, so offers, replayed
arrivals and churn requeues face one and the same test.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.machine import Machine
from ..sim.task import Task
from .completion import near_tie
from .serverless import ServerlessSystem

__all__ = ["AdmissionController", "AdmissionStats"]


@dataclass
class AdmissionStats:
    """Counts of the admission decision outcomes."""

    admitted: int = 0
    rejected: int = 0

    @property
    def total(self) -> int:
        return self.admitted + self.rejected

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.total if self.total else 0.0


class AdmissionController:
    """Threshold admission control in front of a serverless system.

    Parameters
    ----------
    system:
        The wrapped system (any heuristic, pruning optional).
    threshold:
        Minimum best-machine chance of success required to admit.  The
        *best machine* is evaluated with the system's own completion
        estimator against the machines' current state — the information a
        gateway could realistically have.
    """

    def __init__(self, system: ServerlessSystem, threshold: float = 0.5) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.system = system
        self.threshold = threshold
        self.stats = AdmissionStats()
        self.rejected_tasks: list[Task] = []
        # Intercept the allocator's admission paths: arrivals (submit)
        # and churn-victim readmissions (requeue) face the same gate —
        # otherwise a cluster failure would smuggle low-chance tasks past
        # the threshold that just rejected identical fresh arrivals.
        self._inner_submit = system.allocator.submit
        system.allocator.submit = self.offer  # type: ignore[method-assign, assignment]
        self._inner_requeue = system.allocator.requeue
        system.allocator.requeue = self._requeue  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    def best_chance(self, task: Task) -> float:
        """Chance of success on the machine that maximizes it, now.

        One batched Eq. 2 query across the whole cluster
        (:meth:`~repro.system.completion.CompletionEstimator.chances_for`),
        restricted to online machines — an offline machine cannot run
        anything, whatever its (stale) queue belief says.
        """
        machines = self.system.cluster.online_machines()
        if not machines:
            return 0.0
        return self._best_chances([task], machines)[0]

    def _best_chances(self, tasks: list[Task], machines: list[Machine]) -> list[float]:
        """Each task's best-machine chance; one near the threshold is
        re-read from the chain, so the gate decides exactly as the chain
        does."""
        est = self.system.estimator
        now = self.system.sim.now
        best = est.chances_for(tasks, machines, now).max(axis=1).tolist()
        for i, task in enumerate(tasks):
            if near_tie(best[i], self.threshold):
                best[i] = max(est.chain_chance(task, m, now) for m in machines)
        return best

    def _reject(self, task: Task) -> None:
        self.stats.rejected += 1
        self.rejected_tasks.append(task)
        # Gate drops are task outcomes like any other: the allocator's
        # drop path keeps timelines, the dynamics makespan tracker and
        # the DAG tracker (dependents are doomed) complete.
        self.system.allocator.drop(task, proactive=True)

    def offer(self, task: Task) -> float:
        """Gate one arrival: reject it below the threshold, else forward
        it to the allocator.  Returns its best-machine chance."""
        chance = self.best_chance(task)
        if chance < self.threshold:
            self.system.accounting.record_arrival(task)
            self._reject(task)
        else:
            self.stats.admitted += 1
            self._inner_submit(task)
        return chance

    def _requeue(self, tasks) -> int:
        """Churn victims re-face the gate (arrival accounting not
        repeated — they already arrived once).

        Deadline-expired victims bypass the gate and flow through to the
        allocator, which drops them *reactively* — the same
        classification an ungated system gives them; gating them here
        would misfile deadline misses under proactive drops.  The gate
        itself is one batched Eq. 2 grid over all live victims.
        """
        now = self.system.sim.now
        tasks = list(tasks)
        live = [t for t in tasks if not now > t.deadline]
        machines = self.system.cluster.online_machines()
        best: dict[int, float] = {}
        if live and machines:
            best = {id(t): c for t, c in zip(live, self._best_chances(live, machines))}
        passed: list[Task] = []
        for task in tasks:
            if now > task.deadline:
                passed.append(task)  # reactive drop inside requeue
                continue
            if best.get(id(task), 0.0) < self.threshold:
                self._reject(task)
                continue
            self.stats.admitted += 1
            passed.append(task)
        return self._inner_requeue(passed)

    # ------------------------------------------------------------------
    def run(self, tasks, **kwargs):
        """Convenience: run the wrapped system's trial."""
        return self.system.run(tasks, **kwargs)
