"""Cluster dynamics: machine churn and elastic scaling scenarios.

The paper evaluates pruning on *static* clusters; its core claim —
robustness under transient oversubscription — is most stressed when the
oversubscription is caused by the cluster itself shrinking under load.
This module adds that scenario axis:

* **failure** — a machine dies abruptly: its running task is killed
  (partial work lost) and its queued tasks are evicted; all victims are
  requeued through the allocator's admission path and compete again at
  the next mapping events.
* **recovery** — a failed machine comes back online, empty, a stochastic
  downtime later.
* **scale-down** — a machine is drained gracefully: queued tasks are
  requeued, the running task finishes, no new work is accepted.
* **scale-up** — a brand-new machine joins the cluster and immediately
  takes mappings.

Everything is driven through the simulation engine's event queue at
:data:`~repro.sim.engine.Priority.DYNAMICS`.  Failure, drain and
recovery step the machine's ``version`` like any queue mutation, so the
incremental completion estimator reconciles its caches with the machine
the same way.

**Determinism contract** (what keeps parallel sweeps bit-identical to
serial runs): the whole schedule — event times, downtimes, and every
target-machine choice — is a pure function of ``(DynamicsSpec, workload
span, rng stream)``.  The rng is a dedicated named stream of the
system's root seed, so trial ``i`` of a config produces the same churn
in any process, in any execution order.  Draw order is part of the
contract: failure times, then downtimes, then scale-up times, then
scale-down times at install; one uniform draw per failure event at fire
time for the victim machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Protocol

import numpy as np

from .cluster import Cluster
from .engine import Priority, Simulator
from .machine import Machine
from .task import Task

__all__ = ["DynamicsSpec", "ClusterDynamics", "DynamicsHost"]


class DynamicsHost(Protocol):
    """What the dynamics driver needs from a resource allocator."""

    def requeue(self, tasks: Sequence[Task]) -> int: ...
    def kick(self) -> None: ...
    def adopt_machine(self, machine: Machine) -> None: ...


@dataclass(frozen=True)
class DynamicsSpec:
    """Parameters of one cluster-dynamics scenario.

    Event *times* land uniformly inside ``window`` (as fractions of the
    workload span), so churn hits the oversubscribed steady state rather
    than the ramp-up/drain edges the paper trims from metrics anyway.
    """

    #: Abrupt machine failures across the run.
    failures: int = 0
    #: Mean repair time (exponential).  ``0`` → failed machines never
    #: come back (permanent capacity loss).
    mean_downtime: float = 60.0
    #: Elastic additions: brand-new machines joining the cluster.
    scale_up: int = 0
    #: Graceful drains: machines leaving the cluster.
    scale_down: int = 0
    #: Fraction of the workload span inside which events are scheduled.
    window: tuple[float, float] = (0.05, 0.85)
    #: Failures/drains are skipped rather than taking the online machine
    #: count below this floor (a cluster with zero machines deadlocks
    #: immediate-mode allocation and helps no experiment).
    min_online: int = 1

    def __post_init__(self) -> None:
        if self.failures < 0 or self.scale_up < 0 or self.scale_down < 0:
            raise ValueError("event counts must be >= 0")
        if self.mean_downtime < 0:
            raise ValueError("mean_downtime must be >= 0")
        lo, hi = self.window
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError(f"window must satisfy 0 <= lo < hi <= 1, got {self.window}")
        if self.min_online < 1:
            raise ValueError("min_online must be >= 1")

    @property
    def is_static(self) -> bool:
        return self.failures == 0 and self.scale_up == 0 and self.scale_down == 0


class ClusterDynamics:
    """Schedules and enacts a :class:`DynamicsSpec` on a live system.

    Stats are exposed through :meth:`stats` and surfaced as
    ``SimulationResult.dynamics_stats`` — churn/requeue accounting is a
    first-class metric next to the estimator's cache counters.
    """

    def __init__(
        self,
        spec: DynamicsSpec,
        sim: Simulator,
        cluster: Cluster,
        allocator: DynamicsHost,
        rng: np.random.Generator,
    ) -> None:
        self.spec = spec
        self.sim = sim
        self.cluster = cluster
        self.allocator = allocator
        self.rng = rng
        self.installed = False
        self._stats = {
            "failures": 0,
            "recoveries": 0,
            "scale_ups": 0,
            "scale_downs": 0,
            "skipped": 0,
            #: tasks a failure/drain pulled off a machine...
            "evicted": 0,
            #: ...of which this many re-entered admission (the rest had
            #: already-passed deadlines and dropped reactively).
            "requeued": 0,
            "interrupted": 0,
        }

    # ------------------------------------------------------------------
    def install(self, span: float) -> None:
        """Draw the schedule and post every event on the engine's queue.

        Idempotent per driver: the first workload submission installs,
        later ones are no-ops.  ``span`` is the workload's arrival span.
        """
        if self.installed:
            return
        self.installed = True
        if self.spec.is_static or span <= 0:
            return
        lo, hi = self.spec.window
        t0, t1 = lo * span, hi * span
        # Fixed draw order — part of the determinism contract.
        fail_times = np.sort(self.rng.uniform(t0, t1, size=self.spec.failures))
        downtimes = (
            self.rng.exponential(self.spec.mean_downtime, size=self.spec.failures)
            if self.spec.mean_downtime > 0
            else np.zeros(self.spec.failures)
        )
        up_times = np.sort(self.rng.uniform(t0, t1, size=self.spec.scale_up))
        down_times = np.sort(self.rng.uniform(t0, t1, size=self.spec.scale_down))

        for t, downtime in zip(fail_times, downtimes):
            self.sim.schedule(
                float(t),
                (lambda d=float(downtime): self._fire_failure(d)),
                priority=Priority.DYNAMICS,
            )
        for t in up_times:
            self.sim.schedule(float(t), self._fire_scale_up, priority=Priority.DYNAMICS)
        for t in down_times:
            self.sim.schedule(float(t), self._fire_scale_down, priority=Priority.DYNAMICS)

    # ------------------------------------------------------------------
    def _fire_failure(self, downtime: float) -> None:
        candidates = self.cluster.online_machines()
        if len(candidates) <= self.spec.min_online:
            self._stats["skipped"] += 1
            return
        machine = candidates[int(self.rng.integers(len(candidates)))]
        interrupted, evicted = machine.fail(self.sim)
        self._stats["failures"] += 1
        victims = ([interrupted] if interrupted is not None else []) + evicted
        if interrupted is not None:
            self._stats["interrupted"] += 1
        for task in victims:
            task.mark_requeued()
        self._stats["evicted"] += len(victims)
        if downtime > 0:
            self.sim.schedule_in(
                downtime,
                (lambda mid=machine.machine_id: self._fire_recovery(mid)),
                priority=Priority.DYNAMICS,
            )
        # Readmission last: requeued tasks see the post-failure cluster.
        self._stats["requeued"] += self.allocator.requeue(victims)

    def _fire_recovery(self, machine_id: int) -> None:
        machine = self.cluster[machine_id]
        if machine.online:  # already back (defensive; schedules are unique)
            return
        machine.recover()
        self._stats["recoveries"] += 1
        # Fresh capacity: let the allocator refill it from the batch queue.
        self.allocator.kick()

    def _fire_scale_up(self) -> None:
        # Round-robin over the machine *types* already present keeps every
        # added machine inside the PET matrix's type range.
        types = sorted({m.machine_type for m in self.cluster.machines})
        mtype = types[self._stats["scale_ups"] % len(types)]
        template = self.cluster.machines[0]
        machine = Machine(
            self.cluster.next_machine_id(), mtype, queue_limit=template.queue_limit
        )
        self.cluster.add_machine(machine)
        self.allocator.adopt_machine(machine)
        self._stats["scale_ups"] += 1
        self.allocator.kick()

    def _fire_scale_down(self) -> None:
        candidates = self.cluster.online_machines()
        if len(candidates) <= self.spec.min_online:
            self._stats["skipped"] += 1
            return
        # Deterministic victim rule: the newest (highest-id) online
        # machine drains first — elastic capacity leaves LIFO.
        machine = max(candidates, key=lambda m: m.machine_id)
        evicted = machine.drain()
        self._stats["scale_downs"] += 1
        for task in evicted:
            task.mark_requeued()
        self._stats["evicted"] += len(evicted)
        self._stats["requeued"] += self.allocator.requeue(evicted)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Churn counters for :class:`~repro.metrics.SimulationResult`."""
        return dict(self._stats)
