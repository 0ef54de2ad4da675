"""The serverless-platform facade: one object wiring the whole stack.

:class:`ServerlessSystem` assembles the simulator, cluster, completion
estimator, mapping heuristic, optional pruning mechanism, and accounting
into the architecture of Fig. 1(c), runs a workload trial through it, and
reports a :class:`~repro.metrics.SimulationResult`.

Typical use::

    from repro import (ServerlessSystem, PruningConfig, WorkloadSpec,
                       generate_pet_matrix, generate_workload)
    import numpy as np

    pet = generate_pet_matrix(seed=1)
    tasks = generate_workload(WorkloadSpec(), pet, np.random.default_rng(2))
    system = ServerlessSystem(pet, heuristic="MM",
                              pruning=PruningConfig.paper_default(), seed=3)
    result = system.run(tasks)
    print(result.summary())
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.accounting import Accounting
from ..core.config import PruningConfig
from ..core.pruner import Pruner
from ..heuristics.base import BatchHeuristic, ImmediateHeuristic
from ..heuristics.registry import make_heuristic
from ..sim.cluster import Cluster
from ..sim.dynamics import ClusterDynamics, DynamicsSpec
from ..sim.engine import Priority, Simulator
from ..sim.machine import Machine
from ..sim.rng import RngStreams
from ..sim.task import Task
from ..metrics.collector import SimulationResult
from .allocator import BatchAllocator, ImmediateAllocator, ResourceAllocator
from .completion import CompletionEstimator, ExecutionModel

__all__ = ["ServerlessSystem", "DEFAULT_BATCH_QUEUE_SLOTS"]

#: Machine-queue slots in batch mode.  Bounding machine queues is what
#: pools tasks in the batch queue where two-phase heuristics (and the
#: pruner) can reorder them; immediate mode uses unbounded queues.
DEFAULT_BATCH_QUEUE_SLOTS = 4


class ServerlessSystem:
    """A heterogeneous serverless back-end with optional task pruning.

    Parameters
    ----------
    model:
        :class:`~repro.stochastic.PETMatrix` (or
        :class:`~repro.stochastic.ETCMatrix` for the deterministic
        ablation).  Ground-truth execution times are sampled from it and
        the scheduler estimates from it.
    heuristic:
        A heuristic instance or registry name (``"MM"``, ``"KPB"``, ...).
        Its ``mode`` attribute selects immediate- vs batch-mode
        allocation.
    pruning:
        ``None`` → baseline resource allocation (no pruning mechanism);
        a :class:`~repro.core.PruningConfig` → pruning mechanism attached.
    queue_limit:
        Machine-queue slots.  ``"auto"`` → 4 in batch mode, unbounded in
        immediate mode (the paper's setup).
    seed:
        Root seed for execution-time sampling.
    memoize:
        Estimator mode: ``True`` (incremental prefix-convolution cache,
        the default) or ``False`` (the from-scratch oracle, no caching).
        Both produce identical simulation results; any non-``bool`` value
        raises :class:`ValueError`.
    dynamics:
        ``None`` → the paper's static cluster; a
        :class:`~repro.sim.dynamics.DynamicsSpec` → machine failures,
        recoveries and elastic scaling are scheduled over the workload
        span from the root seed's ``"dynamics"`` stream (deterministic
        per seed), with churn victims requeued through admission.
    sim:
        Event timeline to map on.  ``None`` → a fresh discrete-event
        :class:`~repro.sim.engine.Simulator` (the replay driver); the
        live service injects an
        :class:`~repro.service.timeline.AsyncTimeline` — a
        ``Simulator`` subclass whose events a wall or virtual clock
        releases instead of ``run()``.
    """

    def __init__(
        self,
        model: ExecutionModel,
        heuristic: str | ImmediateHeuristic | BatchHeuristic,
        *,
        pruning: PruningConfig | None = None,
        cluster: Cluster | None = None,
        machines_per_type: int = 1,
        queue_limit: int | None | str = "auto",
        seed: int = 0,
        horizon: float = 512.0,
        condition_running: bool = True,
        memoize: bool = True,
        dynamics: DynamicsSpec | None = None,
        observer=None,
        sim: Simulator | None = None,
    ) -> None:
        self.model = model
        if isinstance(heuristic, str):
            heuristic = make_heuristic(heuristic)
        mode = getattr(heuristic, "mode", None)
        if mode not in ("immediate", "batch"):
            raise TypeError(f"heuristic {heuristic!r} has unknown mode {mode!r}")
        self.mode = mode
        self.heuristic = heuristic
        heuristic.reset()

        if queue_limit == "auto":
            queue_limit = DEFAULT_BATCH_QUEUE_SLOTS if mode == "batch" else None
        if cluster is None:
            num_types = getattr(model, "num_machine_types")
            cluster = Cluster.heterogeneous(
                num_types, machines_per_type=machines_per_type, queue_limit=queue_limit
            )
        else:
            cluster.set_queue_limit(queue_limit)
        self.cluster = cluster

        # The event timeline is injectable: the discrete-event driver uses
        # the default :class:`Simulator`; the live service driver injects
        # an :class:`~repro.service.timeline.AsyncTimeline` (a Simulator
        # subclass, advanced by a Clock instead of ``run()``).
        # Everything below this line is timeline-agnostic — that is the
        # engine/policy separation that makes the sim and the service two
        # drivers over one shared mapping core.
        self.sim = sim if sim is not None else Simulator()
        self.rngs = RngStreams(seed)
        self._exec_rng = self.rngs.stream("exec")
        self.estimator = CompletionEstimator(
            model,
            horizon=horizon,
            condition_running=condition_running,
            memoize=memoize,
        )
        self.accounting = Accounting()
        self.pruner: Pruner | None = (
            Pruner(pruning, self.accounting) if pruning is not None else None
        )
        if self.pruner is not None and self.pruner.driver is not None:
            # The control plane consumes the estimator's mean observed
            # chance of success; the accumulator is off otherwise so the
            # paper's configurations pay nothing for it.
            self.estimator.observe_chances = True

        sampler = self._sample_execution
        if mode == "immediate":
            self.allocator: ResourceAllocator = ImmediateAllocator(
                self.sim,
                self.cluster,
                self.estimator,
                heuristic=heuristic,  # type: ignore[arg-type]
                pruner=self.pruner,
                accounting=self.accounting,
                exec_sampler=sampler,
                observer=observer,
            )
        else:
            self.allocator = BatchAllocator(
                self.sim,
                self.cluster,
                self.estimator,
                heuristic=heuristic,  # type: ignore[arg-type]
                pruner=self.pruner,
                accounting=self.accounting,
                exec_sampler=sampler,
                observer=observer,
            )
        self.dynamics: ClusterDynamics | None = (
            ClusterDynamics(
                dynamics,
                self.sim,
                self.cluster,
                self.allocator,
                self.rngs.stream("dynamics"),
            )
            if dynamics is not None
            else None
        )
        #: Time of the last task outcome (completion or drop), ``None``
        #: until one happens.  ``None`` — not ``0.0`` — matters: an
        #: outcome *at* time zero (a deadline-missed drop in the very
        #: first mapping event) is a real last-work timestamp, and
        #: conflating it with "no outcome yet" made `_makespan` fall back
        #: to the dynamics-inflated ``sim.now``.
        self._last_outcome_at: float | None = None
        if self.dynamics is not None:
            # A recovery scheduled past the last task outcome is a no-op
            # that still advances the clock; makespan must mean "when the
            # work ended", not "when the last event fired" — so track the
            # time of the last task outcome through the observer stream.
            inner_observer = self.allocator.observer

            def _track_outcome(event: str, task: Task, time: float) -> None:
                if event in ("completed", "dropped_missed", "dropped_proactive"):
                    if self._last_outcome_at is None or time > self._last_outcome_at:
                        self._last_outcome_at = time
                if inner_observer is not None:
                    inner_observer(event, task, time)

            self.allocator.observer = _track_outcome
        self._submitted: list[Task] = []
        self._control_installed = False
        #: DAG workloads: the run's DependencyTracker, built by
        #: ``submit_workload`` when the tasks carry dependency edges and
        #: wired into the allocator (gating/cascades) and the estimator
        #: (critical-path chance factors).  ``None`` for independent
        #: tasks — every downstream path then short-circuits, keeping
        #: results byte-identical to the pre-DAG system.
        self.dag = None

    # ------------------------------------------------------------------
    def _sample_execution(self, task: Task, machine: Machine) -> float:
        sampler = getattr(self.model, "sample_execution", None)
        if sampler is not None:
            return sampler(task.task_type, machine.machine_type, self._exec_rng)
        # Deterministic model (ETC): execution takes exactly its mean.
        return self.model.mean(task.task_type, machine.machine_type)

    # ------------------------------------------------------------------
    def submit_workload(self, tasks: Sequence[Task]) -> None:
        """Schedule arrival events for a workload trial.

        The first submission also installs the cluster-dynamics schedule
        (if any): churn events are placed inside the workload's arrival
        span, so the schedule is a pure function of (spec, workload,
        seed) — the property that keeps parallel sweeps bit-identical.
        """
        if any(t.deps for t in tasks):
            if self.dag is not None or self._submitted:
                raise ValueError(
                    "a DAG workload must be submitted in one batch — "
                    "dependency edges cannot span submissions"
                )
            from ..core.dag import DependencyTracker

            self.dag = DependencyTracker(tasks)
            self.allocator.dag = self.dag
            self.estimator.dag = self.dag
        if self.dynamics is not None and not self.dynamics.installed:
            span = max((t.arrival for t in tasks), default=0.0)
            self.dynamics.install(span)
        self._install_control_breakpoints(tasks)
        for task in tasks:
            self._submitted.append(task)
            self.sim.schedule(
                task.arrival,
                (lambda t=task: self.allocator.submit(t)),
                priority=Priority.ARRIVAL,
            )

    def _install_control_breakpoints(self, tasks: Sequence[Task]) -> None:
        """Schedule a time-triggered controller's β/α breakpoints.

        Only breakpoints inside the workload's arrival span are
        scheduled: a later one would keep the event queue alive past the
        last task outcome and inflate ``sim.now`` (hence makespan) for
        no behavioral effect — mapping-event ticks already re-evaluate
        β(t) at every event, so clamping loses nothing.  Idempotent per
        system (installed once, alongside the dynamics schedule).
        """
        driver = self.pruner.driver if self.pruner is not None else None
        if driver is None or self._control_installed:
            return
        self._control_installed = True
        span = max((t.arrival for t in tasks), default=0.0)
        for t in driver.breakpoints():
            if 0.0 <= t <= span:
                self.sim.schedule(
                    t, (lambda t=t: driver.time_tick(t)), priority=Priority.CONTROL
                )

    def run(
        self,
        tasks: Sequence[Task] | None = None,
        *,
        until: float | None = None,
        max_events: int | None = None,
    ) -> SimulationResult:
        """Run a trial to completion and aggregate the outcome.

        Any task still pending when the event queue drains (e.g. deferred
        forever by the pruner) is finalized as a reactive drop — it never
        ran and its deadline is unreachable once no events remain.
        """
        if tasks is not None:
            self.submit_workload(tasks)
        self.sim.run(until=until, max_events=max_events)
        self._finalize_leftovers()
        return self.result()

    def _finalize_leftovers(self) -> None:
        for task in self._submitted:
            if not task.is_terminal:
                task.mark_dropped(self.sim.now, proactive=False)
                self.accounting.record_drop(task)

    def _makespan(self) -> float:
        """When the work ended.

        On a static cluster the event queue drains exactly when the last
        task outcome lands, so this is ``sim.now``.  Under dynamics, a
        recovery scheduled beyond the last outcome (e.g. a long downtime
        outlasting the whole workload) is a no-op that still advances
        the clock — reporting it as makespan would deflate every
        utilization figure, so the dynamics path reports the last event
        that did work: the tracked last task outcome, even when that
        outcome (or every outcome) landed at time zero.  A dynamics
        trial in which no task ever reached an outcome did no work at
        all — makespan 0.0, never the drained clock.
        """
        if self.dynamics is None:
            return self.sim.now
        if self._last_outcome_at is None:
            return 0.0
        return self._last_outcome_at

    # ------------------------------------------------------------------
    def result(self, tasks: Sequence[Task] | None = None) -> SimulationResult:
        """Aggregate outcomes — optionally over a subset (e.g. the
        edge-trimmed evaluation window of §V-B).

        Control-plane telemetry (``controller_stats`` — the setpoint
        trajectory — and ``fairness_stats`` — the final sufferage
        scores) rides along exactly when a controller is configured,
        even the static one; without a controller the payload is
        byte-identical to pre-control-plane results, which is what keeps
        historical golden fixtures and cached campaign trials valid.
        """
        universe = self._submitted if tasks is None else list(tasks)
        driver = self.pruner.driver if self.pruner is not None else None
        fairness_stats = None
        if driver is not None:
            tracker = self.pruner.fairness
            fairness_stats = {
                "factor": float(tracker.c),
                "scores": {
                    str(k): float(v) for k, v in sorted(tracker.scores().items())
                },
            }
        return SimulationResult.from_tasks(
            universe,
            cluster=self.cluster,
            makespan=self._makespan(),
            defer_decisions=self.accounting.total_defers,
            mapping_events=self.allocator.mapping_events,
            estimator_stats=self.estimator.cache_stats(),
            dynamics_stats=self.dynamics.stats() if self.dynamics else None,
            controller_stats=driver.stats() if driver is not None else None,
            fairness_stats=fairness_stats,
            dag_stats=(
                self.dag.stats(universe, self.accounting.total_dropped_cascade)
                if self.dag is not None
                else None
            ),
        )

    @property
    def tasks(self) -> list[Task]:
        return list(self._submitted)
