"""Resource allocation systems (Fig. 1): immediate- and batch-mode.

The allocator owns the mapping-event loop and *enacts* pruning decisions:

* a **mapping event** fires when a task arrives (batch mode: only if some
  machine queue has a free slot) and when a task completes (§II);
* every mapping event starts by reactively dropping tasks whose deadline
  already passed (Fig. 5 step 1), then runs fairness/toggle/drop-scan
  (steps 2–6) when a pruner is attached, then maps tasks (steps 7–11).

The pruner is optional — ``pruner=None`` gives the paper's baseline
resource allocation, and any heuristic works with or without pruning,
which is the mechanism's headline "pluggability" property.
"""

from __future__ import annotations

import abc
from collections.abc import Callable, Sequence

from ..core.accounting import Accounting
from ..core.pruner import Pruner
from ..heuristics.base import BatchHeuristic, ImmediateHeuristic, PlanningContext
from ..sim.cluster import Cluster
from ..sim.engine import Simulator
from ..sim.machine import Machine
from ..sim.task import Task
from .completion import CompletionEstimator

__all__ = ["EVENT_KINDS", "ResourceAllocator", "ImmediateAllocator", "BatchAllocator"]

#: Optional observer of task transitions: ``(event, task, time)``.
TaskObserver = Callable[[str, Task, float], None]

#: Every event kind the allocator passes to its :data:`TaskObserver`
#: (``held``/``released``: DAG gating; ``requeued``: churn victims).
EVENT_KINDS = (
    "arrived", "held", "released", "dispatched", "deferred", "completed",
    "dropped_missed", "dropped_proactive", "requeued",
)


class ResourceAllocator(abc.ABC):
    """Common machinery for both allocation modes."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        estimator: CompletionEstimator,
        *,
        pruner: Pruner | None = None,
        accounting: Accounting | None = None,
        exec_sampler: Callable[[Task, Machine], float],
        observer: TaskObserver | None = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.estimator = estimator
        self.pruner = pruner
        if pruner is not None and accounting is not None and pruner.accounting is not accounting:
            raise ValueError("pruner and allocator must share one Accounting instance")
        self.accounting = (
            pruner.accounting if pruner is not None else (accounting or Accounting())
        )
        self.exec_sampler = exec_sampler
        self.observer = observer
        self.mapping_events = 0
        #: DAG workloads: dependency tracker wired by the system when the
        #: submitted tasks carry ``deps`` (``None`` for the paper's
        #: independent-task model — every gate below short-circuits).
        self.dag = None
        # Machines skip deadline-missed tasks when picking their next job;
        # record those reactive drops in the accounting.
        for machine in cluster.machines:
            machine.on_reap = self._on_machine_reap

    def _on_machine_reap(self, task: Task) -> None:
        self.drop(task, proactive=False)

    def drop(self, task: Task, *, proactive: bool) -> None:
        """Drop an already-dequeued ``task`` now: mark, record, notify
        the observer and cascade to its DAG dependents."""
        task.mark_dropped(self.sim.now, proactive=proactive)
        self.accounting.record_drop(task)
        self._notify("dropped_proactive" if proactive else "dropped_missed", task)
        self._drop_cascade(task)

    # ------------------------------------------------------------------
    # Cluster-dynamics admission (the DynamicsHost protocol).
    # ------------------------------------------------------------------
    def adopt_machine(self, machine: Machine) -> None:
        """Wire an elastically added machine into this allocator."""
        machine.on_reap = self._on_machine_reap

    def kick(self) -> None:
        """Fire a mapping event outside the arrival/completion triggers —
        used when cluster capacity changes (recovery, scale-up)."""
        self._mapping_event(arriving=None)

    def requeue(self, tasks: Sequence[Task]) -> int:
        """Readmit tasks evicted by machine churn (already PENDING again).

        This is the same admission gate arrivals pass through: a victim
        whose deadline has already passed is dropped reactively (§II —
        there is no value in remapping it), everything else re-enters the
        mode's queue and competes at the next mapping event.  Returns the
        number actually readmitted (evictions minus immediate drops).
        """
        now = self.sim.now
        readmitted = 0
        for task in tasks:
            if now > task.deadline:
                self.drop(task, proactive=False)
                continue
            self.accounting.record_requeue(task)
            self._notify("requeued", task)
            self._readmit(task)
            readmitted += 1
        self._after_requeue(readmitted)
        return readmitted

    def _after_requeue(self, readmitted: int) -> None:
        """Hook after a churn-victim batch re-entered admission."""

    def _readmit(self, task: Task) -> None:
        """Mode-specific re-entry of one churn victim."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def submit(self, task: Task) -> None:
        """Handle a task arrival."""

    @abc.abstractmethod
    def pending_tasks(self) -> list[Task]:
        """Tasks waiting in the arrival/batch queue (empty for immediate)."""

    # ------------------------------------------------------------------
    def _notify(self, event: str, task: Task) -> None:
        if self.observer is not None:
            self.observer(event, task, self.sim.now)

    # ------------------------------------------------------------------
    # DAG gating: release-on-parent-completion + cascade drops.  All of
    # it short-circuits when ``self.dag`` is None (independent tasks).
    # ------------------------------------------------------------------
    def _admit(self, task: Task) -> bool:
        """Record an arrival; True when the task proceeds to mapping.

        With a dependency tracker attached, a task whose parents are
        incomplete is *held* (released by the completion of its last
        parent); a task whose ancestor was already dropped arrives
        doomed and is dropped on the spot, keeping the accounting
        identity arrived = completed + dropped + unfinished.
        """
        self.accounting.record_arrival(task)
        self._notify("arrived", task)
        dag = self.dag
        if dag is None or not task.deps:
            return True
        if dag.is_doomed(task):
            dag.drop_held(task)  # marks dead; it was never held
            task.mark_dropped(self.sim.now, proactive=True)
            self.accounting.record_drop(task)
            self.accounting.record_cascade(task)
            self._notify("dropped_proactive", task)
            return False
        if dag.ready(task):
            return True
        dag.hold(task)
        self._notify("held", task)
        return False

    def _drop_cascade(self, task: Task) -> None:
        """Drop every held transitive dependent of a just-dropped task
        (not-yet-arrived dependents are doomed and drop at submission).

        Victims are provably unmapped — their parents never all
        completed — so no machine or batch queue needs fixing up.
        """
        if self.dag is None:
            return
        for victim in self.dag.cascade(task):
            victim.mark_dropped(self.sim.now, proactive=True)
            self.accounting.record_drop(victim)
            self.accounting.record_cascade(victim)
            self._notify("dropped_proactive", victim)

    def _admit_released(self, task: Task) -> None:
        """Mode-specific admission of a task released by its last parent."""
        raise NotImplementedError

    def on_completion(self, task: Task, machine: Machine) -> None:
        """Machine callback: record the completion, fire a mapping event."""
        self.accounting.record_completion(task)
        self._notify("completed", task)
        if self.dag is not None:
            for released in self.dag.note_completed(task):
                self._notify("released", released)
                self._admit_released(released)
        self._mapping_event(arriving=None)

    def _dispatch(self, task: Task, machine: Machine) -> None:
        machine.dispatch(task, self.sim, self.exec_sampler, self.on_completion)
        self._notify("dispatched", task)

    # ------------------------------------------------------------------
    # Fig. 5 step 1 — reactive dropping of deadline-missed tasks.
    # ------------------------------------------------------------------
    def _reactive_drop_pass(self) -> None:
        now = self.sim.now
        for machine in self.cluster.machines:
            missed = [t for t in machine.queue if now > t.deadline]
            if missed:
                machine.remove_many(missed)
                for task in missed:
                    self.drop(task, proactive=False)
        for task in self._pending_deadline_missed(now):
            self.drop(task, proactive=False)
        if self.dag is not None:
            # Held tasks sit outside every queue; sweep their deadlines
            # here so a gated task cannot outlive its own hard deadline.
            for task in self.dag.held_deadline_missed(now):
                self.drop(task, proactive=False)

    def _pending_deadline_missed(self, now: float) -> list[Task]:
        """Remove and return deadline-missed tasks from the arrival queue."""
        return []

    def _batch_depth(self) -> int:
        """Tasks pooled in the mode's arrival queue (0 for immediate)."""
        return 0

    # ------------------------------------------------------------------
    # Fig. 5 steps 2–6 — fairness, toggle, drop scan (plus the control
    # plane's step-0 tick when a controller is attached).
    # ------------------------------------------------------------------
    def _pruning_prologue(self) -> None:
        pruner = self.pruner
        if pruner is None:
            self.accounting.flush_event()
            return
        # Step 0 (beyond the paper): let the controller observe this
        # event and move β/α before any decision consumes them.
        pruner.control_tick(
            self.cluster,
            self.sim.now,
            mapping_events=self.mapping_events,
            batch_queued=self._batch_depth(),
        )
        pruner.update_fairness()
        engaged = pruner.dropping_engaged()
        if engaged:
            for decision in pruner.drop_scan(self.cluster, self.estimator, self.sim.now):
                self.drop(decision.task, proactive=True)
        if engaged and self.dag is not None:
            # Doomed-subgraph scan (beyond the paper): held tasks whose
            # critical-path-propagated chance clears no machine are
            # dropped before they ever reach a queue, cascading to their
            # own dependents.
            held = self.dag.held_tasks()
            if held:
                for decision in pruner.gate_scan(
                    held, self.cluster, self.estimator, self.sim.now
                ):
                    task = decision.task
                    if task.is_terminal:
                        # An earlier decision's cascade already swept this
                        # task up (held tasks can depend on held tasks).
                        continue
                    self.dag.drop_held(task)
                    self.drop(task, proactive=True)
        # The toggle has consumed this event's miss count; start a fresh
        # horizon for the next mapping event.
        pruner.end_mapping_event()

    @abc.abstractmethod
    def _mapping_event(self, arriving: Task | None) -> None: ...


class ImmediateAllocator(ResourceAllocator):
    """Fig. 1(a): the mapper places each task immediately upon arrival.

    There is no arrival queue, so deferring never applies; the pruning
    mechanism contributes reactive and proactive *dropping* on the
    machine queues (the Fig. 7a experiment).
    """

    def __init__(self, *args, heuristic: ImmediateHeuristic, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not isinstance(heuristic, ImmediateHeuristic):
            raise TypeError(
                f"immediate-mode allocator needs an ImmediateHeuristic, got "
                f"{type(heuristic).__name__}"
            )
        self.heuristic = heuristic
        #: Churn victims parked between _readmit and _after_requeue.
        self._requeue_buffer: list[Task] = []
        #: DAG releases parked until the mapping event that follows the
        #: releasing completion (there is no arrival queue to put them in).
        self._release_buffer: list[Task] = []

    def submit(self, task: Task) -> None:
        if self._admit(task):
            self._mapping_event(arriving=task)

    def _readmit(self, task: Task) -> None:
        # No arrival queue to park victims in; they are remapped in one
        # shared mapping event once the whole batch is in (_after_requeue):
        # a per-victim event would repeat the cluster-wide reactive/
        # pruning passes k times at the same instant and count k mapping
        # events where batch mode counts one.
        self._requeue_buffer.append(task)

    def _after_requeue(self, readmitted: int) -> None:
        victims, self._requeue_buffer = self._requeue_buffer, []
        if victims:
            self._run_mapping_event(victims)

    def _admit_released(self, task: Task) -> None:
        self._release_buffer.append(task)

    def pending_tasks(self) -> list[Task]:
        return []

    def _mapping_event(self, arriving: Task | None) -> None:
        self._run_mapping_event([] if arriving is None else [arriving])

    def _run_mapping_event(self, to_map: list[Task]) -> None:
        """One Fig. 5 mapping event, placing every task in ``to_map``
        (one arrival, or a whole churn-requeue batch)."""
        if self._release_buffer:
            # Freshly released DAG tasks are mapped by the event their
            # releasing completion fired, ahead of any new arrival.
            to_map = self._release_buffer + to_map
            self._release_buffer = []
        self.mapping_events += 1
        self._reactive_drop_pass()
        self._pruning_prologue()
        for task in to_map:
            if task.is_terminal:
                continue
            machine = self.heuristic.select_machine(
                task, self.cluster, self.estimator, self.sim.now
            )
            task.mark_mapped(machine.machine_id, self.sim.now)
            self._dispatch(task, machine)


class BatchAllocator(ResourceAllocator):
    """Fig. 1(b)/(c): arriving tasks pool in a batch queue; mapping events
    run the two-phase heuristic over the batch and fill machine-queue
    slots, with the pruner deferring low-chance mappings (steps 7–11)."""

    def __init__(self, *args, heuristic: BatchHeuristic, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not isinstance(heuristic, BatchHeuristic):
            raise TypeError(
                f"batch-mode allocator needs a BatchHeuristic, got "
                f"{type(heuristic).__name__}"
            )
        self.heuristic = heuristic
        self.batch_queue: list[Task] = []

    def _batch_depth(self) -> int:
        return len(self.batch_queue)

    def submit(self, task: Task) -> None:
        if not self._admit(task):
            return
        self.batch_queue.append(task)
        # §II: arrival triggers a mapping event only while machine queues
        # are not full; otherwise the task waits for the next completion.
        if self.cluster.any_free_slot():
            self._mapping_event(arriving=task)

    def _admit_released(self, task: Task) -> None:
        # Released tasks pool in the batch queue like any unmapped task;
        # the completion that released them fires the mapping event.
        self.batch_queue.append(task)

    def pending_tasks(self) -> list[Task]:
        return list(self.batch_queue)

    def _readmit(self, task: Task) -> None:
        # Victims pool in the batch queue like any unmapped task; one
        # mapping event fires for the whole requeue batch (below).
        self.batch_queue.append(task)

    def _after_requeue(self, readmitted: int) -> None:
        if readmitted and self.cluster.any_free_slot():
            self._mapping_event(arriving=None)

    def _pending_deadline_missed(self, now: float) -> list[Task]:
        missed = [t for t in self.batch_queue if now > t.deadline]
        if missed:
            missed_ids = {id(t) for t in missed}
            self.batch_queue = [t for t in self.batch_queue if id(t) not in missed_ids]
        return missed

    # ------------------------------------------------------------------
    def _mapping_event(self, arriving: Task | None) -> None:
        self.mapping_events += 1
        now = self.sim.now
        self._reactive_drop_pass()
        self._pruning_prologue()

        # Fig. 5 steps 7–11: repeatedly plan and dispatch; deferred tasks
        # leave the eligible set for this event but stay in the batch
        # queue for the next one.  The eligible set is the event's
        # planning context, which carries its arrays across the rounds.
        defer_enabled = self.pruner is not None and self.pruner.config.enable_deferring
        eligible = PlanningContext(self.batch_queue, self.cluster, self.estimator)
        while eligible and self.cluster.any_free_slot():
            plan = self.heuristic.plan(eligible, self.cluster, self.estimator, now)
            if not plan:
                break
            if defer_enabled:
                # One batched Eq. 2 query for the whole plan.  A dispatch
                # inside the loop mutates its machine's queue, so chances
                # of later placements on that machine are recomputed
                # point-wise against the live state (version guard).
                plan_versions = [machine.version for _, machine in plan]
                plan_chances = self.estimator.chances_for_pairs(plan, now)
            consumed: set[int] = set()
            for i, (task, machine) in enumerate(plan):
                if not machine.has_free_slot:
                    # Real queue state diverged from the virtual plan
                    # (earlier dispatches filled it); leave the task for
                    # the next planning round.
                    continue
                consumed.add(task.task_id)
                task.mark_mapped(machine.machine_id, now)
                if defer_enabled:
                    if machine.version == plan_versions[i]:
                        chance = float(plan_chances[i])
                    else:
                        chance = self.estimator.chance_of_success(task, machine, now)
                    if self.pruner.should_defer(task, chance, machine, self.estimator, now):
                        task.mark_deferred()
                        self.accounting.record_defer(task)
                        self._notify("deferred", task)
                        continue
                self._remove_from_batch(task)
                self._dispatch(task, machine)
            if not consumed:
                break
            eligible.consume(consumed)

    def _remove_from_batch(self, task: Task) -> None:
        for idx, queued in enumerate(self.batch_queue):
            if queued is task:
                del self.batch_queue[idx]
                return
        raise RuntimeError(f"task {task.task_id} not in batch queue")
