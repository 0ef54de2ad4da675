"""Machines with FCFS queues (§II system model).

A machine executes at most one task at a time, without preemption or
multitasking; mapped tasks wait in the machine's FCFS queue.  Batch-mode
resource allocation bounds the queue length (*machine queue slots*), which
is what forces tasks to pool in the batch queue where the pruner can see
them.

The machine itself knows nothing about deadlines or probabilities — it
samples an actual execution time through a caller-provided sampler and
reports completions through a callback.  All scheduling intelligence lives
in :mod:`repro.heuristics` and :mod:`repro.core`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .engine import EventHandle, Priority, Simulator
from .task import Task, TaskStatus

__all__ = ["Machine", "ExecutionSampler", "CompletionCallback"]

#: Callable that draws the actual execution time of ``task`` on ``machine``.
ExecutionSampler = Callable[[Task, "Machine"], float]

#: Callable invoked after a task finishes on a machine.
CompletionCallback = Callable[[Task, "Machine"], None]


class Machine:
    """One compute node of the (possibly heterogeneous) cluster."""

    def __init__(
        self,
        machine_id: int,
        machine_type: int,
        *,
        queue_limit: int | None = None,
    ) -> None:
        if queue_limit is not None and queue_limit < 0:
            raise ValueError("queue_limit must be >= 0 or None")
        self.machine_id = machine_id
        self.machine_type = machine_type
        self.queue_limit = queue_limit
        self.queue: list[Task] = []
        self.running: Task | None = None
        self.running_started_at: float | None = None
        #: Cluster-dynamics state: an offline machine (failed or drained
        #: for scale-down) accepts no dispatches and reports zero free
        #: slots, so every heuristic skips it without special-casing.
        self.online: bool = True
        self._finish_handle: EventHandle | None = None
        #: Optional hook invoked when the machine skips a queued task whose
        #: deadline already passed while picking its next task (§II: "a
        #: task that is past its deadline must be dropped from the
        #: system").  The resource allocator installs this to record the
        #: reactive drop; without a hook the task is still skipped.
        self.on_reap: Callable[[Task], None] | None = None
        #: The machine's one change signal: a monotone counter that steps
        #: once per change to the queue or the running task — an enqueue,
        #: a removed or reaped task, the head leaving the queue, a task
        #: starting or finishing, going offline or online.  Everything
        #: derived from the machine keys on it, and the completion
        #: estimator reconciles its caches against it (and counts its
        #: steps as invalidations).
        self.version: int = 0
        # Cumulative busy time, for utilization/energy accounting.
        self.busy_time: float = 0.0
        self.completed_count: int = 0
        # Sampler/callback supplied with each dispatched task, so a task
        # always starts with the pair it was dispatched with (normally
        # identical across calls, but the contract holds for any caller).
        self._task_hooks: dict[int, tuple[ExecutionSampler, CompletionCallback]] = {}

    # ------------------------------------------------------------------
    @property
    def has_free_slot(self) -> bool:
        """Whether the FCFS queue can accept one more mapped task.
        Always False while offline."""
        if not self.online:
            return False
        return self.queue_limit is None or len(self.queue) < self.queue_limit

    def free_slots(self) -> int | None:
        """Remaining queue slots (``None`` = unbounded, ``0`` if offline)."""
        if not self.online:
            return 0
        if self.queue_limit is None:
            return None
        return self.queue_limit - len(self.queue)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` wall time spent executing tasks."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    # ------------------------------------------------------------------
    def dispatch(
        self,
        task: Task,
        sim: Simulator,
        sampler: ExecutionSampler,
        on_complete: CompletionCallback,
    ) -> None:
        """Accept a mapped task into the FCFS queue; start it if idle."""
        if task.status is not TaskStatus.MAPPED or task.machine_id != self.machine_id:
            raise RuntimeError(
                f"task {task.task_id} dispatched to machine {self.machine_id} "
                f"in state {task.status} (mapped to {task.machine_id})"
            )
        if not self.online:
            raise RuntimeError(f"machine {self.machine_id} is offline")
        if not self.has_free_slot:
            raise RuntimeError(f"machine {self.machine_id} queue is full")
        self.queue.append(task)
        self._task_hooks[task.task_id] = (sampler, on_complete)
        self.version += 1
        if self.running is None:
            self._start_next(sim)

    def remove(self, task: Task) -> bool:
        """Remove a queued task (dropping).  The running task is immune —
        execution is non-preemptive (§II).  Returns True when removed."""
        for idx, queued in enumerate(self.queue):
            if queued is task:
                del self.queue[idx]
                self._task_hooks.pop(task.task_id, None)
                self.version += 1
                return True
        return False

    def remove_many(self, tasks: Iterable[Task]) -> int:
        """Remove every queued task among ``tasks`` (any iterable); the
        version steps once per removed task.  Returns how many."""
        wanted = {id(t) for t in tasks}
        removed = [t for t in self.queue if id(t) in wanted]
        if not removed:
            return 0
        self.queue = [t for t in self.queue if id(t) not in wanted]
        for t in removed:
            self._task_hooks.pop(t.task_id, None)
        self.version += len(removed)
        return len(removed)

    # ------------------------------------------------------------------
    # Cluster dynamics: failure, graceful drain, recovery.
    # ------------------------------------------------------------------
    def fail(self, sim: Simulator) -> tuple[Task | None, list[Task]]:
        """Abrupt machine failure: the running task is killed (its partial
        work is lost), queued tasks are evicted, and the machine goes
        offline.  Returns ``(interrupted_running_task, evicted_queue)``
        — both still in their pre-failure task states; the caller (the
        dynamics driver) requeues them through allocator admission.

        The elapsed slice of the interrupted task counts as busy time:
        the machine *was* occupied, the work just produced nothing.
        """
        if not self.online:
            raise RuntimeError(f"machine {self.machine_id} is already offline")
        interrupted = self.running
        if interrupted is not None:
            if self._finish_handle is not None:
                sim.cancel(self._finish_handle)
                self._finish_handle = None
            assert self.running_started_at is not None
            self.busy_time += sim.now - self.running_started_at
            self.running = None
            self.running_started_at = None
        evicted = list(self.queue)
        self.queue.clear()
        self._task_hooks.clear()
        self.online = False
        self.version += 1
        return interrupted, evicted

    def drain(self) -> list[Task]:
        """Graceful scale-down: stop accepting work, evict the queue, let
        the running task (if any) finish normally.  Returns the evicted
        queued tasks for readmission."""
        if not self.online:
            raise RuntimeError(f"machine {self.machine_id} is already offline")
        evicted = list(self.queue)
        self.queue.clear()
        for task in evicted:
            self._task_hooks.pop(task.task_id, None)
        self.online = False
        self.version += 1
        return evicted

    def recover(self) -> None:
        """Bring a failed/drained machine back online, empty."""
        if self.online:
            raise RuntimeError(f"machine {self.machine_id} is already online")
        self.online = True
        self.version += 1

    # ------------------------------------------------------------------
    def _start_next(self, sim: Simulator) -> None:
        if self.running is not None:
            raise RuntimeError(f"machine {self.machine_id} already running")
        if not self.online:
            # A drained machine's last completion must not restart work.
            return
        # Reactive dropping at the machine level: never *start* a task
        # whose deadline has already passed — there is no value in
        # executing it (§II).
        while self.queue and sim.now > self.queue[0].deadline:
            missed = self.queue.pop(0)
            self._task_hooks.pop(missed.task_id, None)
            self.version += 1
            if self.on_reap is not None:
                self.on_reap(missed)
        if not self.queue:
            return
        task = self.queue.pop(0)
        sampler, on_complete = self._task_hooks[task.task_id]
        exec_time = float(sampler(task, self))
        if exec_time <= 0:
            raise ValueError(f"sampled non-positive execution time {exec_time}")
        task.mark_running(sim.now, exec_time)
        self.running = task
        self.running_started_at = sim.now
        self.version += 2  # the head left the queue; a new task runs

        def _finish() -> None:
            self._finish_running(sim, task, on_complete)

        self._finish_handle = sim.schedule_in(
            exec_time, _finish, priority=Priority.COMPLETION
        )

    def _finish_running(
        self,
        sim: Simulator,
        task: Task,
        on_complete: CompletionCallback,
    ) -> None:
        assert task is self.running and task.exec_time is not None
        task.mark_completed(sim.now)
        self.busy_time += task.exec_time
        self.completed_count += 1
        self.running = None
        self.running_started_at = None
        self._finish_handle = None
        self._task_hooks.pop(task.task_id, None)
        self.version += 1
        # Keep the machine busy before handing control to the allocator:
        # FCFS head starts immediately, then the completion callback fires
        # a mapping event that can refill the freed slot.
        self._start_next(sim)
        on_complete(task, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        run = self.running.task_id if self.running else None
        return (
            f"Machine(id={self.machine_id}, type={self.machine_type}, "
            f"running={run}, queued={len(self.queue)})"
        )
