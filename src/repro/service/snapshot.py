"""Snapshot/restore of the mapping core — the rolling-restart path.

A snapshot captures, at a quiescent pump instant (between steps, empty
ingress), everything the mapping core needs to resume *byte-identically*:

* every submitted task's full mutable scheduling state;
* machine queues, the running task and its pending completion event
  (recorded as ``(time, order)`` — the relative heap rank, not the raw
  sequence number, so a restored timeline reproduces the original
  same-instant ordering with fresh sequence numbers);
* the accounting's per-type counters (its run-wide totals are their
  sums) and the mapping-event horizon buffers the Toggle/Fairness
  modules consume;
* the pruner's fairness sufferage table, live β/α setpoints, controller
  mutable state and driver telemetry;
* the estimator's ``cache_stats()`` counters and the execution-RNG
  bit-generator state — so the continuation samples the same execution
  times the uninterrupted run would have.

Pending events are *reconstructed semantically* on restore rather than
pickled: arrivals from task arrival times (in submission order), control
breakpoints from the controller's config-pure schedule, completions from
the recorded per-machine finish times.  Same-instant cross-class order
is fixed by event priorities; within-class order by the recorded ranks —
so the restored heap fires in the original order.

Out of scope (``snapshot_service`` raises): cluster dynamics and DAG
workloads (their pending events close over driver state), and stateful
heuristics (anything overriding the base ``reset``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.engine import Priority
from ..sim.machine import Machine
from ..sim.task import Task, TaskStatus
from ..core.accounting import Accounting, TypeCounters

if TYPE_CHECKING:  # pragma: no cover — annotation-only imports
    from ..core.pruner import Pruner
from ..heuristics.base import BatchHeuristic, ImmediateHeuristic
from .service import SchedulerService, ServiceStats

__all__ = ["snapshot_service", "restore_service", "SNAPSHOT_VERSION"]

SNAPSHOT_VERSION = 2

_TASK_FIELDS = (
    "task_id",
    "task_type",
    "arrival",
    "deadline",
    "machine_id",
    "mapped_at",
    "started_at",
    "finished_at",
    "dropped_at",
    "defer_count",
    "requeue_count",
    "exec_time",
    "value",
    "priority",
)


def _stateless_heuristic(heuristic: BatchHeuristic | ImmediateHeuristic) -> bool:
    reset = type(heuristic).reset
    return reset in (BatchHeuristic.reset, ImmediateHeuristic.reset)


# ----------------------------------------------------------------------
# Capture.
# ----------------------------------------------------------------------
def snapshot_service(service: SchedulerService) -> dict:
    """Capture the full resumable state of a quiescent service."""
    system = service.system
    if system.dynamics is not None:
        raise ValueError("snapshot does not support cluster dynamics")
    if system.dag is not None:
        raise ValueError("snapshot does not support DAG workloads")
    if not _stateless_heuristic(system.heuristic):
        raise ValueError(
            f"snapshot does not support stateful heuristic "
            f"{type(system.heuristic).__name__}"
        )
    if service._ingress:
        raise ValueError("snapshot requires an empty ingress queue (quiescent pump)")

    now = service.timeline.now
    acc = system.accounting
    snap: dict = {
        "version": SNAPSHOT_VERSION,
        "time": now,
        "mode": system.mode,
        "heuristic": system.heuristic.name,
        "admission_threshold": service.admission_threshold,
        "ingress_capacity": service.ingress_capacity,
        "next_task_id": service._next_task_id,
        "service_stats": service.stats.to_dict(),
        "mapping_events": system.allocator.mapping_events,
        "last_outcome_at": system._last_outcome_at,
        "exec_rng": system._exec_rng.bit_generator.state,
        "tasks": [_dump_task(t) for t in system._submitted],
        "accounting": {
            "per_type": {
                str(k): vars(v).copy() for k, v in sorted(acc.per_type.items())
            },
            "event_misses": acc._event_misses,
            "event_on_time": [t.task_id for t in acc._event_on_time],
        },
        "estimator": system.estimator.cache_stats(),
        "machines": [_dump_machine(m, service) for m in system.cluster.machines],
        "batch_queue": [t.task_id for t in system.allocator.pending_tasks()],
        "pruner": _dump_pruner(system.pruner),
    }
    # Normalize completion-event seqs to their relative heap *rank*: raw
    # sequence numbers are timeline-lifetime artifacts (a restored heap
    # starts fresh), but the rank — the only thing same-instant
    # tie-breaking consumes within the COMPLETION class — survives a
    # restore, which keeps snapshot → restore → snapshot byte-stable.
    pending = sorted(
        (m["finish"] for m in snap["machines"] if m["finish"] is not None),
        key=lambda f: (f["time"], f["seq"]),
    )
    for rank, finish in enumerate(pending):
        finish["seq"] = rank
    return snap


def _dump_task(task: Task) -> dict:
    payload = {f: getattr(task, f) for f in _TASK_FIELDS}
    payload["status"] = task.status.value
    if task.metadata:
        payload["metadata"] = dict(task.metadata)
    return payload


def _dump_machine(machine: Machine, service: SchedulerService) -> dict:
    payload = {
        "machine_id": machine.machine_id,
        "machine_type": machine.machine_type,
        "online": machine.online,
        "version": machine.version,
        "busy_time": machine.busy_time,
        "completed_count": machine.completed_count,
        "queue": [t.task_id for t in machine.queue],
        "running": machine.running.task_id if machine.running else None,
        "running_started_at": machine.running_started_at,
        "finish": None,
    }
    if machine.running is not None:
        handle = machine._finish_handle
        if handle is None or handle.cancelled:
            raise ValueError(
                f"machine {machine.machine_id} is running without a pending "
                f"completion event"
            )
        entry = handle._entry
        payload["finish"] = {"time": entry.time, "seq": entry.seq}
    return payload


def _dump_pruner(pruner: Pruner | None) -> dict | None:
    if pruner is None:
        return None
    payload: dict = {
        "setpoints": {
            "beta": pruner.setpoints.beta,
            "alpha": pruner.setpoints.alpha,
        },
        "fairness": {
            "scores": {str(k): v for k, v in sorted(pruner.fairness.scores().items())},
            "epoch": pruner.fairness.epoch,
        },
        "controller": None,
    }
    driver = pruner.driver
    if driver is not None:
        payload["controller"] = {
            "name": driver.controller.name,
            "state": driver.controller.state_dict(),
            "ticks": driver.ticks,
            "time_ticks": driver.time_ticks,
            "updates": driver.updates,
            "initial": [driver.initial[0], driver.initial[1]],
            "trajectory": [list(row) for row in driver.trajectory],
        }
    return payload


# ----------------------------------------------------------------------
# Restore.
# ----------------------------------------------------------------------
def restore_service(service: SchedulerService, snap: dict) -> None:
    """Load a snapshot into a *fresh*, identically-configured service.

    The target must have been built with the same model, heuristic,
    pruning config and cluster shape as the snapshotted one — sanity
    fields guard the obvious mismatches — and must not have run yet.
    After restore the service's clock resumes at the snapshot time and
    its pending events fire in the original order.
    """
    system = service.system
    if snap.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {snap.get('version')!r}")
    if system._submitted or service.timeline.events_fired:
        raise ValueError("restore target must be a fresh, unused service")
    if system.dynamics is not None or system.dag is not None:
        raise ValueError("restore does not support dynamics or DAG systems")
    if snap["mode"] != system.mode or snap["heuristic"] != system.heuristic.name:
        raise ValueError(
            f"snapshot is for {snap['heuristic']}/{snap['mode']}, target is "
            f"{system.heuristic.name}/{system.mode}"
        )
    if len(snap["machines"]) != len(system.cluster.machines):
        raise ValueError(
            f"snapshot has {len(snap['machines'])} machines, target has "
            f"{len(system.cluster.machines)}"
        )
    if (snap["pruner"] is None) != (system.pruner is None):
        raise ValueError("snapshot and target disagree on pruning")

    now = float(snap["time"])
    timeline = service.timeline
    allocator = system.allocator

    # Clock and timeline resume at the capture instant.
    service.clock.resume_at(now)
    timeline._now = now

    # Tasks, in original submission order.
    by_id: dict[int, Task] = {}
    for payload in snap["tasks"]:
        task = _load_task(payload)
        by_id[task.task_id] = task
        system._submitted.append(task)

    _load_accounting(system.accounting, snap["accounting"], by_id)
    system.estimator.load_cache_stats(snap["estimator"])
    system._exec_rng.bit_generator.state = snap["exec_rng"]
    allocator.mapping_events = int(snap["mapping_events"])
    system._last_outcome_at = snap["last_outcome_at"]
    if snap["pruner"] is not None:
        _load_pruner(system.pruner, snap["pruner"])

    # Machines: queues, running tasks, dispatch hooks.
    finishes = []
    for machine, payload in zip(system.cluster.machines, snap["machines"]):
        if machine.machine_type != payload["machine_type"]:
            raise ValueError(
                f"machine {machine.machine_id} type mismatch: snapshot "
                f"{payload['machine_type']}, target {machine.machine_type}"
            )
        machine.online = payload["online"]
        machine.version = payload["version"]
        machine.busy_time = payload["busy_time"]
        machine.completed_count = payload["completed_count"]
        machine.queue = [by_id[tid] for tid in payload["queue"]]
        for task in machine.queue:
            machine._task_hooks[task.task_id] = (
                allocator.exec_sampler,
                allocator.on_completion,
            )
        if payload["running"] is not None:
            task = by_id[payload["running"]]
            machine.running = task
            machine.running_started_at = payload["running_started_at"]
            machine._task_hooks[task.task_id] = (
                allocator.exec_sampler,
                allocator.on_completion,
            )
            finish = payload["finish"]
            finishes.append((finish["time"], finish["seq"], machine, task))

    # Batch queue (empty list for immediate mode).
    batch = [by_id[tid] for tid in snap["batch_queue"]]
    if batch:
        allocator.batch_queue = batch

    # ------------------------------------------------------------------
    # Semantic reconstruction of pending events.  Cross-class same-time
    # order is fixed by priorities (COMPLETION < CONTROL < ARRIVAL);
    # within-class order below reproduces the original heap ranks.
    # ------------------------------------------------------------------
    # 1. Arrivals: unarrived tasks, in submission (= original seq) order.
    for task in system._submitted:
        if task.status is TaskStatus.PENDING and task.arrival > now:
            in_queue = task.task_id in snap["batch_queue"]
            if not in_queue:
                timeline.schedule(
                    task.arrival,
                    (lambda t=task: allocator.submit(t)),
                    priority=Priority.ARRIVAL,
                )
    # 2. Control breakpoints: config-pure, clamped to the arrival span
    #    exactly as submit_workload installed them.
    driver = system.pruner.driver if system.pruner is not None else None
    if driver is not None:
        span = max((t.arrival for t in system._submitted), default=0.0)
        for t in driver.breakpoints():
            if now < t <= span:
                timeline.schedule(
                    t, (lambda t=t: driver.time_tick(t)), priority=Priority.CONTROL
                )
    system._control_installed = True
    # 3. Completions: recorded finish instants, in original seq order.
    for time_, _, machine, task in sorted(finishes, key=lambda f: (f[0], f[1])):

        def _finish(m: Machine = machine, t: Task = task) -> None:
            m._finish_running(timeline, t, allocator.on_completion)

        machine._finish_handle = timeline.schedule(
            time_, _finish, priority=Priority.COMPLETION
        )

    # Service-edge state.
    service._next_task_id = int(snap["next_task_id"])
    service.stats = ServiceStats(**snap["service_stats"])
    # A raised Wake: the restored pump's first park returns at once.
    service._wake.set()


def _load_task(payload: dict) -> Task:
    task = Task(
        task_id=payload["task_id"],
        task_type=payload["task_type"],
        arrival=payload["arrival"],
        deadline=payload["deadline"],
    )
    # Restore bypasses the transition guards on purpose: the snapshot
    # records a state the guards already validated when it was reached.
    task.status = TaskStatus(payload["status"])
    for field in _TASK_FIELDS[4:]:
        setattr(task, field, payload[field])
    task.metadata = dict(payload.get("metadata", ()))
    return task


def _load_accounting(acc: Accounting, payload: dict, by_id: dict[int, Task]) -> None:
    for key, counters in payload["per_type"].items():
        acc.per_type[int(key)] = TypeCounters(**counters)
    acc._event_misses = payload["event_misses"]
    acc._event_on_time = [by_id[tid] for tid in payload["event_on_time"]]


def _load_pruner(pruner: Pruner, payload: dict) -> None:
    pruner.setpoints.beta = payload["setpoints"]["beta"]
    pruner.setpoints.alpha = payload["setpoints"]["alpha"]
    for key, score in payload["fairness"]["scores"].items():
        pruner.fairness._scores[int(key)] = score
    pruner.fairness.epoch = payload["fairness"]["epoch"]
    ctrl = payload["controller"]
    if (ctrl is None) != (pruner.driver is None):
        raise ValueError("snapshot and target disagree on the controller")
    if ctrl is None:
        return
    driver = pruner.driver
    if driver.controller.name != ctrl["name"]:
        raise ValueError(
            f"snapshot controller {ctrl['name']!r} != target "
            f"{driver.controller.name!r}"
        )
    driver.controller.load_state(ctrl["state"])
    driver.ticks = ctrl["ticks"]
    driver.time_ticks = ctrl["time_ticks"]
    driver.updates = ctrl["updates"]
    driver.initial = (ctrl["initial"][0], ctrl["initial"][1])
    driver.trajectory = [list(row) for row in ctrl["trajectory"]]
