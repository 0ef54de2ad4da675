"""The scheduler service: asyncio pump over the shared mapping core.

:class:`SchedulerService` wraps a :class:`~repro.system.serverless.
ServerlessSystem` whose timeline is an :class:`~repro.service.timeline.
AsyncTimeline` and drives it from a single *pump* coroutine:

1. ratchet the timeline to the clock;
2. drain due events (:meth:`AsyncTimeline.fire_due`) — completions,
   arrivals, control breakpoints, churn — exactly as the simulator
   would release them;
3. drain the bounded ingress queue: parse → admission gate (the
   system's :class:`~repro.system.admission.AdmissionController`, which
   gates replayed arrivals and churn requeues too) → allocator submit;
   each producer's future resolves with a structured
   :class:`IngressDecision`;
4. when no progress is possible, publish *idle* and park on one future
   that the clock resolves when the next pending event is due, or that
   a producer resolves through :class:`~repro.service.clock.Wake`;
   a clock advance short of that event leaves the pump parked.

Backpressure is explicit: a full ingress queue sheds new offers
immediately (HTTP 429 upstream), and an Eq.-2 rejection is a proactive
drop with full accounting — the paper's admission-control story applied
at the service edge.

The idle/park handshake is what the deterministic harness
(:func:`run_until_quiescent`) leans on: under a
:class:`~repro.service.clock.VirtualClock` it waits for idle, advances
the clock *exactly* to the next event time, and repeats — so every
event fires at precisely its own timestamp and the whole run is a
byte-identical replay of the discrete-event schedule.
"""

from __future__ import annotations

import asyncio
import math
import numbers
from collections import deque
from dataclasses import asdict, dataclass, field
from collections.abc import Sequence

from ..sim.task import Task
from ..system.admission import AdmissionController
from ..system.serverless import ServerlessSystem
from .clock import VirtualClock, Wake
from .timeline import AsyncTimeline

__all__ = [
    "IngressDecision",
    "ServiceStats",
    "SchedulerService",
    "run_until_quiescent",
]

#: Fields a task record must carry; everything else is optional.
_REQUIRED_FIELDS = ("task_type", "deadline_slack")


@dataclass(frozen=True)
class IngressDecision:
    """Structured outcome of one offered task record."""

    status: str  #: ``admitted`` | ``rejected`` | ``shed`` | ``malformed``
    task_id: int | None = None
    time: float = 0.0
    #: Best-machine Eq.-2 chance at admission (``None`` when not gated).
    chance: float | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        payload: dict = {"status": self.status, "time": self.time}
        if self.task_id is not None:
            payload["task_id"] = self.task_id
        if self.chance is not None:
            payload["chance"] = self.chance
        if self.error is not None:
            payload["error"] = self.error
        return payload


@dataclass
class ServiceStats:
    """Ingress counters (accounting of the service edge, not the core)."""

    received: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    malformed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class _IngressItem:
    task: Task
    future: asyncio.Future[IngressDecision] = field(repr=False)


class SchedulerService:
    """Live driver over one :class:`ServerlessSystem` mapping core.

    Parameters
    ----------
    system:
        A system constructed with ``sim=AsyncTimeline(clock)``.
    admission_threshold:
        Eq.-2 admission gate: an arriving task whose *best-machine*
        chance of success is below this is rejected (proactive drop,
        fully accounted); the same gate covers replayed arrivals and
        churn requeues.  ``0.0`` disables the gate — every
        well-formed, non-shed task is admitted.
    ingress_capacity:
        Bound of the ingress queue; offers beyond it are shed
        immediately (backpressure, HTTP 429 upstream).
    """

    def __init__(
        self,
        system: ServerlessSystem,
        *,
        admission_threshold: float = 0.0,
        ingress_capacity: int = 1024,
    ) -> None:
        if not isinstance(system.sim, AsyncTimeline):
            raise TypeError(
                "SchedulerService needs a system built over an AsyncTimeline "
                "(pass sim=AsyncTimeline(clock) to ServerlessSystem)"
            )
        if not 0.0 <= admission_threshold <= 1.0:
            raise ValueError(
                f"admission_threshold must be in [0, 1], got {admission_threshold}"
            )
        if ingress_capacity < 1:
            raise ValueError(f"ingress_capacity must be >= 1, got {ingress_capacity}")
        self.system = system
        self.timeline: AsyncTimeline = system.sim
        self.clock = self.timeline.clock
        self.admission_threshold = float(admission_threshold)
        self.gate = (
            AdmissionController(system, self.admission_threshold)
            if self.admission_threshold > 0.0
            else None
        )
        self.ingress_capacity = int(ingress_capacity)
        self.stats = ServiceStats()
        self._ingress: deque[_IngressItem] = deque()
        self._wake = Wake()
        self._idle = asyncio.Event()
        self._pump_task: asyncio.Task | None = None
        self._stopping = False
        self._next_task_id = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._pump_task is not None:
            raise RuntimeError("service already started")
        self._stopping = False
        self._pump_task = asyncio.ensure_future(self._pump())

    async def stop(self) -> None:
        """Stop the pump after it finishes any due work."""
        if self._pump_task is None:
            return
        self._stopping = True
        self._wake.set()
        await self._pump_task
        self._pump_task = None
        self._wake.clear()

    async def wait_idle(self) -> None:
        """Block until the pump has no due events and an empty ingress."""
        await self._idle.wait()

    def next_wakeup(self) -> float | None:
        """Earliest pending event time (``None`` when fully drained)."""
        return self.timeline.next_event_time()

    # ------------------------------------------------------------------
    # Ingress: the in-process queue client.
    # ------------------------------------------------------------------
    def offer(self, record: dict) -> asyncio.Future[IngressDecision]:
        """Offer one task record; the future resolves with the decision.

        Malformed records and shed (queue-full) offers resolve
        immediately; well-formed offers resolve once the pump processes
        them, in arrival order, interleaved correctly with due events.
        """
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.stats.received += 1
        now = self.timeline.now
        task, error = self._parse_record(record, now)
        if task is None:
            self.stats.malformed += 1
            future.set_result(
                IngressDecision(status="malformed", time=now, error=error)
            )
            return future
        if len(self._ingress) >= self.ingress_capacity:
            self.stats.shed += 1
            future.set_result(
                IngressDecision(
                    status="shed",
                    time=now,
                    error=f"ingress queue full ({self.ingress_capacity})",
                )
            )
            return future
        self._ingress.append(_IngressItem(task, future))
        self._wake.set()
        return future

    def _parse_record(self, record, now: float) -> tuple[Task | None, str | None]:
        if not isinstance(record, dict):
            return None, f"record must be an object, got {type(record).__name__}"
        missing = [f for f in _REQUIRED_FIELDS if f not in record]
        if missing:
            return None, f"missing fields: {', '.join(missing)}"
        # Values are taken as they come, never coerced: a bool, a string
        # or a fractional type id is a client bug to report, not to guess.
        task_type = record["task_type"]
        if isinstance(task_type, bool) or not isinstance(task_type, numbers.Integral):
            return None, f"bad field value: task_type must be an integer, got {task_type!r}"
        task_type = int(task_type)
        slack = record["deadline_slack"]
        if isinstance(slack, bool) or not isinstance(slack, numbers.Real):
            return None, f"bad field value: deadline_slack must be a number, got {slack!r}"
        slack = float(slack)
        if task_type < 0 or task_type >= self.system.model.num_task_types:
            return None, (
                f"task_type {task_type} outside model range "
                f"[0, {self.system.model.num_task_types})"
            )
        if not math.isfinite(slack):
            return None, f"deadline_slack must be finite, got {slack}"
        if not slack > 0:
            return None, f"deadline_slack must be positive, got {slack}"
        task_id = self._next_task_id
        self._next_task_id += 1
        try:
            task = Task(
                task_id=task_id,
                task_type=task_type,
                arrival=now,
                deadline=now + slack,
            )
        except ValueError as exc:  # pragma: no cover - defensive
            return None, str(exc)
        return task, None

    # ------------------------------------------------------------------
    # Replay: the trace client (the equivalence driver).
    # ------------------------------------------------------------------
    def replay(self, tasks: Sequence[Task]) -> None:
        """Stream a recorded workload through the service.

        Delegates to :meth:`ServerlessSystem.submit_workload`, so arrival
        scheduling, control breakpoints, dynamics installation and DAG
        wiring are *the same code path* the simulator uses — which is
        what makes replay-vs-live equivalence a property of the timeline
        alone, not of two parallel ingestion implementations.
        """
        self.system.submit_workload(tasks)
        ids = [t.task_id for t in tasks]
        if ids:
            self._next_task_id = max(self._next_task_id, max(ids) + 1)
        self._wake.set()

    def finalize(self):
        """Finalize leftovers and aggregate — the sim driver's epilogue."""
        self.system._finalize_leftovers()
        return self.system.result()

    # ------------------------------------------------------------------
    # Telemetry.
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Live JSON-ready summary (the HTTP ``/v1/stats`` payload)."""
        cluster = self.system.cluster
        return {
            "time": self.timeline.now,
            "ingress": self.stats.to_dict(),
            "ingress_depth": len(self._ingress),
            "pending_events": self.timeline.pending_events,
            "accounting": self.system.accounting.totals(),
            "cluster": {
                "machines": len(cluster.machines),
                "online": len(cluster.online_machines()),
            },
            "mapping_events": self.system.allocator.mapping_events,
        }

    # ------------------------------------------------------------------
    # The pump.
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        try:
            while True:
                progressed = self._step()
                if progressed:
                    # Yield so producers (HTTP handlers, offer() callers)
                    # interleave under sustained load, then step again
                    # rather than park: an offer made during the yield is
                    # taken without a park round trip, and idle is only
                    # published after a step that found nothing (falling
                    # through to the park measured 0.95x the tasks/s on
                    # the service-bursty benchmark).
                    await asyncio.sleep(0)
                    continue
                if self._stopping:
                    break
                self._idle.set()
                try:
                    await self.clock.wait_until(self.next_wakeup(), self._wake)
                finally:
                    # The harness may have cleared idle already (its
                    # advance woke us); clearing twice is harmless.
                    self._idle.clear()
                self._wake.clear()
        finally:
            # Unblock wait_idle() callers on shutdown or pump crash.
            self._idle.set()

    def _step(self) -> bool:
        self.timeline.sync_to_clock()
        fired = self.timeline.fire_due()
        processed = self._process_ingress()
        return bool(fired or processed)

    def _process_ingress(self) -> int:
        processed = 0
        while self._ingress:
            item = self._ingress.popleft()
            decision = self._admit_live(item.task)
            if not item.future.done():
                item.future.set_result(decision)
            processed += 1
        return processed

    def _admit_live(self, task: Task) -> IngressDecision:
        now = self.timeline.now
        self.system._submitted.append(task)
        chance: float | None = None
        if self.gate is None:
            self.system.allocator.submit(task)
        else:
            chance = self.gate.offer(task)
        if chance is not None and chance < self.admission_threshold:
            self.stats.rejected += 1
            status = "rejected"
        else:
            self.stats.admitted += 1
            status = "admitted"
        return IngressDecision(status=status, task_id=task.task_id, time=now, chance=chance)


async def run_until_quiescent(
    service: SchedulerService, *, max_wakeups: int | None = None
) -> int:
    """Deterministically drive a virtual-clock service until it drains.

    The harness protocol: wait for the pump to go idle, read the next
    pending event time, advance the virtual clock *exactly* there, and
    repeat until no events remain.  Each advance releases precisely the
    events due at that instant, in simulator heap order — no real time
    passes, and the schedule is byte-identical to the discrete-event
    run.  Returns the number of clock advances performed.
    """
    clock = service.clock
    if not isinstance(clock, VirtualClock):
        raise TypeError("run_until_quiescent requires a VirtualClock service")
    wakeups = 0
    while True:
        await service.wait_idle()
        nxt = service.next_wakeup()
        if nxt is None:
            return wakeups
        if max_wakeups is not None and wakeups >= max_wakeups:
            return wakeups
        # Clear idle *before* advancing: the next wait_idle() then blocks
        # until the pump has fired this instant's events and re-parked.
        # The pump parked on one future with this very deadline, so the
        # advance resolves it; an advance short of the deadline would
        # leave it parked.
        service._idle.clear()
        clock.advance_to(max(nxt, clock.now()))
        wakeups += 1
