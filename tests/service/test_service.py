"""The scheduler service: live ingress, backpressure, admission, and the
replay-vs-live equivalence on a small workload.

Everything runs under a :class:`VirtualClock` driven by
:func:`run_until_quiescent` — zero wall-clock sleeps.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import PruningConfig, ServerlessSystem, WorkloadSpec, generate_workload
from repro.analysis.timeline import TimelineRecorder
from repro.experiments.campaign import level_spec
from repro.service import AsyncTimeline, SchedulerService, VirtualClock, WallClock
from repro.service.service import run_until_quiescent
from repro.sim.dynamics import DynamicsSpec
from repro.system.admission import AdmissionController
from repro.workload.spec import ArrivalPattern

from tests.conftest import fresh_tasks, rejected_at_arrival


# ----------------------------------------------------------------------
# Construction guards.
# ----------------------------------------------------------------------
def test_service_requires_async_timeline(make_system):
    with pytest.raises(TypeError, match="AsyncTimeline"):
        SchedulerService(make_system())  # default Simulator timeline


def test_service_validates_parameters(make_service):
    with pytest.raises(ValueError, match="admission_threshold"):
        make_service(admission_threshold=1.5)
    with pytest.raises(ValueError, match="ingress_capacity"):
        make_service(ingress_capacity=0)


def test_service_double_start_raises(make_service, run_async):
    async def scenario():
        service, _ = make_service()
        await service.start()
        with pytest.raises(RuntimeError, match="already started"):
            await service.start()
        await service.stop()
        await service.stop()  # idempotent

    run_async(scenario())


# ----------------------------------------------------------------------
# Live ingress.
# ----------------------------------------------------------------------
def test_offer_admits_and_completes_one_task(make_service, run_async):
    async def scenario():
        service, clock = make_service()
        await service.start()
        decision = await service.offer({"task_type": 1, "deadline_slack": 50.0})
        assert decision.status == "admitted"
        assert decision.task_id == 0
        await run_until_quiescent(service)
        await service.stop()
        result = service.finalize()
        assert result.total == 1
        assert result.on_time + result.late == 1
        assert clock.now() == result.makespan > 0.0

    run_async(scenario())


def test_offer_stamps_arrival_with_current_service_time(make_service, run_async):
    async def scenario():
        service, clock = make_service()
        await service.start()
        clock.advance_to(12.5)
        decision = await service.offer({"task_type": 0, "deadline_slack": 30.0})
        assert decision.status == "admitted"
        assert decision.time == 12.5
        task = service.system.tasks[0]
        assert task.arrival == 12.5
        assert task.deadline == 42.5
        await run_until_quiescent(service)
        await service.stop()

    run_async(scenario())


@pytest.mark.parametrize(
    "record, fragment",
    [
        ("not a dict", "must be an object"),
        ({}, "missing fields"),
        ({"task_type": 0}, "deadline_slack"),
        ({"task_type": "x", "deadline_slack": 5.0}, "bad field value"),
        ({"task_type": 99, "deadline_slack": 5.0}, "outside model range"),
        ({"task_type": 0, "deadline_slack": 0.0}, "must be positive"),
        ({"task_type": 0, "deadline_slack": -2.0}, "must be positive"),
    ],
)
def test_malformed_records_resolve_immediately(make_service, run_async, record, fragment):
    async def scenario():
        service, _ = make_service()
        await service.start()
        decision = await service.offer(record)
        assert decision.status == "malformed"
        assert fragment in decision.error
        assert decision.to_dict()["status"] == "malformed"
        # The core never saw it: no arrival recorded, no task id burned.
        assert service.system.accounting.total_arrived == 0
        assert service._next_task_id == 0
        # The service is still fully alive afterwards.
        good = await service.offer({"task_type": 0, "deadline_slack": 20.0})
        assert good.status == "admitted"
        await run_until_quiescent(service)
        await service.stop()
        assert service.stats.malformed == 1
        assert service.stats.admitted == 1

    run_async(scenario())


#: Field values that ``int()`` / ``float()`` would coerce into a task:
#: the edge rejects each by name instead.
UNCOERCED = [
    pytest.param({"task_type": 1.7, "deadline_slack": 5.0}, "task_type", id="fractional-type"),
    pytest.param({"task_type": 1.0, "deadline_slack": 5.0}, "task_type", id="float-type"),
    pytest.param({"task_type": True, "deadline_slack": 5.0}, "task_type", id="bool-type"),
    pytest.param({"task_type": "2", "deadline_slack": 5.0}, "task_type", id="string-type"),
    pytest.param({"task_type": 0, "deadline_slack": "5"}, "deadline_slack", id="string-slack"),
    pytest.param({"task_type": 0, "deadline_slack": True}, "deadline_slack", id="bool-slack"),
    pytest.param(
        {"task_type": 0, "deadline_slack": float("inf")}, "deadline_slack", id="infinite-slack"
    ),
    pytest.param({"task_type": 0, "deadline_slack": float("nan")}, "deadline_slack", id="nan-slack"),
]


@pytest.mark.parametrize("record, field", UNCOERCED)
def test_uncoerced_field_values_are_malformed(make_service, run_async, record, field):
    async def scenario():
        service, _ = make_service()
        await service.start()
        decision = await service.offer(record)
        assert decision.status == "malformed"
        assert field in decision.error
        assert service.system.accounting.total_arrived == 0
        assert service._next_task_id == 0
        await service.stop()
        assert (service.stats.malformed, service.stats.admitted) == (1, 0)

    run_async(scenario())


def test_integer_like_numbers_are_accepted(make_service, run_async):
    """NumPy integers and floats are the real numbers they hold."""

    async def scenario():
        service, _ = make_service()
        await service.start()
        decision = await service.offer(
            {"task_type": np.int64(1), "deadline_slack": np.float64(40.0)}
        )
        assert decision.status == "admitted"
        assert service.system.tasks[0].task_type == 1
        await run_until_quiescent(service)
        await service.stop()

    run_async(scenario())


def test_backpressure_sheds_beyond_ingress_capacity(make_service, run_async):
    async def scenario():
        service, _ = make_service(ingress_capacity=2)
        await service.start()
        # Enqueue without yielding: the pump cannot drain between offers,
        # so the third offer sees a full queue and sheds immediately.
        futures = [
            service.offer({"task_type": 0, "deadline_slack": 40.0}) for _ in range(3)
        ]
        shed = await futures[2]
        assert shed.status == "shed"
        assert "ingress queue full" in shed.error
        first, second = await futures[0], await futures[1]
        assert first.status == second.status == "admitted"
        await run_until_quiescent(service)
        await service.stop()
        assert service.stats.to_dict() == {
            "received": 3,
            "admitted": 2,
            "rejected": 0,
            "shed": 1,
            "malformed": 0,
        }
        # Shed offers never reach the core: only 2 arrivals accounted.
        assert service.system.accounting.total_arrived == 2

    run_async(scenario())


def test_admission_gate_rejects_hopeless_task(make_service, run_async):
    async def scenario():
        # Threshold 1.0: only a certain-success task may pass; a slack
        # this small is unreachable on any machine.
        service, _ = make_service(
            pruning=PruningConfig.paper_default(), admission_threshold=1.0
        )
        await service.start()
        decision = await service.offer({"task_type": 2, "deadline_slack": 0.25})
        assert decision.status == "rejected"
        assert decision.chance is not None and decision.chance < 1.0
        await run_until_quiescent(service)
        await service.stop()
        result = service.finalize()
        # The rejection is a fully-accounted proactive drop.
        assert result.total == 1
        assert result.dropped_proactive == 1
        assert service.stats.rejected == 1

    run_async(scenario())


def test_admission_gate_admits_easy_task_with_chance(make_service, run_async):
    async def scenario():
        service, _ = make_service(
            pruning=PruningConfig.paper_default(), admission_threshold=0.5
        )
        await service.start()
        decision = await service.offer({"task_type": 0, "deadline_slack": 200.0})
        assert decision.status == "admitted"
        assert decision.chance is not None and decision.chance >= 0.5
        assert decision.to_dict()["chance"] == decision.chance
        await run_until_quiescent(service)
        await service.stop()

    run_async(scenario())


def test_describe_reports_live_state(make_service, run_async):
    async def scenario():
        service, _ = make_service()
        await service.start()
        await service.offer({"task_type": 0, "deadline_slack": 60.0})
        await run_until_quiescent(service)
        summary = service.describe()
        assert summary["ingress"]["admitted"] == 1
        assert summary["ingress_depth"] == 0
        assert summary["pending_events"] == 0
        assert summary["accounting"]["arrived"] == 1
        assert summary["accounting"]["on_time"] + summary["accounting"]["late"] == 1
        assert summary["cluster"]["machines"] == summary["cluster"]["online"] == 2
        await service.stop()

    run_async(scenario())


def test_stop_finishes_due_work_before_exiting(make_service, run_async):
    async def scenario():
        service, clock = make_service()
        await service.start()
        await service.offer({"task_type": 0, "deadline_slack": 50.0})
        await service.wait_idle()
        nxt = service.next_wakeup()  # the completion event
        clock.advance_to(nxt)
        await service.stop()  # must fire the due completion, then exit
        assert service.next_wakeup() is None
        result = service.finalize()
        assert result.on_time + result.late == 1

    run_async(scenario())


# ----------------------------------------------------------------------
# Replay equivalence (the mini version; the golden suite pins all six
# canonical cases).
# ----------------------------------------------------------------------
def test_replay_matches_simulator_byte_identically(pet_small, small_workload, run_async):
    def sim_run(tasks):
        system = ServerlessSystem(
            pet_small, "MM", pruning=PruningConfig.paper_default(), seed=5
        )
        return system.run(tasks).to_dict()

    async def live_run(tasks):
        system = ServerlessSystem(
            pet_small,
            "MM",
            pruning=PruningConfig.paper_default(),
            seed=5,
            sim=AsyncTimeline(VirtualClock()),
        )
        service = SchedulerService(system)
        await service.start()
        service.replay(tasks)
        await run_until_quiescent(service)
        await service.stop()
        return service.finalize().to_dict()

    expected = sim_run(fresh_tasks(small_workload))
    actual = run_async(live_run(fresh_tasks(small_workload)))
    assert actual == expected


@pytest.mark.parametrize(
    "dynamics", [None, DynamicsSpec(failures=3)], ids=["static", "failures"]
)
def test_gated_replay_matches_gated_simulator(pet_paper, run_async, dynamics):
    """The service's gate is the simulator's :class:`AdmissionController`:
    replayed arrivals and churn requeues face it exactly as in a gated
    simulation, byte for byte."""
    spec = level_spec("15k", ArrivalPattern.SPIKY, 0.2)
    workload = generate_workload(spec, pet_paper, np.random.default_rng(0))
    theta = 0.3

    def build(**kwargs):
        return ServerlessSystem(
            pet_paper,
            "MM",
            pruning=PruningConfig.paper_default(),
            seed=5,
            dynamics=dynamics,
            **kwargs,
        )

    recorder = TimelineRecorder()
    gate = AdmissionController(build(observer=recorder), theta)
    expected = gate.run(fresh_tasks(workload)).to_dict()

    async def live_run():
        service = SchedulerService(
            build(sim=AsyncTimeline(VirtualClock())), admission_threshold=theta
        )
        await service.start()
        service.replay(fresh_tasks(workload))
        await run_until_quiescent(service)
        await service.stop()
        return service.finalize().to_dict()

    assert rejected_at_arrival(recorder)
    assert run_async(live_run()) == expected


def test_replay_then_offer_ids_do_not_collide(pet_small, run_async):
    async def scenario():
        spec = WorkloadSpec(num_tasks=10, time_span=5.0, num_task_types=3)
        tasks = generate_workload(spec, pet_small, np.random.default_rng(3))
        system = ServerlessSystem(pet_small, "MM", seed=5, sim=AsyncTimeline(VirtualClock()))
        service = SchedulerService(system)
        await service.start()
        service.replay(tasks)
        decision = await service.offer({"task_type": 0, "deadline_slack": 90.0})
        # Continues past the replayed ids.
        assert decision.task_id == max(t.task_id for t in tasks) + 1
        await run_until_quiescent(service)
        await service.stop()
        result = service.finalize()
        assert result.total == len(tasks) + 1

    run_async(scenario())


def test_serve_cli_builds_wall_clock_service():
    from repro.service.__main__ import build_parser, build_service

    args = build_parser().parse_args(
        ["--pruning", "--admission-threshold", "0.2", "--rate", "10"]
    )
    service = build_service(args)
    assert isinstance(service.clock, WallClock)
    assert service.clock.rate == 10.0
    assert service.admission_threshold == 0.2
    assert service.system.pruner is not None
    baseline = build_service(build_parser().parse_args([]))
    assert baseline.system.pruner is None


def test_run_until_quiescent_requires_virtual_clock(pet_small, run_async):
    async def scenario():
        system = ServerlessSystem(
            pet_small, "MM", seed=5, sim=AsyncTimeline(WallClock(rate=1000.0))
        )
        service = SchedulerService(system)
        with pytest.raises(TypeError, match="VirtualClock"):
            await run_until_quiescent(service)

    run_async(scenario())


def test_run_until_quiescent_max_wakeups_bounds_progress(make_service, run_async):
    async def scenario():
        service, _ = make_service()
        await service.start()
        for _ in range(3):
            await service.offer({"task_type": 0, "deadline_slack": 80.0})
        wakeups = await run_until_quiescent(service, max_wakeups=1)
        assert wakeups == 1
        assert service.next_wakeup() is not None  # work remains
        total = await run_until_quiescent(service)
        assert total >= 1
        await service.stop()
        assert service.finalize().total == 3

    run_async(scenario())


# ----------------------------------------------------------------------
# The park: one future, resolved by a due deadline or an offer.
# ----------------------------------------------------------------------
async def _yield(n: int = 5) -> None:
    for _ in range(n):
        await asyncio.sleep(0)


def test_advance_short_of_next_event_runs_no_pump_step(make_service, run_async):
    """An advance before the pump's next event time leaves its park
    untouched — no ``_step``, the same parked future, no task created or
    reaped; the advance to that time wakes it and fires the event."""

    async def scenario():
        service, clock = make_service()
        await service.start()
        await service.offer({"task_type": 0, "deadline_slack": 50.0})
        await service.wait_idle()
        nxt = service.next_wakeup()
        assert nxt is not None and nxt > clock.now()
        steps = []
        step = service._step
        service._step = lambda: steps.append(clock.now()) or step()
        tasks = asyncio.all_tasks()
        timers = list(clock._timers)
        assert [deadline for deadline, _ in timers] == [nxt]
        clock.advance_to((clock.now() + nxt) / 2)
        await _yield()
        assert steps == []
        assert asyncio.all_tasks() == tasks
        assert len(clock._timers) == 1 and clock._timers[0] is timers[0]
        fired = service.timeline.events_fired
        clock.advance_to(nxt)
        await _yield()
        assert steps and steps[0] == nxt
        assert service.timeline.events_fired > fired
        await run_until_quiescent(service)
        await service.stop()

    run_async(scenario())


def test_offers_leave_the_task_count_unchanged(make_service, run_async):
    """Parking and waking the pump creates no tasks: across 100 offers,
    interleaved with due events, the loop's task count stays put."""

    async def scenario():
        service, clock = make_service()
        await service.start()
        await service.wait_idle()
        baseline = len(asyncio.all_tasks())
        counts = []
        for k in range(100):
            when = 0.5 * k
            while (nxt := service.next_wakeup()) is not None and nxt <= when:
                service._idle.clear()
                clock.advance_to(max(nxt, clock.now()))
                await service.wait_idle()
                counts.append(len(asyncio.all_tasks()))
            clock.advance_to(max(when, clock.now()))
            decision = await service.offer({"task_type": k % 3, "deadline_slack": 40.0})
            assert decision.status == "admitted"
            counts.append(len(asyncio.all_tasks()))
        await run_until_quiescent(service)
        counts.append(len(asyncio.all_tasks()))
        assert set(counts) == {baseline}
        await service.stop()
        assert service.finalize().total == 100

    run_async(scenario())
