"""Snapshot/restore round-trips at arbitrary mid-run capture points.

The Hypothesis property is the rolling-restart contract end to end:
run a workload for *k* harness wakeups, snapshot, restore into a fresh
identically-configured service, and

* the restored service's own snapshot is **byte-identical** to the one
  it was loaded from (estimator counters, controller setpoints,
  accounting, RNG state — everything);
* continuing the restored service to completion reproduces the
  uninterrupted run's result exactly (minus ``estimator_stats``: the
  rebuilt caches recompute, so hit/miss counters legitimately diverge),
  which is also the no-duplicated/no-lost-outcomes guarantee.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ControllerConfig,
    PruningConfig,
    ServerlessSystem,
    WorkloadSpec,
    generate_pet_matrix,
    generate_workload,
)
from repro.service import (
    AsyncTimeline,
    SchedulerService,
    VirtualClock,
    restore_service,
    snapshot_service,
)
from repro.service.service import run_until_quiescent
from repro.service.snapshot import SNAPSHOT_VERSION

# A module-level PET keeps hypothesis examples fast and avoids mixing
# function-scoped pytest fixtures into @given.
_PET = generate_pet_matrix(3, 2, seed=7, mean_range=(3.0, 8.0), samples_per_cell=200)

_PRUNING = {
    "none": lambda: None,
    "paper": PruningConfig.paper_default,
    "controller": lambda: PruningConfig.paper_default().with_(
        controller=ControllerConfig(
            kind="hysteresis", low=0.02, high=0.2, step=0.1, cooldown=4, window=4
        )
    ),
}


def _workload(num_tasks: int, wseed: int):
    spec = WorkloadSpec(num_tasks=num_tasks, time_span=40.0, num_task_types=3)
    return generate_workload(spec, _PET, np.random.default_rng(wseed))


def _build(heuristic: str, pruning_kind: str, seed: int):
    clock = VirtualClock()
    system = ServerlessSystem(
        _PET,
        heuristic,
        pruning=_PRUNING[pruning_kind](),
        seed=seed,
        sim=AsyncTimeline(clock),
    )
    return SchedulerService(system), clock


def _canon(snap: dict) -> str:
    return json.dumps(snap, sort_keys=True)


@settings(max_examples=12, deadline=None)
@given(
    heuristic=st.sampled_from(["MM", "MCT"]),
    pruning_kind=st.sampled_from(["none", "paper", "controller"]),
    seed=st.integers(min_value=0, max_value=2**16),
    wseed=st.integers(min_value=0, max_value=2**16),
    num_tasks=st.integers(min_value=15, max_value=45),
    k=st.integers(min_value=0, max_value=80),
)
def test_snapshot_restore_round_trip_at_any_capture_point(
    heuristic, pruning_kind, seed, wseed, num_tasks, k
):
    tasks = _workload(num_tasks, wseed)

    async def scenario():
        # Uninterrupted reference over the same config and workload.
        reference, _ = _build(heuristic, pruning_kind, seed)
        await reference.start()
        reference.replay(_workload(num_tasks, wseed))
        await run_until_quiescent(reference)
        await reference.stop()
        expected = reference.finalize().to_dict()

        # Interrupted run: k wakeups, snapshot, kill.
        victim, _ = _build(heuristic, pruning_kind, seed)
        await victim.start()
        victim.replay(tasks)
        await run_until_quiescent(victim, max_wakeups=k)
        snap = snapshot_service(victim)
        await victim.stop()

        # JSON round-trip: the snapshot is wire-safe by construction.
        snap = json.loads(json.dumps(snap))

        # Restore into a fresh service; its own snapshot must be
        # byte-identical to what it was loaded from.
        heir, _ = _build(heuristic, pruning_kind, seed)
        await heir.start()
        await heir.wait_idle()
        restore_service(heir, snap)
        assert _canon(snapshot_service(heir)) == _canon(snap)

        # Continue to completion: same outcomes as never having died.
        await run_until_quiescent(heir)
        await heir.stop()
        actual = heir.finalize().to_dict()
        actual.pop("estimator_stats")
        expected_sans_cache = dict(expected)
        expected_sans_cache.pop("estimator_stats")
        assert actual == expected_sans_cache

    asyncio.run(scenario())


def test_restore_conserves_every_outcome_exactly_once(run_async):
    """Kill-and-restore mid-run: every submitted task reaches exactly one
    terminal state — nothing duplicated, nothing lost."""
    tasks = _workload(30, 11)

    async def scenario():
        victim, _ = _build("MM", "paper", 5)
        await victim.start()
        victim.replay(tasks)
        await run_until_quiescent(victim, max_wakeups=25)
        snap = snapshot_service(victim)
        await victim.stop()

        heir, _ = _build("MM", "paper", 5)
        await heir.start()
        await heir.wait_idle()
        restore_service(heir, snap)
        await run_until_quiescent(heir)
        await heir.stop()
        result = heir.finalize()
        assert result.total == len(tasks)
        outcomes = (
            result.on_time
            + result.late
            + result.dropped_missed
            + result.dropped_proactive
            + result.unfinished
        )
        assert outcomes == len(tasks)
        assert all(t.is_terminal for t in heir.system.tasks)
        assert sorted(t.task_id for t in heir.system.tasks) == sorted(
            t.task_id for t in tasks
        )

    run_async(scenario())


def test_snapshot_with_retired_estimator_counters_restores(run_async):
    """Snapshots written while the estimator still kept its chance
    observation counters (``chance_obs_count``/``chance_obs_sum``)
    restore: the extra counters are ignored."""

    async def scenario():
        victim, _ = _build("MM", "controller", 5)
        await victim.start()
        victim.replay(_workload(20, 3))
        await run_until_quiescent(victim, max_wakeups=10)
        snap = json.loads(json.dumps(snapshot_service(victim)))
        await victim.stop()

        legacy = json.loads(json.dumps(snap))
        legacy["estimator"].update(chance_obs_count=7, chance_obs_sum=3.25)
        heir, _ = _build("MM", "controller", 5)
        await heir.start()
        await heir.wait_idle()
        restore_service(heir, legacy)
        assert _canon(snapshot_service(heir)) == _canon(snap)
        await heir.stop()

    run_async(scenario())


def test_restored_service_accepts_new_live_offers(run_async):
    """After a rolling restart the heir keeps serving: fresh offers get
    ids past everything the snapshot knew about."""
    tasks = _workload(12, 23)

    async def scenario():
        victim, _ = _build("MM", "paper", 5)
        await victim.start()
        victim.replay(tasks)
        await run_until_quiescent(victim, max_wakeups=10)
        snap = snapshot_service(victim)
        await victim.stop()

        heir, _ = _build("MM", "paper", 5)
        await heir.start()
        await heir.wait_idle()
        restore_service(heir, snap)
        decision = await heir.offer({"task_type": 1, "deadline_slack": 60.0})
        assert decision.status == "admitted"
        assert decision.task_id == max(t.task_id for t in tasks) + 1
        await run_until_quiescent(heir)
        await heir.stop()
        assert heir.finalize().total == len(tasks) + 1

    run_async(scenario())


# ----------------------------------------------------------------------
# Guard rails: what snapshots refuse, and what restores reject.
# ----------------------------------------------------------------------
def test_snapshot_refuses_dynamics_dag_and_stateful_heuristics(run_async):
    from repro.sim.dynamics import DynamicsSpec

    async def scenario():
        clock = VirtualClock()
        system = ServerlessSystem(
            _PET, "MM", seed=5, dynamics=DynamicsSpec(failures=1),
            sim=AsyncTimeline(clock),
        )
        service = SchedulerService(system)
        with pytest.raises(ValueError, match="dynamics"):
            snapshot_service(service)

        service, _ = _build("RR", "none", 5)
        with pytest.raises(ValueError, match="stateful heuristic"):
            snapshot_service(service)

    run_async(scenario())


def test_snapshot_requires_quiescent_ingress(run_async):
    async def scenario():
        service, _ = _build("MM", "none", 5)
        await service.start()
        service.offer({"task_type": 0, "deadline_slack": 30.0})  # not yet pumped
        with pytest.raises(ValueError, match="empty ingress"):
            snapshot_service(service)
        await run_until_quiescent(service)
        snapshot_service(service)  # quiescent now — fine
        await service.stop()

    run_async(scenario())


def test_restore_rejects_mismatched_targets(run_async):
    tasks = _workload(10, 3)

    async def scenario():
        service, _ = _build("MM", "paper", 5)
        await service.start()
        service.replay(tasks)
        await run_until_quiescent(service, max_wakeups=5)
        snap = snapshot_service(service)
        await service.stop()

        bad_version = dict(snap, version=SNAPSHOT_VERSION + 1)
        fresh, _ = _build("MM", "paper", 5)
        with pytest.raises(ValueError, match="version"):
            restore_service(fresh, bad_version)

        other_heuristic, _ = _build("MCT", "paper", 5)
        with pytest.raises(ValueError, match="snapshot is for MM"):
            restore_service(other_heuristic, snap)

        no_pruning, _ = _build("MM", "none", 5)
        with pytest.raises(ValueError, match="disagree on pruning"):
            restore_service(no_pruning, snap)

        with_controller, _ = _build("MM", "controller", 5)
        with pytest.raises(ValueError, match="controller"):
            restore_service(
                with_controller, json.loads(json.dumps(snap))
            )

        # A used service is not a restore target.
        used, _ = _build("MM", "paper", 5)
        await used.start()
        await used.offer({"task_type": 0, "deadline_slack": 30.0})
        await run_until_quiescent(used)
        with pytest.raises(ValueError, match="fresh"):
            restore_service(used, snap)
        await used.stop()

    run_async(scenario())


def test_controller_state_dict_round_trips():
    """The generic scalar state_dict/load_state pair on the controller
    base class: what it emits, a fresh twin absorbs exactly."""
    from repro.control.controllers import HysteresisController

    config = ControllerConfig(
        kind="hysteresis", low=0.02, high=0.2, step=0.1, cooldown=4, window=4
    )
    base = PruningConfig.paper_default()
    first = HysteresisController(config, base)
    first.beta = 0.7
    first._ewma = 0.13
    first._cooldown_left = 2
    first._last_misses = 9
    first._last_outcomes = 40

    twin = HysteresisController(config, base)
    twin.load_state(first.state_dict())
    assert twin.state_dict() == first.state_dict()

    with pytest.raises(ValueError, match="unknown controller state"):
        twin.load_state({"nonsense": 1})
