"""Shared fixtures: small deterministic PET matrices, workloads, systems,
and the virtual-clock service harness (no test ever sleeps on the wall
clock — live-service scenarios run under a :class:`VirtualClock` advanced
explicitly by :func:`run_until_quiescent` or the test itself)."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import (
    PETMatrix,
    PMF,
    ServerlessSystem,
    Task,
    WorkloadSpec,
    generate_pet_matrix,
    generate_workload,
)
from repro.service import AsyncTimeline, SchedulerService, VirtualClock


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def pet_small() -> PETMatrix:
    """3 task types × 2 machine types; small supports, fast convolutions."""
    return generate_pet_matrix(
        3, 2, seed=7, mean_range=(3.0, 8.0), samples_per_cell=200
    )


@pytest.fixture(scope="session")
def pet_paper() -> PETMatrix:
    """The paper's 12×8 inconsistent matrix."""
    return generate_pet_matrix(seed=2019)


@pytest.fixture(scope="session")
def pet_homog() -> PETMatrix:
    return generate_pet_matrix(seed=2019, heterogeneity="homogeneous")


def make_deterministic_pet(means: np.ndarray) -> PETMatrix:
    """PET whose cells are point masses at the given means — execution
    times become deterministic, which makes schedules hand-checkable."""
    means = np.asarray(means, dtype=np.float64)
    rows = [
        [PMF.delta(float(means[t, m])) for m in range(means.shape[1])]
        for t in range(means.shape[0])
    ]
    return PETMatrix(rows, means)


@pytest.fixture
def det_pet() -> PETMatrix:
    """2 task types × 2 machines, deterministic:
    type 0 runs in 4 on machine 0 / 10 on machine 1;
    type 1 runs in 10 on machine 0 / 4 on machine 1 (strong affinity)."""
    return make_deterministic_pet(np.array([[4.0, 10.0], [10.0, 4.0]]))


@pytest.fixture
def small_workload(pet_small) -> list[Task]:
    spec = WorkloadSpec(num_tasks=120, time_span=80.0, num_task_types=3)
    return generate_workload(spec, pet_small, np.random.default_rng(99))


@pytest.fixture
def oversub_workload(pet_small) -> list[Task]:
    """Heavily oversubscribed: ~3× the 2-machine cluster's capacity."""
    spec = WorkloadSpec(num_tasks=200, time_span=60.0, num_task_types=3)
    return generate_workload(spec, pet_small, np.random.default_rng(17))


def fresh_tasks(tasks: list[Task]) -> list[Task]:
    """Deep-copy task identities so each system run starts PENDING."""
    return [
        Task(task_id=t.task_id, task_type=t.task_type, arrival=t.arrival, deadline=t.deadline)
        for t in tasks
    ]


def rejected_at_arrival(recorder) -> set[int]:
    """Ids of the arrivals an admission gate rejected, read from a
    :class:`~repro.analysis.timeline.TimelineRecorder`: proactive drops
    of tasks that never reached the allocator (no ``arrived`` event)."""
    arrived = {e.task_id for e in recorder.events if e.kind == "arrived"}
    return {
        e.task_id
        for e in recorder.events
        if e.kind == "dropped_proactive" and e.task_id not in arrived
    }


@pytest.fixture
def make_system(pet_small):
    """Factory for small serverless systems over the session PET."""

    def _make(heuristic="MM", pruning=None, **kwargs) -> ServerlessSystem:
        kwargs.setdefault("seed", 5)
        return ServerlessSystem(pet_small, heuristic, pruning=pruning, **kwargs)

    return _make


# ----------------------------------------------------------------------
# Live-service harness: virtual clock + deterministic asyncio runner.
# ----------------------------------------------------------------------
@pytest.fixture
def run_async():
    """Deterministic asyncio runner: one fresh event loop per scenario.

    Combined with :class:`VirtualClock` services this is the whole
    determinism story — nothing in a scenario can block on real time,
    so ``asyncio.run`` drives it to completion without a single
    wall-clock sleep.
    """

    def _run(coro):
        return asyncio.run(coro)

    return _run


@pytest.fixture
def make_service(pet_small):
    """Factory for virtual-clock scheduler services over the session PET.

    Returns ``(service, clock)`` so tests can advance time explicitly;
    system construction mirrors :fixture:`make_system` (seed 5 default).
    """

    def _make(
        heuristic="MM",
        pruning=None,
        *,
        start_time: float = 0.0,
        system_kwargs: dict | None = None,
        **service_kwargs,
    ) -> tuple[SchedulerService, VirtualClock]:
        clock = VirtualClock(start_time)
        kwargs = {"seed": 5, **(system_kwargs or {})}
        system = ServerlessSystem(
            pet_small, heuristic, pruning=pruning, sim=AsyncTimeline(clock), **kwargs
        )
        return SchedulerService(system, **service_kwargs), clock

    return _make
