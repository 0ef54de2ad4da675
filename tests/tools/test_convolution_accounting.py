"""The estimator's ``convolutions`` counter counts ``PMF.convolve_truncated``.

perfbench attributes the PMF layer by wrapping
``PMF.convolve_truncated`` (``pmf.convolve_calls``), and its gates read
the estimator's own ``convolutions`` counter.  The two measure the same
work only while every convolution the estimator counts goes through
that method, and every call it makes is counted.  These tests pin the
parity on three small runs: a gated service pass (``chances_for`` from
the admission gate) and a paper-default trial (``chances_for_pairs``
from the defer check), neither of which takes the from-scratch chain,
and a paper-default trial under a short horizon, where the chain
(``_build_chain``) answers the entries the horizon truncates and its
steps count like every other convolution.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import PruningConfig, ServerlessSystem, WorkloadSpec, generate_workload
from repro.analysis.timeline import TimelineRecorder
from repro.experiments.runner import pet_matrix
from repro.service import AsyncTimeline, SchedulerService, VirtualClock
from repro.service.service import run_until_quiescent
from repro.stochastic.pmf import PMF
from repro.system.completion import CompletionEstimator
from tests.conftest import rejected_at_arrival


@pytest.fixture
def counted(monkeypatch):
    """Counts of ``PMF.convolve_truncated`` calls and chain builds."""
    counts = {"convolve_truncated": 0, "chain": 0}
    convolve_truncated = PMF.convolve_truncated
    build_chain = CompletionEstimator._build_chain

    def count_convolve(self, other, **kwargs):
        counts["convolve_truncated"] += 1
        return convolve_truncated(self, other, **kwargs)

    def count_chain(self, machine, now):
        counts["chain"] += 1
        return build_chain(self, machine, now)

    monkeypatch.setattr(PMF, "convolve_truncated", count_convolve)
    monkeypatch.setattr(CompletionEstimator, "_build_chain", count_chain)
    return counts


def test_gated_service_pass(counted):
    pet = pet_matrix()
    spec = WorkloadSpec(num_tasks=300, time_span=120.0, pattern="bursty")
    tasks = generate_workload(spec, pet, np.random.default_rng(11))

    recorder = TimelineRecorder()

    async def scenario():
        system = ServerlessSystem(
            pet, "MM", pruning=PruningConfig.drop_only(), seed=1,
            sim=AsyncTimeline(VirtualClock()), observer=recorder,
        )
        service = SchedulerService(system, admission_threshold=0.3)
        await service.start()
        service.replay(tasks)
        await run_until_quiescent(service)
        await service.stop()
        return service

    service = asyncio.run(scenario())
    # The gate admitted some arrivals and rejected others.
    assert rejected_at_arrival(recorder)
    assert any(e.kind == "arrived" for e in recorder.events)
    assert counted["chain"] == 0
    assert service.system.estimator.convolutions == counted["convolve_truncated"] > 0


def test_paper_default_defer_trial(counted):
    pet = pet_matrix()
    spec = WorkloadSpec(num_tasks=450, time_span=250.0)
    tasks = generate_workload(spec, pet, np.random.default_rng(500))
    system = ServerlessSystem(pet, "MM", pruning=PruningConfig.paper_default(), seed=1)
    result = system.run(tasks)
    assert result.defer_decisions > 0
    assert counted["chain"] == 0
    assert system.estimator.convolutions == counted["convolve_truncated"] > 0


def test_chain_fallback_trial(counted):
    pet = pet_matrix()
    spec = WorkloadSpec(num_tasks=200, time_span=100.0)
    tasks = generate_workload(spec, pet, np.random.default_rng(500))
    system = ServerlessSystem(
        pet, "MM", pruning=PruningConfig.paper_default(), seed=1, horizon=60.0
    )
    system.run(tasks)
    assert counted["chain"] > 0
    assert system.estimator.convolutions == counted["convolve_truncated"] > 0
