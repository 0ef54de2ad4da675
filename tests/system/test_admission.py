"""Tests for the admission-control baseline."""

import dataclasses

import numpy as np
import pytest

from repro import generate_workload
from repro.core.config import PruningConfig
from repro.experiments.campaign import level_spec
from repro.sim.task import Task, TaskStatus
from repro.workload.spec import ArrivalPattern
from repro.system.admission import AdmissionController
from repro.system.serverless import ServerlessSystem

from tests.conftest import fresh_tasks, make_deterministic_pet


def build(threshold=0.5, exec_time=10.0, pruning=None):
    pet = make_deterministic_pet(np.array([[exec_time]]))
    sys = ServerlessSystem(pet, "MM", pruning=pruning, queue_limit=2, seed=0)
    return AdmissionController(sys, threshold=threshold), sys


class TestDecisions:
    def test_hopeless_task_rejected_at_arrival(self):
        ac, sys = build()
        tasks = [
            Task(task_id=0, task_type=0, arrival=0.0, deadline=200.0),
            Task(task_id=1, task_type=0, arrival=0.1, deadline=12.0),  # needs 20
        ]
        ac.run(tasks)
        assert tasks[1].status is TaskStatus.DROPPED_PROACTIVE
        assert ac.stats.rejected == 1
        assert ac.stats.admitted == 1
        assert ac.rejected_tasks == [tasks[1]]

    def test_viable_task_admitted(self):
        ac, sys = build()
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=50.0)
        ac.run([t])
        assert t.status is TaskStatus.COMPLETED_ON_TIME
        assert ac.stats.rejection_rate == 0.0

    def test_threshold_zero_admits_all(self):
        ac, _ = build(threshold=0.0)
        tasks = [
            Task(task_id=0, task_type=0, arrival=0.0, deadline=200.0),
            Task(task_id=1, task_type=0, arrival=0.1, deadline=1.0),
        ]
        ac.run(tasks)
        assert ac.stats.rejected == 0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            build(threshold=1.5)

    def test_best_chance_uses_best_machine(self):
        """A task hopeless on one machine but fine on another is admitted."""
        pet = make_deterministic_pet(np.array([[100.0, 5.0]]))
        sys = ServerlessSystem(pet, "MM", seed=0)
        ac = AdmissionController(sys)
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=10.0)
        assert ac.best_chance(t) == pytest.approx(1.0)

    def test_offer_returns_chance_and_gates(self):
        ac, sys = build()
        hopeless = Task(task_id=0, task_type=0, arrival=0.0, deadline=5.0)
        viable = Task(task_id=1, task_type=0, arrival=0.0, deadline=50.0)
        assert ac.offer(hopeless) == pytest.approx(0.0)
        assert hopeless.status is TaskStatus.DROPPED_PROACTIVE
        assert ac.offer(viable) == pytest.approx(1.0)
        assert viable.status is not TaskStatus.DROPPED_PROACTIVE
        assert (ac.stats.admitted, ac.stats.rejected) == (1, 1)
        assert sys.accounting.total_arrived == 2


class TestDagCascade:
    def test_gate_rejection_dooms_dependents(self, pet_paper):
        """A rejected parent can never complete, so its dependents must be
        doomed at once (proactive drops), not held until their deadline
        and counted as reactive misses."""
        spec = dataclasses.replace(
            level_spec("15k", ArrivalPattern.SPIKY, 0.2), dag_layers=3
        )
        tasks = generate_workload(spec, pet_paper, np.random.default_rng(0))
        sys = ServerlessSystem(pet_paper, "MM", pruning=PruningConfig.paper_default(), seed=5)
        ac = AdmissionController(sys, threshold=0.5)
        ac.run(tasks)
        rejected = {t.task_id for t in ac.rejected_tasks}
        dependents = [t for t in tasks if rejected.intersection(t.deps)]
        assert dependents
        assert all(t.status is TaskStatus.DROPPED_PROACTIVE for t in dependents)


class TestVersusDeferring:
    def test_deferring_saves_tasks_admission_rejects(self, pet_small, oversub_workload):
        """The design point: rejection is irrevocable, deferment is not —
        so at equal thresholds the pruning mechanism completes at least as
        many tasks as admission control."""
        pruned = ServerlessSystem(
            pet_small, "MM", pruning=PruningConfig.paper_default(), seed=1
        )
        r_prune = pruned.run(fresh_tasks(oversub_workload))

        gated = ServerlessSystem(pet_small, "MM", seed=1)
        ac = AdmissionController(gated, threshold=0.5)
        r_admit = ac.run(fresh_tasks(oversub_workload))

        assert r_prune.on_time >= r_admit.on_time

    def test_accounting_still_consistent(self, pet_small, oversub_workload):
        gated = ServerlessSystem(pet_small, "MM", seed=1)
        ac = AdmissionController(gated, threshold=0.5)
        res = ac.run(fresh_tasks(oversub_workload))
        assert res.total == len(oversub_workload)
        assert gated.accounting.total_arrived == len(oversub_workload)
        assert res.dropped_proactive >= ac.stats.rejected
