"""Tests for the admission-control baseline."""

import dataclasses

import numpy as np
import pytest

from repro import generate_workload
from repro.core.config import PruningConfig
from repro.experiments.campaign import level_spec
from repro.experiments.runner import pet_matrix
from repro.metrics import compare_paired
from repro.sim.task import Task, TaskStatus
from repro.workload import WorkloadSpec
from repro.workload.generator import trimmed_slice
from repro.workload.spec import ArrivalPattern
from repro.system.admission import AdmissionController
from repro.system.serverless import ServerlessSystem

from tests.conftest import fresh_tasks, make_deterministic_pet


def build(threshold=0.5, exec_time=10.0, pruning=None):
    pet = make_deterministic_pet(np.array([[exec_time]]))
    sys = ServerlessSystem(pet, "MM", pruning=pruning, queue_limit=2, seed=0)
    return AdmissionController(sys, threshold=threshold), sys


class TestNearTies:
    def test_an_admission_tie_is_decided_on_the_chain(self, monkeypatch):
        """The gate rejects below θ: a factored best chance one ulp under
        θ must not reject a task whose chain chance is exactly θ, and the
        chance the gate reports is the one it decided on."""
        ac, sys = build(threshold=0.5)
        asked = []

        def factored(tasks, machines, now):
            return np.full((len(tasks), len(machines)), np.nextafter(0.5, 0.0))

        def chain(task, machine, now, index=None):
            asked.append(task.task_id)
            return 0.5

        monkeypatch.setattr(sys.estimator, "chances_for", factored)
        monkeypatch.setattr(sys.estimator, "chain_chance", chain)
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=50.0)
        assert ac.offer(t) == 0.5
        assert ac.stats.admitted == 1 and ac.stats.rejected == 0
        assert asked == [0]


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

    def test_pruning_beats_admission_over_paired_trials(self):
        """§IV-B's argument for deferment on the paper's PET: over four
        paired 450-task trials at the same 50 % threshold, prune-at-mapping
        keeps at least as many tasks on time as prune-at-arrival."""
        spec = WorkloadSpec(num_tasks=450, time_span=250.0)

        def tasks(trial):
            return generate_workload(spec, pet_matrix(), np.random.default_rng(300 + trial))

        gated, pruned = [], []
        for trial in range(4):
            sys_a = ServerlessSystem(pet_matrix(), "MM", seed=trial)
            AdmissionController(sys_a, threshold=0.5).run(tasks(trial))
            gated.append(sys_a.result(trimmed_slice(sys_a.tasks, spec.trim_count)))

            sys_b = ServerlessSystem(
                pet_matrix(), "MM", pruning=PruningConfig.paper_default(), seed=trial
            )
            sys_b.run(tasks(trial))
            pruned.append(sys_b.result(trimmed_slice(sys_b.tasks, spec.trim_count)))
        assert compare_paired(gated, pruned).mean_delta_pp >= 0
