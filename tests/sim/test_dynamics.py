"""Cluster-dynamics tests: machine lifecycle, driver, determinism."""

from __future__ import annotations

import pytest

from repro.sim.cluster import Cluster
from repro.sim.dynamics import DynamicsSpec
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.task import Task, TaskStatus
from repro.system.serverless import ServerlessSystem
from tests.conftest import fresh_tasks


def _task(tid, arrival=0.0, deadline=100.0, ttype=0):
    return Task(task_id=tid, task_type=ttype, arrival=arrival, deadline=deadline)


def _sampler(value):
    return lambda task, machine: value


class TestMachineLifecycle:
    def test_fail_kills_running_and_evicts_queue(self):
        sim = Simulator()
        m = Machine(0, 0)
        done = []
        running = _task(1)
        queued = [_task(2), _task(3)]
        running.mark_mapped(0, 0.0)
        m.dispatch(running, sim, _sampler(10.0), lambda t, mm: done.append(t))
        for t in queued:
            t.mark_mapped(0, 0.0)
            m.dispatch(t, sim, _sampler(10.0), lambda t, mm: done.append(t))
        sim.run(until=4.0)
        interrupted, evicted = m.fail(sim)
        assert interrupted is running
        assert evicted == queued
        assert not m.online and m.running is None and m.queue == []
        # Partial progress counts as busy time; the completion never fires.
        assert m.busy_time == pytest.approx(4.0)
        sim.run()
        assert done == [] and m.completed_count == 0

    def test_fail_while_idle(self):
        sim = Simulator()
        m = Machine(0, 0)
        interrupted, evicted = m.fail(sim)
        assert interrupted is None and evicted == []
        with pytest.raises(RuntimeError, match="already offline"):
            m.fail(sim)

    def test_drain_lets_running_finish(self):
        sim = Simulator()
        m = Machine(0, 0)
        done = []
        running, queued = _task(1), _task(2)
        for t in (running, queued):
            t.mark_mapped(0, 0.0)
            m.dispatch(t, sim, _sampler(5.0), lambda t, mm: done.append(t))
        evicted = m.drain()
        assert evicted == [queued]
        assert m.running is running and not m.online
        sim.run()
        # The running task completed; the drained machine started nothing.
        assert done == [running]
        assert running.status is TaskStatus.COMPLETED_ON_TIME
        assert m.running is None and m.completed_count == 1

    def test_offline_machine_reports_no_capacity_and_rejects_dispatch(self):
        sim = Simulator()
        m = Machine(0, 0, queue_limit=4)
        m.fail(sim)
        assert not m.has_free_slot
        assert m.free_slots() == 0
        t = _task(9)
        t.mark_mapped(0, 0.0)
        with pytest.raises(RuntimeError, match="offline"):
            m.dispatch(t, sim, _sampler(1.0), lambda *_: None)

    def test_recover_restores_capacity(self):
        sim = Simulator()
        m = Machine(0, 0, queue_limit=2)
        m.fail(sim)
        m.recover()
        assert m.online and m.has_free_slot and m.free_slots() == 2
        with pytest.raises(RuntimeError, match="already online"):
            m.recover()

    def test_fail_and_recover_bump_version_and_notify(self):
        """Failure and recovery each step the version: it is the change
        signal the completion estimator reconciles against."""
        sim = Simulator()
        m = Machine(0, 0)
        v0 = m.version
        m.fail(sim)
        assert m.version == v0 + 1
        m.recover()
        assert m.version == v0 + 2


class TestClusterElasticity:
    def test_add_machine_rejects_duplicate_id(self):
        cluster = Cluster.homogeneous(2)
        with pytest.raises(ValueError, match="duplicate"):
            cluster.add_machine(Machine(1, 0))

    def test_online_machines_filters(self):
        cluster = Cluster.homogeneous(3)
        sim = Simulator()
        cluster[1].fail(sim)
        assert [m.machine_id for m in cluster.online_machines()] == [0, 2]


class TestDynamicsSpecValidation:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            DynamicsSpec(window=(0.9, 0.1))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            DynamicsSpec(failures=-1)

    def test_rejects_zero_min_online(self):
        with pytest.raises(ValueError):
            DynamicsSpec(min_online=0)

    def test_is_static(self):
        assert DynamicsSpec().is_static
        assert not DynamicsSpec(failures=1).is_static


class TestDynamicsDriver:
    def _run(self, pet, tasks, dyn, seed=5, heuristic="MM"):
        system = ServerlessSystem(
            pet, heuristic, seed=seed, dynamics=dyn
        )
        result = system.run(fresh_tasks(tasks))
        return system, result

    def test_schedule_is_deterministic_per_seed(self, pet_small, oversub_workload):
        dyn = DynamicsSpec(failures=2, mean_downtime=10.0, scale_up=1, scale_down=1)
        _, a = self._run(pet_small, oversub_workload, dyn)
        _, b = self._run(pet_small, oversub_workload, dyn)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_different_churn_times(self, pet_small, oversub_workload):
        dyn = DynamicsSpec(failures=3, mean_downtime=10.0)
        _, a = self._run(pet_small, oversub_workload, dyn, seed=5)
        _, b = self._run(pet_small, oversub_workload, dyn, seed=6)
        # Same spec, different seed: churn counters may coincide but the
        # full outcome should not (schedules differ).
        assert a.to_dict() != b.to_dict()

    def test_failures_and_recoveries_counted(self, pet_small, oversub_workload):
        dyn = DynamicsSpec(failures=2, mean_downtime=5.0)
        system, result = self._run(pet_small, oversub_workload, dyn)
        stats = result.dynamics_stats
        assert stats["failures"] + stats["skipped"] == 2
        assert stats["recoveries"] <= stats["failures"]
        assert result.requeues == stats["requeued"]

    def test_min_online_floor_is_respected(self, pet_small, oversub_workload):
        # 2 machines, permanent failures: at most one can ever die.
        dyn = DynamicsSpec(failures=5, mean_downtime=0.0)
        system, result = self._run(pet_small, oversub_workload, dyn)
        assert len(system.cluster.online_machines()) >= 1
        assert result.dynamics_stats["failures"] <= 1
        assert result.dynamics_stats["skipped"] >= 4

    def test_scale_up_grows_cluster_and_metrics(self, pet_small, oversub_workload):
        dyn = DynamicsSpec(scale_up=2)
        system, result = self._run(pet_small, oversub_workload, dyn)
        assert len(system.cluster) == 4
        assert len(result.machine_busy_time) == 4
        assert result.dynamics_stats["scale_ups"] == 2
        # Added machines actually ran work.
        assert sum(result.machine_busy_time[2:]) > 0

    def test_static_spec_schedules_nothing(self, pet_small, small_workload):
        dyn = DynamicsSpec()
        system, result = self._run(pet_small, small_workload, dyn)
        assert result.dynamics_stats == {
            "failures": 0,
            "recoveries": 0,
            "scale_ups": 0,
            "scale_downs": 0,
            "skipped": 0,
            "evicted": 0,
            "requeued": 0,
            "interrupted": 0,
        }
        # Bit-identical to a system with no dynamics at all.
        baseline = ServerlessSystem(pet_small, "MM", seed=5).run(
            fresh_tasks(small_workload)
        )
        assert baseline.to_dict() == {**result.to_dict(), "dynamics_stats": {}}

    def test_requeued_victims_are_accounted(self, pet_small, oversub_workload):
        dyn = DynamicsSpec(failures=1, mean_downtime=5.0)
        system, result = self._run(pet_small, oversub_workload, dyn)
        stats = result.dynamics_stats
        # "requeued" counts readmissions exactly (= the accounting's
        # view); evictions that dropped on a passed deadline are the
        # difference to "evicted".
        assert system.accounting.total_requeues == stats["requeued"]
        assert stats["requeued"] <= stats["evicted"]
        # Every submitted task still reached a terminal state.
        assert all(t.is_terminal for t in system.tasks)

    def test_long_downtime_does_not_inflate_makespan(self, pet_small, oversub_workload):
        """A recovery scheduled far beyond the workload is a no-op; the
        reported makespan must be when the work ended, not when the
        trailing event fired."""
        static = ServerlessSystem(pet_small, "MM", seed=5).run(
            fresh_tasks(oversub_workload)
        )
        dyn = DynamicsSpec(failures=1, mean_downtime=50_000.0)
        system, result = self._run(pet_small, oversub_workload, dyn)
        assert result.dynamics_stats["failures"] == 1
        # Capacity loss may stretch the run somewhat, but not by the
        # ~exp(50k) downtime the no-op recovery event sits at.
        assert result.makespan < 4 * static.makespan
        assert result.makespan <= system.sim.now
        assert any(u > 0.3 for u in result.utilization())

    def test_all_tasks_dropped_trial_reports_zero_makespan(self, pet_small):
        """ISSUE 4 audit: a dynamics trial in which *no task ever reaches
        an outcome* (everything is finalized as a drop after the event
        queue drains) must report makespan 0.0 — not the drained clock,
        which only reflects arrival/churn bookkeeping, not work."""
        # queue_limit=0 means no machine ever has a free slot: arrivals
        # pool in the batch queue forever, no mapping event ever fires,
        # and a permanent failure (mean_downtime=0) never kicks one.
        dyn = DynamicsSpec(failures=1, mean_downtime=0.0)
        system = ServerlessSystem(
            pet_small, "MM", seed=5, dynamics=dyn, queue_limit=0
        )
        tasks = [_task(i, arrival=float(i), deadline=float(i) + 1.0) for i in range(4)]
        result = system.run(tasks)
        assert result.total == 4
        assert result.dropped_missed == 4  # every task dropped, none ran
        assert system.sim.now > 0.0
        assert result.makespan == 0.0

    def test_outcome_at_time_zero_is_a_real_makespan(self, pet_small):
        """An outcome at exactly t=0.0 is a real last-work timestamp; the
        pre-fix 0.0 sentinel conflated it with "no outcome yet" and fell
        back to the dynamics-inflated drained clock."""
        dyn = DynamicsSpec(failures=1, mean_downtime=0.0)
        system = ServerlessSystem(
            pet_small, "MM", seed=5, dynamics=dyn, queue_limit=0
        )
        probe = _task(0, arrival=0.0, deadline=0.0)
        system.allocator.observer("dropped_missed", probe, 0.0)
        system.run([_task(1, arrival=3.0, deadline=4.0)])
        assert system.sim.now >= 3.0
        assert system.result().makespan == 0.0

    def test_admission_controller_gates_requeued_victims(self, pet_small, oversub_workload):
        from repro.analysis.timeline import TimelineRecorder
        from repro.system.admission import AdmissionController

        recorder = TimelineRecorder()
        dyn = DynamicsSpec(failures=2, mean_downtime=8.0)
        system = ServerlessSystem(
            pet_small, "MM", seed=5, dynamics=dyn, observer=recorder
        )
        gate = AdmissionController(system, threshold=0.5)
        result = gate.run(fresh_tasks(oversub_workload))
        assert all(t.is_terminal for t in system.tasks)
        evicted = result.dynamics_stats["evicted"]
        if evicted:
            # Victims re-faced the gate.  Without a pruner, a proactive
            # drop of a task the allocator had already admitted is the
            # gate rejecting it at readmission.
            arrived = {e.task_id for e in recorder.events if e.kind == "arrived"}
            assert any(
                e.kind == "dropped_proactive" and e.task_id in arrived
                for e in recorder.events
            )
            assert result.dynamics_stats["requeued"] <= evicted
        # Deadline-expired victims must stay *reactive* drops (the gate
        # only files live rejections under proactive): every proactive
        # drop, all of them the gate's here, was alive when judged.
        for task in system.tasks:
            if task.status is TaskStatus.DROPPED_PROACTIVE:
                assert task.dropped_at <= task.deadline

    def test_timeline_recorder_accepts_requeued_events(self, pet_small, oversub_workload):
        from repro.analysis.timeline import TimelineRecorder

        recorder = TimelineRecorder()
        dyn = DynamicsSpec(failures=2, mean_downtime=8.0)
        system = ServerlessSystem(
            pet_small, "MM", seed=5, dynamics=dyn, observer=recorder
        )
        result = system.run(fresh_tasks(oversub_workload))
        assert recorder.counts()["requeued"] == result.dynamics_stats["requeued"]

    def test_immediate_mode_survives_churn(self, pet_small, oversub_workload):
        dyn = DynamicsSpec(failures=2, mean_downtime=8.0)
        system, result = self._run(
            pet_small, oversub_workload, dyn, heuristic="MCT"
        )
        assert all(t.is_terminal for t in system.tasks)
        assert result.total == len(oversub_workload)
