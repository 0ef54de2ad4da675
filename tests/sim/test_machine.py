"""Tests for machines and FCFS queue execution."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.task import Task, TaskStatus


def make_task(i=0, ttype=0, arrival=0.0, deadline=100.0):
    return Task(task_id=i, task_type=ttype, arrival=arrival, deadline=deadline)


def fixed_sampler(duration):
    return lambda task, machine: duration


def dispatch(machine, task, sim, duration=5.0, completions=None, sampler=None):
    task.mark_mapped(machine.machine_id, sim.now)
    machine.dispatch(
        task,
        sim,
        sampler or fixed_sampler(duration),
        (lambda t, m: completions.append((sim.now, t))) if completions is not None else (lambda t, m: None),
    )


class TestDispatch:
    def test_idle_machine_starts_immediately(self):
        sim, m = Simulator(), Machine(0, 0)
        t = make_task()
        dispatch(m, t, sim)
        assert m.running is t
        assert t.status is TaskStatus.RUNNING
        assert m.queue == []

    def test_busy_machine_queues(self):
        sim, m = Simulator(), Machine(0, 0)
        t1, t2 = make_task(1), make_task(2)
        dispatch(m, t1, sim)
        dispatch(m, t2, sim)
        assert m.running is t1
        assert m.queue == [t2]
        assert t2.status is TaskStatus.MAPPED

    def test_fcfs_completion_order(self):
        sim, m = Simulator(), Machine(0, 0)
        done = []
        tasks = [make_task(i) for i in range(4)]
        for t in tasks:
            dispatch(m, t, sim, duration=2.0, completions=done)
        sim.run()
        assert [t.task_id for _, t in done] == [0, 1, 2, 3]
        assert [when for when, _ in done] == [2.0, 4.0, 6.0, 8.0]

    def test_completion_times_and_status(self):
        sim, m = Simulator(), Machine(0, 0)
        t = make_task(deadline=4.0)
        dispatch(m, t, sim, duration=5.0)
        sim.run()
        assert t.status is TaskStatus.COMPLETED_LATE
        assert t.finished_at == 5.0

    def test_dispatch_wrong_machine_rejected(self):
        sim, m = Simulator(), Machine(0, 0)
        t = make_task()
        t.mark_mapped(99, 0.0)
        with pytest.raises(RuntimeError, match="dispatched"):
            m.dispatch(t, sim, fixed_sampler(1.0), lambda *a: None)

    def test_dispatch_unmapped_rejected(self):
        sim, m = Simulator(), Machine(0, 0)
        with pytest.raises(RuntimeError):
            m.dispatch(make_task(), sim, fixed_sampler(1.0), lambda *a: None)

    def test_nonpositive_exec_time_rejected(self):
        sim, m = Simulator(), Machine(0, 0)
        t = make_task()
        t.mark_mapped(0, 0.0)
        with pytest.raises(ValueError, match="non-positive"):
            m.dispatch(t, sim, fixed_sampler(0.0), lambda *a: None)


class TestQueueLimit:
    def test_free_slots(self):
        m = Machine(0, 0, queue_limit=2)
        assert m.free_slots() == 2
        assert m.has_free_slot

    def test_unbounded(self):
        m = Machine(0, 0)
        assert m.free_slots() is None
        assert m.has_free_slot

    def test_full_queue_rejects(self):
        sim, m = Simulator(), Machine(0, 0, queue_limit=1)
        dispatch(m, make_task(0), sim)  # running, not queued
        dispatch(m, make_task(1), sim)  # fills the single slot
        t3 = make_task(2)
        t3.mark_mapped(0, 0.0)
        with pytest.raises(RuntimeError, match="full"):
            m.dispatch(t3, sim, fixed_sampler(1.0), lambda *a: None)

    def test_running_task_does_not_occupy_slot(self):
        sim, m = Simulator(), Machine(0, 0, queue_limit=1)
        dispatch(m, make_task(0), sim)
        assert m.free_slots() == 1

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            Machine(0, 0, queue_limit=-1)


class TestRemove:
    def test_remove_queued(self):
        sim, m = Simulator(), Machine(0, 0)
        t1, t2 = make_task(1), make_task(2)
        dispatch(m, t1, sim)
        dispatch(m, t2, sim)
        assert m.remove(t2) is True
        assert m.queue == []

    def test_remove_running_is_noop(self):
        sim, m = Simulator(), Machine(0, 0)
        t = make_task()
        dispatch(m, t, sim)
        assert m.remove(t) is False
        assert m.running is t

    def test_remove_absent_returns_false(self):
        m = Machine(0, 0)
        assert m.remove(make_task()) is False

    def test_remove_many(self):
        sim, m = Simulator(), Machine(0, 0)
        tasks = [make_task(i) for i in range(5)]
        for t in tasks:
            dispatch(m, t, sim)
        removed = m.remove_many(tasks[2:4])
        assert removed == 2
        assert [t.task_id for t in m.queue] == [1, 4]

    def test_remove_many_from_a_generator_drops_only_the_removed_hooks(self):
        sim, m = Simulator(), Machine(0, 0)
        tasks = [make_task(i) for i in range(5)]
        for t in tasks:
            dispatch(m, t, sim)
        assert m.remove_many(t for t in tasks[2:4]) == 2
        assert [t.task_id for t in m.queue] == [1, 4]
        # Running task 0 and queued 1 and 4 keep their dispatch hooks.
        assert sorted(m._task_hooks) == [0, 1, 4]

    def test_removed_task_never_runs(self):
        sim, m = Simulator(), Machine(0, 0)
        done = []
        t1, t2, t3 = make_task(1), make_task(2), make_task(3)
        for t in (t1, t2, t3):
            dispatch(m, t, sim, duration=2.0, completions=done)
        m.remove(t2)
        sim.run()
        assert [t.task_id for _, t in done] == [1, 3]
        assert t2.status is TaskStatus.MAPPED  # untouched by the machine


class TestVersionAndStats:
    def test_version_bumps_on_changes(self):
        sim, m = Simulator(), Machine(0, 0)
        v0 = m.version
        t1, t2 = make_task(1), make_task(2)
        dispatch(m, t1, sim)
        assert m.version > v0
        v1 = m.version
        dispatch(m, t2, sim)
        assert m.version > v1
        v2 = m.version
        m.remove(t2)
        assert m.version > v2

    def test_version_bumps_on_completion(self):
        sim, m = Simulator(), Machine(0, 0)
        dispatch(m, make_task(), sim, duration=3.0)
        v = m.version
        sim.run()
        assert m.version > v

    def test_busy_time_accumulates(self):
        sim, m = Simulator(), Machine(0, 0)
        for i in range(3):
            dispatch(m, make_task(i), sim, duration=4.0)
        sim.run()
        assert m.busy_time == pytest.approx(12.0)
        assert m.completed_count == 3

    def test_utilization(self):
        sim, m = Simulator(), Machine(0, 0)
        dispatch(m, make_task(), sim, duration=5.0)
        sim.run()
        assert m.utilization(10.0) == pytest.approx(0.5)
        assert m.utilization(0.0) == 0.0


class TestCompletionCallback:
    def test_callback_sees_machine_already_started_next(self):
        """The machine starts its next task before notifying, so the
        mapping event triggered by a completion sees a busy machine."""
        sim, m = Simulator(), Machine(0, 0)
        observed = []

        def on_complete(task, machine):
            observed.append(machine.running.task_id if machine.running else None)

        t1, t2 = make_task(1), make_task(2)
        for t in (t1, t2):
            t.mark_mapped(0, 0.0)
            m.dispatch(t, sim, fixed_sampler(2.0), on_complete)
        sim.run()
        assert observed == [2, None]
