"""Tests for cluster construction and queries."""

import pytest

from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.task import Task


class TestConstructors:
    def test_heterogeneous_one_per_type(self):
        c = Cluster.heterogeneous(4)
        assert len(c) == 4
        assert c.machine_types == (0, 1, 2, 3)

    def test_heterogeneous_multiple_per_type(self):
        c = Cluster.heterogeneous(3, machines_per_type=2)
        assert len(c) == 6
        assert c.machine_types == (0, 0, 1, 1, 2, 2)

    def test_homogeneous(self):
        c = Cluster.homogeneous(5, machine_type=2)
        assert len(c) == 5
        assert c.machine_types == (2,) * 5

    def test_queue_limit_propagates(self):
        c = Cluster.heterogeneous(2, queue_limit=3)
        assert all(m.queue_limit == 3 for m in c)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Cluster([Machine(0, 0), Machine(0, 1)])


class TestQueries:
    def test_getitem_by_id(self):
        c = Cluster.heterogeneous(3)
        assert c[1].machine_id == 1

    def test_iteration_order(self):
        c = Cluster.heterogeneous(3)
        assert [m.machine_id for m in c] == [0, 1, 2]

    def test_free_slots_tracking(self):
        c = Cluster.heterogeneous(2, queue_limit=1)
        sim = Simulator()
        assert c.any_free_slot()
        # Fill machine 0: one running + one queued.
        for i in range(2):
            t = Task(task_id=i, task_type=0, arrival=0.0, deadline=50.0)
            t.mark_mapped(0, 0.0)
            c[0].dispatch(t, sim, lambda *a: 5.0, lambda *a: None)
        assert c.any_free_slot()

    def test_set_queue_limit(self):
        c = Cluster.heterogeneous(2)
        c.set_queue_limit(7)
        assert all(m.queue_limit == 7 for m in c)
