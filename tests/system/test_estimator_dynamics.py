"""Estimator-cache invalidation under cluster dynamics.

A machine dying (or draining/recovering) mid-queue wipes its whole PCT
chain; the incremental estimator must answer every subsequent query
exactly like a from-scratch reference — stale prefix state leaking
through a failure would poison every chance-of-success the pruner sees.
"""

import numpy as np
import pytest

from repro.sim.cluster import Cluster
from repro.sim.dynamics import DynamicsSpec
from repro.sim.engine import Simulator
from repro.sim.task import Task
from repro.stochastic.pet import generate_pet_matrix
from repro.system.completion import CompletionEstimator
from repro.system.serverless import ServerlessSystem
from repro.workload import WorkloadSpec, generate_workload
from tests.conftest import fresh_tasks


def put(cluster, sim, machine_id, i, ttype=0, duration=10.0, deadline=1000.0):
    t = Task(task_id=i, task_type=ttype, arrival=0.0, deadline=deadline)
    t.mark_mapped(machine_id, sim.now)
    cluster[machine_id].dispatch(t, sim, lambda *a: duration, lambda *a: None)
    return t


@pytest.fixture
def pet():
    return generate_pet_matrix(2, 2, seed=42, mean_range=(4.0, 9.0), samples_per_cell=150)


def assert_chains_equal(est_inc, est_ref, cluster, now):
    for machine in cluster.machines:
        a = est_inc._pct_chain(machine, now)
        b = est_ref._pct_chain(machine, now)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.offset == y.offset
            assert x.tail == y.tail
            assert np.array_equal(x.probs, y.probs)


class TestFailureInvalidation:
    def test_machine_dies_mid_queue_then_queries_match_reference(self, pet):
        """The satellite's scenario: warm chain, failure, fresh queries."""
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        inc = CompletionEstimator(pet, memoize=True)
        ref = CompletionEstimator(pet, memoize=False)

        for i in range(5):
            put(cluster, sim, 0, i, ttype=i % 2)
        put(cluster, sim, 1, 99, ttype=1)
        # Warm the incremental chain on the soon-to-die machine.
        assert_chains_equal(inc, ref, cluster, 0.0)
        inv0 = inc.invalidations

        sim.run(until=3.0)
        machine = cluster[0]
        interrupted, evicted = machine.fail(sim)
        assert interrupted is not None and len(evicted) == 4
        assert inc.invalidations > inv0  # on_offline reached the cache

        # Post-failure: the dead machine's chain is the idle delta; the
        # survivor is untouched.  Both must match a cold reference.
        assert_chains_equal(inc, ref, cluster, sim.now)
        probe = Task(task_id=500, task_type=1, arrival=sim.now, deadline=60.0)
        assert inc.chance_of_success(probe, cluster[1], sim.now) == ref.chance_of_success(
            probe, cluster[1], sim.now
        )

        # Recovery + new work: chain rebuilt from scratch, still exact.
        machine.recover()
        put(cluster, sim, 0, 600, ttype=0)
        assert_chains_equal(inc, ref, cluster, sim.now)
        assert inc.chance_of_success(probe, machine, sim.now) == ref.chance_of_success(
            probe, machine, sim.now
        )

    def test_drain_mid_queue_invalidates(self, pet):
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        inc = CompletionEstimator(pet, memoize=True)
        ref = CompletionEstimator(pet, memoize=False)
        for i in range(4):
            put(cluster, sim, 0, i, ttype=i % 2)
        assert_chains_equal(inc, ref, cluster, 0.0)
        cluster[0].drain()
        assert_chains_equal(inc, ref, cluster, 0.0)

    def test_full_simulation_with_churn_identical_to_oracle(self, pet_small):
        """End-to-end: churn + pruning, incremental vs no cache, bit-equal."""
        spec = WorkloadSpec(num_tasks=150, time_span=60.0, num_task_types=3)
        tasks = generate_workload(spec, pet_small, np.random.default_rng(31))
        dyn = DynamicsSpec(failures=2, mean_downtime=8.0, scale_up=1, scale_down=1)
        from repro.core.config import PruningConfig

        results = []
        for memoize in (True, False):
            system = ServerlessSystem(
                pet_small,
                "MM",
                pruning=PruningConfig.paper_default(),
                seed=7,
                dynamics=dyn,
                memoize=memoize,
            )
            r = system.run(fresh_tasks(tasks)).to_dict()
            r.pop("estimator_stats")  # counters differ by design
            results.append(r)
        assert results[0] == results[1]
