"""Every kind of machine change, one table row each.

The incremental estimator reconciles its per-machine state against the
machine's ``version`` and queue when it next reads the machine.  For
each kind of change this checks two things against a from-scratch
``memoize=False`` oracle: ``invalidations`` steps by the number of
changes the machine made (its version steps), and the queued-task
chances, new-task chances and availability read afterwards are equal
bit for bit.
"""

import numpy as np
import pytest

from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.task import Task
from repro.stochastic.pet import generate_pet_matrix
from repro.system.completion import CompletionEstimator


@pytest.fixture
def pet():
    return generate_pet_matrix(2, 2, seed=42, mean_range=(4.0, 9.0), samples_per_cell=150)


def put(machine, sim, task):
    task.mark_mapped(machine.machine_id, sim.now)
    machine.dispatch(task, sim, lambda *a: 10.0, lambda *a: None)
    return task


def task(i, ttype=0, deadline=1000.0):
    return Task(task_id=i, task_type=ttype, arrival=0.0, deadline=deadline)


def assert_matches_oracle(inc, ref, machine, now):
    """Queued-task chances, new-task chances and availability (factored
    and scalar) of ``machine`` equal the oracle's bit for bit."""
    assert np.array_equal(
        inc.queue_chances_suffix(machine, now), ref.queue_chances_suffix(machine, now)
    )
    probes = [task(10_000 + k, ttype=k, deadline=now + 10.0 + 15.0 * k) for k in range(2)]
    assert np.array_equal(
        inc.chances_for(probes, [machine], now), ref.chances_for(probes, [machine], now)
    )
    got, want = inc._availability(machine, now), ref._availability(machine, now)
    for g, w in zip(got[:2], want[:2]):
        assert (g is None and w is None) or np.array_equal(g, w)
    assert got[2] == want[2]
    assert inc.expected_available(machine, now) == ref.expected_available(machine, now)


def busy(m, sim):
    """A running task and three queued ones; returns the queued tasks."""
    put(m, sim, task(0))
    return [put(m, sim, task(i, ttype=i % 2)) for i in (1, 2, 3)]


def reap_ready(m, sim):
    """A running task and, behind it, one task whose deadline passes
    while it waits."""
    put(m, sim, task(0))
    put(m, sim, task(1, deadline=5.0))
    put(m, sim, task(2))


def requeue_same_slot(m, sim, queued):
    """Fail, recover, then the interrupted task and the old queue head
    come back: the head lands in its old queue slot."""
    interrupted, evicted = m.fail(sim)
    m.recover()
    for t in (interrupted, evicted[0]):
        t.mark_requeued()
        put(m, sim, t)


#: (kind, setup → context, mutation, expected invalidations step)
MUTATIONS = [
    ("dispatch-to-busy", busy, lambda m, sim, q: put(m, sim, task(9)), 1),
    ("dispatch-to-idle", lambda m, sim: None, lambda m, sim, q: put(m, sim, task(9)), 3),
    ("remove", busy, lambda m, sim, q: m.remove(q[1]), 1),
    ("remove_many", busy, lambda m, sim, q: m.remove_many(q[1:]), 2),
    ("finish-then-start", busy, lambda m, sim, q: sim.run(until=10.0), 3),
    (
        "reap-inside-start-next",
        reap_ready,
        lambda m, sim, q: sim.run(until=10.0),
        4,  # finish, reap, head leaves the queue, start
    ),
    ("fail", busy, lambda m, sim, q: m.fail(sim), 1),
    ("drain-while-running", busy, lambda m, sim, q: m.drain(), 1),
    ("recover", lambda m, sim: m.fail(sim), lambda m, sim, q: m.recover(), 1),
    ("fail-recover-requeue-same-slot", busy, requeue_same_slot, 6),
]


@pytest.mark.parametrize(
    "setup, mutate, step", [row[1:] for row in MUTATIONS], ids=[row[0] for row in MUTATIONS]
)
def test_step_and_oracle(pet, setup, mutate, step):
    """One change kind steps ``invalidations`` by its row's count and
    leaves every estimate bitwise equal to the ``memoize=False`` oracle."""
    m = Cluster.heterogeneous(2)[1]
    sim = Simulator()
    inc = CompletionEstimator(pet, memoize=True)
    ref = CompletionEstimator(pet, memoize=False)
    queued = setup(m, sim)
    sim.run(until=3.0)
    assert_matches_oracle(inc, ref, m, sim.now)  # warm every cache
    before = inc.invalidations
    mutate(m, sim, queued)
    assert inc.invalidations - before == step
    assert_matches_oracle(inc, ref, m, sim.now)
    assert inc.invalidations - before == step  # reading steps nothing
