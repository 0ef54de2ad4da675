"""The vectorized two-phase planner against a plain-Python greedy.

``TwoPhaseBatchHeuristic.plan`` keeps a ``(tasks, machines)`` completion
matrix, refreshes one column per virtual assignment, masks planned rows
in place and stops on the plan length and an open-machine count.  The reference
below is the §III-C two-phase loop written out with lists and scalar
floats: every step rescans every (task, open machine) pair for the first
minimum, applies the heuristic's phase-2 rule over the candidates, and
moves one machine's availability.  Both must produce the same plan, in
the same order, for MM, MSD, MMU, LLF, MaxMin and RandomBatch — and
RandomBatch must leave its RNG exactly where the reference's copy is.

A mapping event plans its rounds from one :class:`PlanningContext`,
which masks consumed tasks and rebuilds only when a machine moved; the
last section pins every round of a reused context to a fresh ``plan``
over the same pending tasks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heuristics import LLF, MMU, MSD, MaxMin, MinMin, PlanningContext, RandomBatch
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.task import Task
from repro.stochastic.etc import ETCMatrix
from repro.system.completion import CompletionEstimator

NUM_TYPES = 3
SEED = 11


# ----------------------------------------------------------------------
# Reference phase-2 rules over plain lists.  ``best[i]`` is task i's
# (completion, machine index), completion ``inf`` once i is planned;
# ``cands`` are the active tasks with a finite completion, ascending.
# ----------------------------------------------------------------------
def _mm(cands, best, active, deadlines, rng):
    return min(cands, key=lambda i: best[i][0])


def _msd(cands, best, active, deadlines, rng):
    soonest = min(deadlines[i] for i in cands)
    tied = [i for i in cands if deadlines[i] == soonest]
    return min(tied, key=lambda i: best[i][0])


def _mmu(cands, best, active, deadlines, rng):
    def urgency(i):
        slack = deadlines[i] - best[i][0]
        if abs(slack) < MMU._SLACK_EPS:
            slack = MMU._SLACK_EPS
        return 1.0 / slack

    return max(cands, key=urgency)


def _llf(cands, best, active, deadlines, rng):
    return min(cands, key=lambda i: deadlines[i] - best[i][0])


def _maxmin(cands, best, active, deadlines, rng):
    return max(cands, key=lambda i: best[i][0])


def _random(cands, best, active, deadlines, rng):
    return int(rng.choice(cands))


RULES = {
    MinMin: _mm,
    MSD: _msd,
    MMU: _mmu,
    LLF: _llf,
    MaxMin: _maxmin,
    RandomBatch: _random,
}


def reference_plan(rule, tasks, machines, estimator, now, rng=None):
    model = estimator.model
    slots = [math.inf if m.free_slots() is None else m.free_slots() for m in machines]
    avail = [estimator.expected_available(m, now) for m in machines]
    means = [[model.mean(t.task_type, m.machine_type) for m in machines] for t in tasks]
    deadlines = [t.deadline for t in tasks]
    active = [True] * len(tasks)
    plan = []
    while any(active) and any(s > 0 for s in slots):
        best = []
        for i in range(len(tasks)):
            c_best, m_best = math.inf, 0
            for j in range(len(machines)):
                c = avail[j] + means[i][j]
                if slots[j] > 0 and c < c_best:
                    c_best, m_best = c, j
            best.append((c_best if active[i] else math.inf, m_best))
        cands = [i for i in range(len(tasks)) if active[i] and math.isfinite(best[i][0])]
        if not cands:
            break
        w = rule(cands, best, active, deadlines, rng)
        m = best[w][1]
        plan.append((tasks[w].task_id, machines[m].machine_id))
        avail[m] += means[w][m]
        slots[m] -= 1
        active[w] = False
    return plan


def _make(cls):
    return cls(SEED) if cls is RandomBatch else cls()


def check_against_reference(cls, tasks, cluster, model, now):
    heuristic = _make(cls)
    got = heuristic.plan(tasks, cluster, CompletionEstimator(model), now)
    rng = np.random.default_rng(SEED)
    want = reference_plan(
        RULES[cls], tasks, list(cluster.machines), CompletionEstimator(model), now, rng
    )
    assert [(t.task_id, m.machine_id) for t, m in got] == want
    if cls is RandomBatch:
        assert heuristic._rng.bit_generator.state == rng.bit_generator.state


# ----------------------------------------------------------------------
# Random clusters
# ----------------------------------------------------------------------
def _dispatch(machine, sim, task, model):
    task.mark_mapped(machine.machine_id, sim.now)
    machine.dispatch(
        task,
        sim,
        lambda t, m: model.mean(t.task_type, m.machine_type),
        lambda *a: None,
    )


@st.composite
def scenarios(draw):
    # Small integer means and deadlines make ties common, so the
    # first-minimum and first-maximum tie-breaks are exercised.
    means = np.array(
        draw(
            st.lists(
                st.lists(st.integers(1, 6), min_size=NUM_TYPES, max_size=NUM_TYPES),
                min_size=NUM_TYPES,
                max_size=NUM_TYPES,
            )
        ),
        dtype=np.float64,
    )
    model = ETCMatrix(means)
    sim = Simulator()
    machines = []
    next_id = 1000
    for mid in range(draw(st.integers(1, 5))):
        limit = draw(st.one_of(st.none(), st.integers(0, 3)))
        machine = Machine(mid, draw(st.integers(0, NUM_TYPES - 1)), queue_limit=limit)
        # The first dispatch starts running, so ``limit`` slots hold
        # ``limit + 1`` tasks, except that a zero-slot machine takes none.
        capacity = 3 if limit is None else (limit + 1 if limit else 0)
        queued = draw(st.integers(0, capacity))
        for _ in range(queued):
            filler = Task(
                task_id=next_id,
                task_type=draw(st.integers(0, NUM_TYPES - 1)),
                arrival=0.0,
                deadline=1000.0,
            )
            next_id += 1
            _dispatch(machine, sim, filler, model)
        if draw(st.booleans()) and draw(st.booleans()):
            machine.drain()  # offline: zero free slots, availability still read
        machines.append(machine)
    tasks = [
        Task(
            task_id=i,
            task_type=draw(st.integers(0, NUM_TYPES - 1)),
            arrival=0.0,
            deadline=float(draw(st.integers(1, 12))),
        )
        for i in range(draw(st.integers(1, 10)))
    ]
    now = float(draw(st.integers(0, 2)))
    return tasks, Cluster(machines), model, now


@pytest.mark.parametrize("cls", list(RULES), ids=lambda c: c.name)
@settings(max_examples=60, deadline=None)
@given(scenario=scenarios())
def test_plan_matches_reference_greedy(cls, scenario):
    tasks, cluster, model, now = scenario
    check_against_reference(cls, tasks, cluster, model, now)


# ----------------------------------------------------------------------
# Named edge cases
# ----------------------------------------------------------------------
_TIED = ETCMatrix(np.full((NUM_TYPES, NUM_TYPES), 3.0))


def _batch(n, deadline=10.0):
    return [Task(task_id=i, task_type=i % NUM_TYPES, arrival=0.0, deadline=deadline) for i in range(n)]


@pytest.mark.parametrize("cls", list(RULES), ids=lambda c: c.name)
def test_unbounded_queues(cls):
    cluster = Cluster.heterogeneous(NUM_TYPES, queue_limit=None)
    check_against_reference(cls, _batch(7), cluster, _TIED, 0.0)


@pytest.mark.parametrize("cls", list(RULES), ids=lambda c: c.name)
def test_all_ties_break_to_the_first_index(cls):
    cluster = Cluster.heterogeneous(NUM_TYPES, queue_limit=2)
    check_against_reference(cls, _batch(5), cluster, _TIED, 0.0)


@pytest.mark.parametrize("cls", list(RULES), ids=lambda c: c.name)
def test_offline_machine_is_skipped(cls):
    cluster = Cluster.heterogeneous(NUM_TYPES, queue_limit=2)
    cluster.machines[0].drain()
    heuristic = _make(cls)
    plan = heuristic.plan(_batch(6), cluster, CompletionEstimator(_TIED), 0.0)
    assert plan and all(m.machine_id != 0 for _, m in plan)
    check_against_reference(cls, _batch(6), cluster, _TIED, 0.0)


@pytest.mark.parametrize("cls", list(RULES), ids=lambda c: c.name)
def test_all_slots_full_plans_nothing(cls):
    sim = Simulator()
    cluster = Cluster.heterogeneous(NUM_TYPES, queue_limit=1)
    for machine in cluster.machines:
        for k in range(2):  # one running, one queued
            _dispatch(machine, sim, Task(500 + 10 * machine.machine_id + k, 0, 0.0, 99.0), _TIED)
    heuristic = _make(cls)
    assert heuristic.plan(_batch(4), cluster, CompletionEstimator(_TIED), 0.0) == []
    check_against_reference(cls, _batch(4), cluster, _TIED, 0.0)


@pytest.mark.parametrize("cls", list(RULES), ids=lambda c: c.name)
def test_infinite_mean_stops_planning_like_the_reference(cls):
    # Task type 2 cannot finish anywhere: once the finite tasks are
    # placed the planner must stop instead of handing phase 2 a batch
    # with no finite completion.
    means = np.array([[2.0, 4.0, 3.0], [5.0, 1.0, 2.0], [np.inf, np.inf, np.inf]])
    model = ETCMatrix(means)
    cluster = Cluster.heterogeneous(NUM_TYPES, queue_limit=3)
    check_against_reference(cls, _batch(6), cluster, model, 0.0)


@pytest.mark.parametrize("cls", list(RULES), ids=lambda c: c.name)
def test_soonest_deadline_that_cannot_finish_is_not_picked(cls):
    # Task 1 has the strictly soonest deadline but no machine can run its
    # type.  No rule may place it (MSD used to, on the drained machine 0
    # that the all-``inf`` row's argmin points at).
    means = np.array([[2.0, 4.0, 3.0], [5.0, 1.0, 2.0], [np.inf, np.inf, np.inf]])
    model = ETCMatrix(means)
    cluster = Cluster.heterogeneous(NUM_TYPES, queue_limit=2)
    cluster.machines[0].drain()
    tasks = [
        Task(task_id=0, task_type=0, arrival=0.0, deadline=10.0),
        Task(task_id=1, task_type=2, arrival=0.0, deadline=5.0),
        Task(task_id=2, task_type=1, arrival=0.0, deadline=8.0),
    ]
    plan = _make(cls).plan(tasks, cluster, CompletionEstimator(model), 0.0)
    assert plan and all(t.task_id != 1 and m.machine_id != 0 for t, m in plan)
    check_against_reference(cls, tasks, cluster, model, 0.0)


# ----------------------------------------------------------------------
# A reused planning context against a fresh plan, round by round
# ----------------------------------------------------------------------
@st.composite
def event_scenarios(draw):
    """A scenario whose cluster may be tight (one free slot in total) and
    whose type 2 may be unable to run anywhere (an ``inf`` means row)."""
    tasks, cluster, model, now = draw(scenarios())
    if draw(st.booleans()):
        _leave_one_slot(cluster, model)
    # Only a type no machine is running or queueing can be made hopeless.
    placed = {t.task_type for m in cluster.machines for t in (m.running, *m.queue) if t}
    idle_types = [k for k in range(NUM_TYPES) if k not in placed]
    if idle_types and draw(st.booleans()):
        means = np.array(model.means, dtype=np.float64)
        means[draw(st.sampled_from(idle_types))] = np.inf
        model = ETCMatrix(means)
    return tasks, cluster, model, now


def _leave_one_slot(cluster, model):
    """Fill every bounded machine with type-0 tasks, leaving a single
    free slot on the first one that has any (unbounded machines keep
    theirs)."""
    sim = Simulator()
    spare = True
    for machine in cluster.machines:
        free = machine.free_slots()
        if free is None or free <= 0:
            continue
        keep = 1 if spare else 0
        spare = False
        for k in range(free - keep):
            filler = Task(task_id=5000 + 10 * machine.machine_id + k, task_type=0,
                          arrival=0.0, deadline=1000.0)
            _dispatch(machine, sim, filler, model)


@pytest.mark.parametrize("cls", list(RULES), ids=lambda c: c.name)
@settings(max_examples=60, deadline=None)
@given(scenario=event_scenarios(), data=st.data())
def test_reused_context_equals_a_fresh_plan(cls, scenario, data):
    """Rounds of one event: each defers (consumes) some planned tasks,
    and may first dispatch one for real (a version bump), drain a
    machine or move the clock.  Every round's plan from the reused
    context equals a fresh ``plan`` over the pending tasks, and
    RandomBatch's two streams stay in step."""
    tasks, cluster, model, now = scenario
    reused, fresh = _make(cls), _make(cls)
    est_reused, est_fresh = CompletionEstimator(model), CompletionEstimator(model)
    context = PlanningContext(tasks, cluster, est_reused)
    sim = Simulator()
    while context:
        got = reused.plan(context, cluster, est_reused, now)
        want = fresh.plan(list(context), cluster, est_fresh, now)
        assert [(t.task_id, m.machine_id) for t, m in got] == [
            (t.task_id, m.machine_id) for t, m in want
        ]
        if cls is RandomBatch:
            assert reused._rng.bit_generator.state == fresh._rng.bit_generator.state
        if not got:
            break
        consumed = {t.task_id for t, _ in got}
        if len(got) > 1:
            keep = data.draw(st.sets(st.sampled_from(sorted(consumed)), max_size=len(got) - 1))
            consumed -= keep
        move = data.draw(st.sampled_from(["defer", "dispatch", "drain", "tick"]))
        if move == "dispatch":
            task, machine = next((t, m) for t, m in got if t.task_id in consumed)
            if machine.has_free_slot:
                _dispatch(machine, sim, task, model)
        elif move == "drain":
            machine = data.draw(st.sampled_from(list(cluster.machines)))
            if machine.online and machine.running is None:
                machine.drain()
        elif move == "tick":
            now += 1.0
        context.consume(consumed)
