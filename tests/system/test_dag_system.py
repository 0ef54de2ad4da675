"""End-to-end DAG scheduling invariants.

The load-bearing properties of dependency-aware allocation:

* no task ever starts before every parent completed;
* the accounting identity ``arrived = on_time + late + dropped_missed +
  dropped_proactive`` holds with cascades included, and the cascade
  tally matches the dag telemetry;
* dropping an ancestor dooms the whole transitive subgraph;
* independent-task workloads are byte-identical to the pre-DAG system
  (``dag_stats`` stays absent from the payload).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PruningConfig
from repro.core.dag import DependencyTracker
from repro.experiments.runner import pet_matrix
from repro.sim.task import Task, TaskStatus
from repro.system.serverless import ServerlessSystem
from repro.workload.generator import generate_workload
from repro.workload.spec import WorkloadSpec


def _run(spec, *, heuristic="MM", seed=7, pruning="paper"):
    pet = pet_matrix("inconsistent")
    tasks = generate_workload(spec, pet, np.random.default_rng(seed))
    config = PruningConfig.paper_default() if pruning == "paper" else pruning
    system = ServerlessSystem(pet, heuristic, pruning=config, seed=seed)
    result = system.run(tasks)
    return tasks, system, result


_SPECS = [
    WorkloadSpec(num_tasks=200, time_span=120.0, dag_layers=3),
    WorkloadSpec(num_tasks=300, time_span=30.0, dag_layers=4, dag_edge_prob=0.7),
]


@pytest.mark.parametrize("spec", _SPECS, ids=["light", "oversubscribed"])
@pytest.mark.parametrize("heuristic", ["MM", "MCT"])
def test_no_task_starts_before_its_parents_complete(spec, heuristic):
    tasks, _, _ = _run(spec, heuristic=heuristic)
    by_id = {t.task_id: t for t in tasks}
    started = [t for t in tasks if t.started_at is not None]
    assert started, "scenario must actually run tasks"
    for t in started:
        for p in t.deps:
            parent = by_id[p]
            assert parent.status in (
                TaskStatus.COMPLETED_ON_TIME,
                TaskStatus.COMPLETED_LATE,
            )
            assert parent.finished_at <= t.started_at + 1e-9


@pytest.mark.parametrize("spec", _SPECS, ids=["light", "oversubscribed"])
def test_cascade_accounting_identity(spec):
    _, system, result = _run(spec)
    acc = system.accounting
    assert acc.total_arrived == (
        acc.total_on_time
        + acc.total_late
        + acc.total_dropped_missed
        + acc.total_dropped_proactive
    )
    # Every submitted task reached a terminal state (none forgotten in a
    # held/doomed limbo).
    assert result.unfinished == 0
    assert acc.total_dropped_cascade <= acc.total_dropped_proactive
    assert result.dag_stats["cascade_drops"] == acc.total_dropped_cascade
    # Per-depth outcome counts partition the workload, outcome by outcome.
    depths = result.dag_stats["depths"]
    for key in ("total", "on_time", "late", "dropped_missed", "dropped_proactive", "unfinished"):
        assert sum(row[key] for row in depths.values()) == getattr(result, key), key


def test_oversubscribed_dag_actually_cascades():
    """The acceptance scenario: pruning a doomed ancestor drops its
    transitive dependents via cascade accounting."""
    _, system, result = _run(_SPECS[1])
    assert result.cascade_drops > 0
    assert system.accounting.total_dropped_cascade == result.cascade_drops
    # Cascaded tasks are proactive drops per type as well.
    per_type_cascade = sum(
        c.dropped_cascade for c in system.accounting.per_type.values()
    )
    assert per_type_cascade == result.cascade_drops


def test_without_pruning_cascades_still_follow_reactive_drops():
    """Deadline-missed drops doom their dependents even when proactive
    pruning is off: a child of a dead parent can never run."""
    tasks, system, result = _run(_SPECS[1], pruning=None)
    acc = system.accounting
    assert acc.total_arrived == (
        acc.total_on_time
        + acc.total_late
        + acc.total_dropped_missed
        + acc.total_dropped_proactive
    )
    by_id = {t.task_id: t for t in tasks}
    for t in tasks:
        if t.started_at is None:
            continue
        for p in t.deps:
            assert by_id[p].finished_at <= t.started_at + 1e-9
    assert result.unfinished == 0


def test_dependency_free_results_have_no_dag_payload():
    spec = WorkloadSpec(num_tasks=150, time_span=100.0)
    _, system, result = _run(spec)
    payload = result.to_dict()
    assert "dag_stats" not in payload
    assert system.dag is None


def test_dag_workload_must_be_submitted_in_one_batch():
    pet = pet_matrix("inconsistent")
    system = ServerlessSystem(pet, "MM", pruning=None, seed=1)
    first = [Task(task_id=0, task_type=0, arrival=0.0, deadline=50.0)]
    second = [
        Task(task_id=1, task_type=0, arrival=1.0, deadline=50.0, deps=(0,))
    ]
    system.submit_workload(first)
    with pytest.raises(ValueError, match="one batch"):
        system.submit_workload(second)


# ----------------------------------------------------------------------
# DependencyTracker unit coverage
# ----------------------------------------------------------------------
def _chain(n):
    return [
        Task(
            task_id=i,
            task_type=0,
            arrival=float(i),
            deadline=float(i) + 20.0,
            deps=(i - 1,) if i else (),
        )
        for i in range(n)
    ]


def test_tracker_release_and_cascade_semantics():
    tasks = _chain(4)
    tracker = DependencyTracker(tasks)
    assert tracker.ready(tasks[0]) and not tracker.ready(tasks[1])
    tracker.hold(tasks[1])
    tasks[0].mark_mapped(0, 0.0)
    tasks[0].mark_running(0.0, 1.0)
    tasks[0].mark_completed(1.0)
    released = tracker.note_completed(tasks[0])
    assert released == [tasks[1]]
    # Dropping the released task dooms the rest of the chain.
    tasks[1].mark_dropped(2.0, proactive=True)
    tracker.hold(tasks[2])
    victims = tracker.cascade(tasks[1])
    assert tasks[2] in victims
    assert tracker.is_doomed(tasks[3])
    assert not tracker.has_dependents(tasks[3].task_id)


def test_tracker_chance_factor_propagates_multiplicatively():
    tasks = _chain(3)
    tracker = DependencyTracker(tasks)
    # Pending parents with recorded estimates multiply along the chain.
    tracker.note_estimate(0, 0.5)
    tracker.note_estimate(1, 0.4)
    assert tracker.chance_factor(tasks[2]) == pytest.approx(0.5 * 0.4)
    # A completed parent contributes factor 1.
    tasks[0].mark_mapped(0, 0.0)
    tasks[0].mark_running(0.0, 1.0)
    tasks[0].mark_completed(1.0)
    tracker.note_completed(tasks[0])
    assert tracker.chance_factor(tasks[1]) == 1.0
    assert tracker.chance_factor(tasks[2]) == pytest.approx(0.4)
    # A dropped parent zeroes every descendant.
    tasks[1].mark_dropped(2.0, proactive=True)
    tracker.cascade(tasks[1])
    assert tracker.chance_factor(tasks[2]) == 0.0
