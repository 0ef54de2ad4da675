"""Tests for the timeline analysis package."""

import numpy as np
import pytest

from repro import PruningConfig, ServerlessSystem, WorkloadSpec, generate_workload
from repro.analysis import TimelineRecorder
from repro.sim.task import Task

from tests.conftest import fresh_tasks


@pytest.fixture
def recorded(pet_small, oversub_workload):
    rec = TimelineRecorder()
    sys = ServerlessSystem(
        pet_small,
        "MM",
        pruning=PruningConfig.paper_default(),
        seed=3,
        observer=rec,
    )
    sys.run(fresh_tasks(oversub_workload))
    return rec, sys


class TestRecording:
    def test_every_arrival_recorded(self, recorded, oversub_workload):
        rec, _ = recorded
        assert rec.counts()["arrived"] == len(oversub_workload)

    def test_completions_match_result(self, recorded):
        rec, sys = recorded
        res = sys.result()
        assert rec.counts()["completed"] == res.on_time + res.late

    def test_drops_match_result(self, recorded):
        rec, sys = recorded
        res = sys.result()
        c = rec.counts()
        # finalized leftovers are marked outside the allocator, so the
        # timeline may record fewer reactive drops than the result.
        assert c["dropped_proactive"] == res.dropped_proactive
        assert c["dropped_missed"] <= res.dropped_missed

    def test_on_time_flag_present_only_for_completions(self, recorded):
        rec, _ = recorded
        for e in rec.events:
            if e.kind == "completed":
                assert e.on_time is not None
            else:
                assert e.on_time is None

    def test_unknown_kind_rejected(self):
        rec = TimelineRecorder()
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=1.0)
        with pytest.raises(ValueError):
            rec("exploded", t, 0.0)

    def test_dag_trial_records_held_and_released(self, pet_small):
        """The recorder accepts every kind the allocator emits, including
        the DAG gate's ``held``/``released``."""
        spec = WorkloadSpec(num_tasks=80, time_span=40.0, num_task_types=3, dag_layers=3)
        tasks = generate_workload(spec, pet_small, np.random.default_rng(4))
        rec = TimelineRecorder()
        res = ServerlessSystem(
            pet_small, "MM", pruning=PruningConfig.paper_default(), seed=3, observer=rec
        ).run(tasks)
        c = rec.counts()
        assert res.dag_stats["released"] > 0
        assert c["released"] == res.dag_stats["released"]
        assert c["held"] >= c["released"]
        assert c["arrived"] == res.total

    def test_len_and_summary(self, recorded):
        rec, _ = recorded
        assert len(rec) > 0
        s = rec.summary()
        assert "arrivals" in s and "defers" in s


class TestSeries:
    def test_rate_series_integrates_to_count(self, recorded):
        rec, _ = recorded
        window = 10.0
        centers, rates = rec.rate_series("arrived", window)
        assert rates.sum() * window == pytest.approx(rec.counts()["arrived"])

    def test_on_time_rate_bounded(self, recorded):
        rec, _ = recorded
        _, ratio = rec.on_time_rate_series(window=10.0)
        valid = ratio[~np.isnan(ratio)]
        assert np.all(valid >= 0.0) and np.all(valid <= 1.0)

    def test_backlog_nonnegative_and_ends_at_zero(self, recorded):
        rec, _ = recorded
        _, backlog = rec.backlog_series(window=5.0)
        assert np.all(backlog >= 0.0)

    def test_backlog_empty_recorder(self):
        rec = TimelineRecorder()
        centers, backlog = rec.backlog_series(window=5.0, span=20.0)
        assert np.all(backlog == 0.0)

    def test_bad_window(self, recorded):
        rec, _ = recorded
        with pytest.raises(ValueError):
            rec.rate_series("arrived", window=0.0)

    def test_defer_churn_counts(self, recorded):
        rec, _ = recorded
        churn = rec.defer_churn()
        assert sum(churn.values()) == rec.counts()["deferred"]
        assert all(v >= 1 for v in churn.values())

    def test_times_of_sorted_increasing_events(self, recorded):
        rec, _ = recorded
        times = rec.times_of("completed")
        assert np.all(np.diff(times) >= 0)
