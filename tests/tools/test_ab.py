"""The summary and verdict logic of ``tools/ab.py`` on canned perfbench
output — no subprocess, no git."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_tool", REPO_ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


METRICS = [
    {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms_p99", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "robustness_pct", "unit": "%", "better": "higher", "bound": 0.2},
]


def stdout(events, p99, *, digest="abc", correct=True, failed=0):
    """The tail of a perfbench run's standard output."""
    result = {
        "correct": correct,
        "attempted": 3,
        "failed": failed,
        "metrics": {
            "events_per_s": {"value": events, "unit": "1/s"},
            "latency_ms_p99": {"value": p99, "unit": "ms"},
            "robustness_pct": {"value": 43.5, "unit": "%"},
        },
    }
    return "\n".join([
        "perfbench drop-25k seed=1 trace=0",
        f"  events_per_s {events} 1/s",
        "determinism " + json.dumps({"digest": digest, "passes": 4}),
        'host {"calibrations": 3}',
        json.dumps(result),
    ])


def run(ab, *args, **kwargs):
    return ab.parse_run(0, stdout(*args, **kwargs))


class TestParseRun:
    def test_healthy_run(self, ab):
        r = run(ab, 3400.0, 0.9)
        assert r.problem is None
        assert r.digest == "abc"
        assert r.metrics == {
            "events_per_s": 3400.0, "latency_ms_p99": 0.9, "robustness_pct": 43.5,
        }

    def test_failed_check(self, ab):
        assert "checks failed" in run(ab, 1.0, 1.0, correct=False, failed=1).problem

    def test_nonzero_exit(self, ab):
        assert ab.parse_run(2, stdout(1.0, 1.0)).problem == "exit 2"

    def test_unparsable_output(self, ab):
        assert "unparsable" in ab.parse_run(1, "Traceback ...\nKeyError").problem
        assert "unparsable" in ab.parse_run(0, "").problem


class TestSummary:
    def test_quartiles(self, ab):
        assert ab.quartiles([4.0]) == (4.0, 4.0, 4.0)
        assert ab.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
        assert ab.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)

    def test_medians_ratio_and_wins_follow_the_declared_direction(self, ab):
        pairs = [
            (run(ab, 3000.0, 1.0), run(ab, 3900.0, 0.8)),
            (run(ab, 3400.0, 0.9), run(ab, 4300.0, 0.7)),
            (run(ab, 3200.0, 0.7), run(ab, 3100.0, 0.9)),
        ]
        rows = {r.name: r for r in ab.summarize(METRICS, pairs)}
        events = rows["events_per_s"]
        assert events.parent == (3100.0, 3200.0, 3300.0)
        assert events.change == 3900.0
        assert events.ratio == pytest.approx(3900.0 / 3200.0)
        assert (events.wins, events.pairs) == (2, 3)
        p99 = rows["latency_ms_p99"]  # lower is better
        assert (p99.wins, p99.pairs) == (2, 3)
        assert rows["robustness_pct"].wins == 0  # ties are not wins
        text = ab.format_rows(list(rows.values()))
        assert "3200 (3100–3300)" in text and "2/3" in text

    def test_metric_missing_on_one_side_is_left_out(self, ab):
        broken = ab.parse_run(1, "no json here")
        rows = ab.summarize(METRICS, [(run(ab, 1.0, 1.0), broken)])
        assert rows == []


class TestMetricVerdict:
    """The verdict column, on canned runs of ten pairs."""

    @staticmethod
    def rows(ab, parent_events, change_events, parent_p99=1.0, change_p99=1.0):
        pairs = [
            (run(ab, p, parent_p99), run(ab, c, change_p99))
            for p, c in zip(parent_events, change_events)
        ]
        return {r.name: r for r in ab.summarize(METRICS, pairs)}

    def test_gain_needs_nine_wins_and_a_move_past_the_spread(self, ab):
        parent = [1000.0 + 10 * i for i in range(10)]  # q1–q3 spread 45
        rows = self.rows(ab, parent, [p * 1.3 for p in parent])
        assert rows["events_per_s"].verdict == "gain"
        assert "gain" in ab.format_rows(list(rows.values()))
        # Nine wins still count; eight do not.
        nine = [p * 1.3 for p in parent[:9]] + [parent[9] - 1.0]
        assert self.rows(ab, parent, nine)["events_per_s"].verdict == "gain"
        eight = [p * 1.3 for p in parent[:8]] + [p - 1.0 for p in parent[8:]]
        assert self.rows(ab, parent, eight)["events_per_s"].verdict == "within bound"

    def test_a_move_inside_the_spread_is_not_a_gain(self, ab):
        parent = [1000.0 + 10 * i for i in range(10)]
        rows = self.rows(ab, parent, [p + 1.0 for p in parent])  # ten wins, Δ 1
        assert rows["events_per_s"].verdict == "within bound"

    def test_ties_are_within_bound(self, ab):
        rows = self.rows(ab, [1000.0] * 10, [1000.0] * 10)
        assert {r.verdict for r in rows.values()} == {"within bound"}

    def test_worse_than_bound_follows_the_declared_direction(self, ab):
        parent = [1000.0] * 10
        rows = self.rows(ab, parent, [740.0] * 10, change_p99=1.3)
        assert rows["events_per_s"].verdict == "worse than bound"  # higher is better
        assert rows["latency_ms_p99"].verdict == "worse than bound"  # lower is better
        rows = self.rows(ab, parent, [760.0] * 10, change_p99=1.2)
        assert rows["events_per_s"].verdict == "within bound"
        assert rows["latency_ms_p99"].verdict == "within bound"

    def test_a_parent_spread_past_the_bound_is_unresolved(self, ab):
        parent = [500.0, 600.0, 700.0, 800.0, 900.0, 1100.0, 1200.0, 1300.0, 1400.0, 1500.0]
        rows = self.rows(ab, parent, parent)  # q1–q3 spread 625 on a median 1000
        assert rows["events_per_s"].verdict == "unresolved"

    def test_a_metric_without_a_bound_only_decides_gains(self, ab):
        free = [{"name": "events_per_s", "unit": "1/s", "better": "higher"}]
        pairs = [(run(ab, 1000.0, 1.0), run(ab, 10.0, 1.0))] * 10
        (row,) = ab.summarize(free, pairs)
        assert row.verdict == "-"


class TestVerdict:
    def test_clean_pairs_pass(self, ab):
        pairs = [(run(ab, 1.0, 1.0), run(ab, 2.0, 1.0))] * 2
        assert ab.problems("drop-25k", pairs) == []

    def test_digest_mismatch_fails(self, ab):
        pairs = [(run(ab, 1.0, 1.0), run(ab, 2.0, 1.0, digest="xyz"))]
        (problem,) = ab.problems("drop-25k", pairs)
        assert "outcome digest abc (parent) != xyz (change)" in problem

    def test_failed_run_fails_without_a_digest_complaint(self, ab):
        pairs = [(run(ab, 1.0, 1.0), ab.parse_run(3, stdout(1.0, 1.0, digest="xyz")))]
        (problem,) = ab.problems("drop-25k", pairs)
        assert "change run: exit 3" in problem
