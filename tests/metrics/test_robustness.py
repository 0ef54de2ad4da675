"""Tests for cross-trial aggregation (mean ± 95 % CI)."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro.metrics.collector import SimulationResult
from repro.metrics.robustness import (
    AggregateStats,
    aggregate_robustness,
    confidence_interval,
)


def result_with_robustness(pct):
    """Fabricate a SimulationResult with a given robustness percentage."""
    on_time = int(round(pct))
    return SimulationResult(
        total=100,
        on_time=on_time,
        late=0,
        dropped_missed=100 - on_time,
        dropped_proactive=0,
        unfinished=0,
        defer_decisions=0,
        mapping_events=0,
        makespan=1.0,
    )


class TestConfidenceInterval:
    def test_matches_scipy_reference(self):
        values = [40.0, 45.0, 50.0, 55.0, 60.0]
        mean, half = confidence_interval(values)
        sem = stats.sem(values)
        t = stats.t.ppf(0.975, df=4)
        assert mean == pytest.approx(50.0)
        assert half == pytest.approx(t * sem)

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_critical_value_bit_equal_to_scipy_stats(self, confidence):
        """The critical value is ``t.ppf``'s own kernel: equal bits, not
        merely close, so committed ``ci95_pct`` values never move."""
        for n in range(2, 62):
            values = np.linspace(40.0, 60.0, n)
            sem = float(values.std(ddof=1) / math.sqrt(n))
            t_ref = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
            _, half = confidence_interval(values, confidence)
            assert half == t_ref * sem, (n - 1, confidence)

    @pytest.mark.parametrize(
        "confidence, message",
        [
            (1.5, "confidence must be in (0, 1), got 1.5"),
            (1.0, "confidence must be in (0, 1), got 1.0"),
            (True, "confidence must be a number, got True"),
            (-0.2, "confidence must be in (0, 1), got -0.2"),
            ("0.95", "confidence must be a number, got '0.95'"),
        ],
    )
    def test_bad_confidence_rejected_by_name(self, confidence, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            confidence_interval([40.0, 50.0, 60.0], confidence=confidence)

    def test_bad_confidence_rejected_before_early_returns(self):
        with pytest.raises(ValueError, match="confidence"):
            confidence_interval([42.0], confidence=1.5)

    def test_single_value_zero_width(self):
        mean, half = confidence_interval([42.0])
        assert (mean, half) == (42.0, 0.0)

    def test_constant_series_zero_width(self):
        mean, half = confidence_interval([5.0] * 10)
        assert (mean, half) == (5.0, 0.0)

    def test_wider_confidence_wider_interval(self):
        values = list(np.random.default_rng(0).normal(50, 5, size=20))
        _, h95 = confidence_interval(values, 0.95)
        _, h99 = confidence_interval(values, 0.99)
        assert h99 > h95

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([])

    def test_coverage_simulation(self):
        """~95 % of intervals over N(50, 10) samples must contain 50."""
        rng = np.random.default_rng(7)
        hits = 0
        n_rep = 400
        for _ in range(n_rep):
            sample = rng.normal(50.0, 10.0, size=12)
            mean, half = confidence_interval(sample)
            hits += abs(mean - 50.0) <= half
        assert hits / n_rep == pytest.approx(0.95, abs=0.03)


class TestAggregate:
    def test_aggregate_robustness(self):
        results = [result_with_robustness(p) for p in (40, 50, 60)]
        agg = aggregate_robustness(results)
        assert isinstance(agg, AggregateStats)
        assert agg.mean_pct == pytest.approx(50.0)
        assert agg.trials == 3
        assert agg.per_trial_pct == (40.0, 50.0, 60.0)

    def test_bad_confidence_rejected_by_name(self):
        results = [result_with_robustness(p) for p in (40, 50, 60)]
        with pytest.raises(ValueError, match="confidence must be in"):
            aggregate_robustness(results, confidence=1.5)

    def test_str_format(self):
        agg = aggregate_robustness([result_with_robustness(50)])
        assert "50.0" in str(agg)
        assert "n=1" in str(agg)


def test_program_import_leaves_scipy_stats_unloaded():
    """``scipy.special`` costs ~0.35 s and ~26 MB to import, so the
    statistics helpers import it on first use: importing the program, the
    service and the campaign layer loads neither it nor ``scipy.stats``.
    Aggregating and comparing trials loads ``scipy.special`` only;
    ``scipy.stats`` (~1 s, ~72 MB) is never loaded by the program."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, repro, repro.service, repro.experiments.campaign\n"
        "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)\n"
        "from repro.metrics import AggregateStats, aggregate_robustness, compare_paired_stats\n"
        "from repro.metrics.collector import SimulationResult\n"
        "def result(on_time):\n"
        "    return SimulationResult(total=100, on_time=on_time, late=0,\n"
        "        dropped_missed=100 - on_time, dropped_proactive=0, unfinished=0,\n"
        "        defer_decisions=0, mapping_events=0, makespan=1.0)\n"
        "a = aggregate_robustness([result(p) for p in (40, 50, 60)])\n"
        "b = AggregateStats(0.0, 0.0, 3, (48.0, 55.0, 69.0))\n"
        "assert 0.0 < compare_paired_stats(a, b).p_value < 1.0\n"
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False", "False"]
