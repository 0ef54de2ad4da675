"""Tests for paired variant comparison."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.metrics.compare import compare_paired, compare_paired_stats
from repro.metrics.collector import SimulationResult
from repro.metrics.robustness import AggregateStats


def result(pct):
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


def _stats(pcts):
    """An aggregate that carries only its per-trial series."""
    pcts = tuple(float(p) for p in pcts)
    return AggregateStats(mean_pct=0.0, ci95_pct=0.0, trials=len(pcts), per_trial_pct=pcts)


class TestComparePaired:
    def test_mean_delta(self):
        base = [result(p) for p in (40, 50, 60)]
        var = [result(p) for p in (50, 62, 68)]
        cmp = compare_paired(base, var)
        assert cmp.mean_delta_pp == pytest.approx((10 + 12 + 8) / 3)
        assert cmp.trials == 3
        assert cmp.wins == 3

    def test_p_value_matches_scipy(self):
        a = [40, 45, 52, 48, 50]
        b = [48, 50, 60, 55, 58]
        cmp = compare_paired([result(x) for x in a], [result(x) for x in b])
        ref = stats.ttest_rel(np.array(b, float), np.array(a, float)).pvalue
        assert cmp.p_value == pytest.approx(float(ref))
        assert cmp.significant

    def test_p_value_matches_ttest_rel_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(400):
            n = int(rng.integers(2, 41))
            a = rng.normal(50.0, 10.0, size=n)
            b = a + rng.normal(rng.normal(0.0, 2.0), rng.uniform(0.5, 5.0), size=n)
            cmp = compare_paired_stats(_stats(a), _stats(b))
            ref = float(stats.ttest_rel(b, a).pvalue)
            assert cmp.p_value == pytest.approx(ref, rel=1e-12), n

    @pytest.mark.parametrize("confidence", [1.5, 1.0, True, -0.2, "0.95"])
    def test_bad_confidence_rejected_by_name(self, confidence):
        base = [result(p) for p in (40, 50, 60)]
        var = [result(p) for p in (50, 62, 68)]
        with pytest.raises(ValueError, match="^confidence must be"):
            compare_paired(base, var, confidence=confidence)
        with pytest.raises(ValueError, match="^confidence must be"):
            compare_paired_stats(_stats([40, 50, 60]), _stats([50, 62, 68]), confidence)

    def test_constant_deltas_nan_p(self):
        base = [result(p) for p in (40, 50)]
        var = [result(p) for p in (45, 55)]
        cmp = compare_paired(base, var)
        assert math.isnan(cmp.p_value)
        assert not cmp.significant

    def test_single_trial(self):
        cmp = compare_paired([result(40)], [result(55)])
        assert cmp.mean_delta_pp == pytest.approx(15.0)
        assert math.isnan(cmp.p_value)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="differ"):
            compare_paired([result(1)], [result(1), result(2)])

    def test_empty(self):
        with pytest.raises(ValueError, match="no trials"):
            compare_paired([], [])

    def test_str_readable(self):
        cmp = compare_paired(
            [result(p) for p in (40, 45, 50)], [result(p) for p in (52, 58, 60)]
        )
        s = str(cmp)
        assert "pp" in s and "paired trials" in s

    def test_negative_delta(self):
        cmp = compare_paired([result(60)], [result(40)])
        assert cmp.mean_delta_pp == pytest.approx(-20.0)
        assert cmp.wins == 0


class TestEndToEnd:
    def test_pruning_gain_significant_on_real_trials(self):
        """Run 4 paired trials of MSD ± pruning and demand a significant
        positive delta — the library-level restatement of Fig. 9."""
        from repro.core import PruningConfig
        from repro.experiments.runner import ExperimentConfig, run_trial
        from repro.workload import WorkloadSpec

        spec = WorkloadSpec(num_tasks=400, time_span=200.0)
        base_cfg = ExperimentConfig(heuristic="MSD", spec=spec, trials=4)
        var_cfg = ExperimentConfig(
            heuristic="MSD", spec=spec, pruning=PruningConfig.paper_default(), trials=4
        )
        base = [run_trial(base_cfg, t) for t in range(4)]
        var = [run_trial(var_cfg, t) for t in range(4)]
        cmp = compare_paired(base, var)
        assert cmp.mean_delta_pp > 0
        assert cmp.wins == 4
