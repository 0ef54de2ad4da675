"""Paired comparison of two system variants.

The experiment runner feeds *identical workload trials* to each variant
(§V-A methodology), so the right significance test for "pruning beats the
baseline" is a paired one: per-trial robustness deltas, their mean, a
Student-t confidence interval, and a paired t-test p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .collector import SimulationResult
from .robustness import AggregateStats, confidence_interval

__all__ = ["PairedComparison", "compare_paired", "compare_paired_stats"]


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of comparing variant B against variant A on paired trials."""

    mean_delta_pp: float        #: mean robustness gain (B − A), percentage points
    ci95_pp: float              #: half-width of the 95 % CI of the mean delta
    p_value: float              #: paired t-test (two-sided); NaN when undefined
    trials: int
    deltas_pp: tuple[float, ...]

    @property
    def significant(self) -> bool:
        """True when the gain is significant at the 5 % level."""
        return not math.isnan(self.p_value) and self.p_value < 0.05

    @property
    def wins(self) -> int:
        """Trials where variant B strictly beat variant A."""
        return sum(1 for d in self.deltas_pp if d > 0)

    def __str__(self) -> str:
        sig = "significant" if self.significant else "not significant"
        return (
            f"Δ = {self.mean_delta_pp:+.1f} ± {self.ci95_pp:.1f} pp over "
            f"{self.trials} paired trials (p = {self.p_value:.4f}, {sig}; "
            f"B won {self.wins}/{self.trials})"
        )


def compare_paired(
    baseline: Sequence[SimulationResult],
    variant: Sequence[SimulationResult],
    confidence: float = 0.95,
) -> PairedComparison:
    """Compare per-trial robustness of ``variant`` against ``baseline``.

    Both sequences must come from the same workload trials in the same
    order (the runner's seeding discipline guarantees this when both used
    the same ``base_seed`` and spec).
    """
    return _compare_pcts(
        [r.robustness_pct for r in baseline],
        [r.robustness_pct for r in variant],
        confidence,
    )


def compare_paired_stats(
    baseline: AggregateStats,
    variant: AggregateStats,
    confidence: float = 0.95,
) -> PairedComparison:
    """Paired comparison straight from two cells' aggregated statistics.

    :class:`~repro.metrics.robustness.AggregateStats` retains the
    per-trial robustness series, so two cells of a finished campaign can
    be significance-tested without re-running any trial — as long as both
    cells used the same ``base_seed`` and workload spec (the seeding
    discipline that makes their trials paired).
    """
    return _compare_pcts(baseline.per_trial_pct, variant.per_trial_pct, confidence)


def _compare_pcts(
    a_pcts: Sequence[float], b_pcts: Sequence[float], confidence: float
) -> PairedComparison:
    if len(a_pcts) != len(b_pcts):
        raise ValueError(
            f"trial counts differ: {len(a_pcts)} baseline vs {len(b_pcts)} variant"
        )
    if not len(a_pcts):
        raise ValueError("no trials to compare")
    a = np.asarray(a_pcts, dtype=np.float64)
    b = np.asarray(b_pcts, dtype=np.float64)
    deltas = b - a
    mean, half = confidence_interval(deltas, confidence)
    if len(deltas) < 2 or np.allclose(deltas, deltas[0]):
        p = float("nan")
    else:
        # Deferred like confidence_interval's, which has already paid the
        # ~0.35 s import.  Two-sided paired t-test: the kernels
        # scipy.stats.ttest_rel evaluates, without importing scipy.stats.
        from scipy import special

        t = deltas.mean() / math.sqrt(deltas.var(ddof=1) / len(deltas))
        p = float(2.0 * special.stdtr(len(deltas) - 1, -abs(t)))
    return PairedComparison(
        mean_delta_pp=mean,
        ci95_pp=half,
        p_value=p,
        trials=len(deltas),
        deltas_pp=tuple(float(d) for d in deltas),
    )
