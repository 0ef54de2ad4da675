"""Cross-trial aggregation: mean robustness and 95 % confidence intervals.

§V-A: "For each set of experiments, 30 workload trials were performed …
the mean and 95% confidence interval of the results are reported."  The
interval uses the Student-t critical value, matching standard practice
for ~30 samples.  It comes from ``scipy.special.stdtrit``, the kernel
behind ``scipy.stats.t.ppf``, so it is the same value bit for bit
without importing ``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.convert import as_float, convert_named
from .collector import SimulationResult

__all__ = ["AggregateStats", "aggregate_robustness", "confidence_interval"]


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Mean and half-width of the Student-t confidence interval.

    A single sample has an undefined interval; we report half-width 0 so
    downstream tables stay printable.  ``confidence`` must be a number
    strictly between 0 and 1.
    """
    # Deferred: scipy.special is ~0.35 s and ~26 MB of import, and only
    # aggregation needs it.  Loaded before the early returns so that the
    # first call of a process pays it whatever its input, e.g. a
    # single-trial warm-up.
    from scipy import special

    confidence = convert_named("confidence", as_float, confidence)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values to aggregate")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    if sem == 0.0:
        return mean, 0.0
    t_crit = float(special.stdtrit(arr.size - 1, 0.5 + confidence / 2.0))
    return mean, t_crit * sem


@dataclass(frozen=True)
class AggregateStats:
    """Mean ± 95 % CI of a robustness series over workload trials."""

    mean_pct: float
    ci95_pct: float
    trials: int
    per_trial_pct: tuple[float, ...]

    def __str__(self) -> str:
        return f"{self.mean_pct:.1f} ± {self.ci95_pct:.1f} % (n={self.trials})"

    def to_dict(self) -> dict:
        """JSON-ready form used by campaign summaries and figure grids."""
        return {
            "mean_pct": self.mean_pct,
            "ci95_pct": self.ci95_pct,
            "trials": self.trials,
            "per_trial_pct": list(self.per_trial_pct),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> AggregateStats:
        """Inverse of :meth:`to_dict`.

        ``per_trial_pct`` is required and must have ``trials`` entries —
        a truncated payload would otherwise build an object that only
        fails later, deep inside a paired comparison.
        """
        trials = int(payload["trials"])
        per_trial = tuple(float(p) for p in payload["per_trial_pct"])
        if len(per_trial) != trials:
            raise ValueError(
                f"per_trial_pct has {len(per_trial)} entries for {trials} trials"
            )
        return cls(
            mean_pct=float(payload["mean_pct"]),
            ci95_pct=float(payload["ci95_pct"]),
            trials=trials,
            per_trial_pct=per_trial,
        )


def aggregate_robustness(
    results: Sequence[SimulationResult], confidence: float = 0.95
) -> AggregateStats:
    """Aggregate per-trial robustness percentages."""
    pcts = [r.robustness_pct for r in results]
    mean, half = confidence_interval(pcts, confidence)
    return AggregateStats(
        mean_pct=mean, ci95_pct=half, trials=len(pcts), per_trial_pct=tuple(pcts)
    )
