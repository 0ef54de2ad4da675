"""Statistical conformance of the arrival generators to their processes.

Grounded in the conditional-density view of inhomogeneous Poisson point
processes (Hohmann, "Conditional Densities and Simulations of
Inhomogeneous Poisson Point Processes: The R package IPPP"): given ``n``
points on ``[0, T]``, the points of a process of intensity ``λ(t)`` are
i.i.d. with density ``λ(t) / Λ(T)``.  So the thinning generator's times,
pooled over runs, must pass a Kolmogorov–Smirnov test against the CDF
``Λ(t) / Λ(T)``; its counts are Poisson (index of dispersion 1), and the
Markov-modulated bursty counts are overdispersed (index > 1).

Every test uses fixed seeds, so each verdict is deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.workload.arrivals import (
    bursty_arrivals,
    inhomogeneous_poisson_arrivals,
    poisson_arrivals,
    spiky_rate_profile,
)
from repro.workload.spec import WorkloadSpec

RUNS = 200
SPAN = 100.0


def _pooled(generate, runs=RUNS):
    """Every run's arrival times in one array, and each run's count."""
    samples = [generate(np.random.default_rng(seed)) for seed in range(runs)]
    return np.concatenate(samples), np.array([s.size for s in samples])


def _dispersion(counts: np.ndarray) -> float:
    return float(counts.var(ddof=1) / counts.mean())


class TestThinningGivenTheCount:
    def test_linear_intensity(self):
        """``λ(t) = 0.2 + 0.02 t``: ``Λ(t) = 0.2 t + 0.01 t²``."""
        times, _ = _pooled(
            lambda rng: inhomogeneous_poisson_arrivals(
                lambda t: 0.2 + 0.02 * t, 2.2, SPAN, rng
            )
        )

        def cdf(t):
            return (0.2 * t + 0.01 * t * t) / (0.2 * SPAN + 0.01 * SPAN * SPAN)

        assert times.size > 10_000
        assert stats.kstest(times, cdf).pvalue > 0.01
        # The uniform CDF is the wrong density: the test must see that.
        assert stats.kstest(times, lambda t: t / SPAN).pvalue < 1e-6

    def test_spiky_profile(self):
        """The POISSON pattern's piecewise-constant spiky intensity."""
        spec = WorkloadSpec(
            num_tasks=200, time_span=SPAN, num_task_types=1, pattern="poisson",
            num_spikes=3, spike_amplitude=4.0,
        )
        times, _ = _pooled(lambda rng: poisson_arrivals(60.0, spec, rng))
        multiplier = spiky_rate_profile(spec)
        # ``Λ`` by a midpoint sum over 60,000 steps: only the few steps
        # that straddle a jump err, far below the KS test's resolution.
        edges = np.linspace(0.0, SPAN, 60_001)
        levels = np.array([multiplier(t) for t in (edges[:-1] + edges[1:]) / 2])
        big_lambda = np.concatenate([[0.0], np.cumsum(levels * np.diff(edges))])

        def cdf(t):
            return np.interp(t, edges, big_lambda) / big_lambda[-1]

        assert stats.kstest(times, cdf).pvalue > 0.01
        assert stats.kstest(times, lambda t: t / SPAN).pvalue < 1e-6


class TestIndexOfDispersion:
    def test_poisson_counts_are_equidispersed(self):
        spec = WorkloadSpec(
            num_tasks=200, time_span=SPAN, num_task_types=1, pattern="poisson",
            num_spikes=2, spike_amplitude=3.0,
        )
        _, counts = _pooled(lambda rng: poisson_arrivals(80.0, spec, rng))
        assert counts.mean() == pytest.approx(80.0, rel=0.05)
        assert 0.75 < _dispersion(counts) < 1.25

    def test_bursty_counts_are_overdispersed(self):
        spec = WorkloadSpec(
            num_tasks=200, time_span=SPAN, num_task_types=1, pattern="bursty",
            burst_amplitude=8.0, burst_fraction=0.15, burst_cycles=4.0,
        )
        _, counts = _pooled(lambda rng: bursty_arrivals(80.0, spec, rng))
        assert counts.mean() == pytest.approx(80.0, rel=0.1)
        assert _dispersion(counts) > 2.0
