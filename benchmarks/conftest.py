"""Shared benchmark configuration.

Figure benches regenerate the paper's figures at bench scale; the
defaults keep the suite in the minutes range.  Crank the
``BENCH_SCALE``/``BENCH_TRIALS`` env vars up for paper-size runs.
"""

import functools
import os

import pytest

from repro.experiments import scenarios
from repro.experiments.report import FigureResult

#: Workload scale for figure benches (1.0 = the library's default scale,
#: ~1/16.7 of the paper's trace length; see docs/experiments.md).
BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.4"))

#: Workload trials per experimental cell.
BENCH_TRIALS = int(os.environ.get("BENCH_TRIALS", "2"))

#: Base seed for all benches.
BENCH_SEED = int(os.environ.get("BENCH_SEED", "7"))


@functools.cache
def run_figure(name: str) -> FigureResult:
    """Registry figure ``name`` at bench scale, run once per session."""
    return scenarios.run_figure(
        name, trials=BENCH_TRIALS, base_seed=BENCH_SEED, scale=BENCH_SCALE
    )


@pytest.fixture
def show(capsys):
    """Print a figure table to the real terminal from inside a test."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return _show
