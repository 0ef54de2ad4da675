"""Shared benchmark configuration.

Each benchmark regenerates one table/figure of the paper (printing the
same rows/series the paper reports) and measures how long the regeneration
takes.  Scale/trial defaults keep the full suite in the minutes range;
crank ``BENCH_SCALE``/``BENCH_TRIALS`` env vars up for paper-size runs.
"""

import os

import pytest

from repro.experiments import scenarios

#: Workload scale for figure benches (1.0 = the library's default scale,
#: ~1/16.7 of the paper's trace length; see DESIGN.md).
BENCH_SCALE = float(os.environ.get("BENCH_SCALE", "0.4"))

#: Workload trials per experimental cell.
BENCH_TRIALS = int(os.environ.get("BENCH_TRIALS", "2"))

#: Base seed for all benches.
BENCH_SEED = int(os.environ.get("BENCH_SEED", "7"))


def run_figure(benchmark, name, **kwargs):
    """Benchmark regenerating one registry figure (single round — these
    are end-to-end simulation campaigns, not microbenchmarks)."""
    kwargs.setdefault("trials", BENCH_TRIALS)
    kwargs.setdefault("base_seed", BENCH_SEED)
    kwargs.setdefault("scale", BENCH_SCALE)
    return benchmark.pedantic(
        lambda: scenarios.run_figure(name, **kwargs), rounds=1, iterations=1
    )


@pytest.fixture
def show(capsys):
    """Print a figure table to the real terminal from inside a test."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return _show
