"""End-to-end integration tests: the claims no paper figure covers.

These run small-but-real multi-trial experiments through the public API.
The claims about the shapes of Figs. 7–10 are rows of the figure
registry (``scenarios.Figure.claims``), checked in
``tests/experiments/test_scenarios.py`` and ``benchmarks/bench_figures.py``.
"""

import numpy as np
import pytest

from repro import (
    PruningConfig,
    ServerlessSystem,
    WorkloadSpec,
    generate_workload,
)
from repro.experiments.runner import pet_matrix
from repro.workload.generator import trimmed_slice


# Shared mid-size setup: 12×8 paper-shaped PET, heavy oversubscription.
PET = pet_matrix()
SPEC = WorkloadSpec(num_tasks=500, time_span=250.0)
N_TRIALS = 3


def mean_robustness(model, heuristic, pruning):
    vals = []
    for trial in range(N_TRIALS):
        tasks = generate_workload(SPEC, model, np.random.default_rng(1000 + trial))
        sys = ServerlessSystem(model, heuristic, pruning=pruning, seed=trial)
        sys.run(tasks)
        res = sys.result(trimmed_slice(tasks, SPEC.trim_count))
        vals.append(res.robustness_pct)
    return float(np.mean(vals))


class TestHeterogeneityKinds:
    """§I taxonomy: no figure runs the consistent kind, so the pruning
    claim over inconsistent / consistent / homogeneous execution-time
    structure (same aggregate load) is checked here."""

    @pytest.mark.parametrize("kind", ["inconsistent", "consistent", "homogeneous"])
    def test_pruning_does_not_hurt(self, kind):
        pet = pet_matrix(kind)
        base = mean_robustness(pet, "MM", None)
        pruned = mean_robustness(pet, "MM", PruningConfig.paper_default())
        assert pruned > base - 3.0, f"{kind}: {pruned:.1f} <= {base:.1f} - 3"


class TestFairnessClaim:
    """§IV-D: with fairness enabled, no task type is starved outright."""

    def test_fairness_reduces_worst_type_starvation(self):
        worst = {}
        for enabled in (True, False):
            rates = []
            for trial in range(N_TRIALS):
                tasks = generate_workload(SPEC, PET, np.random.default_rng(2000 + trial))
                cfg = PruningConfig(enable_fairness=enabled)
                sys = ServerlessSystem(PET, "MM", pruning=cfg, seed=trial)
                sys.run(tasks)
                res = sys.result()
                rates.append(min(t.robustness for t in res.per_type.values()))
            worst[enabled] = float(np.mean(rates))
        # Fairness must not make the most-suffering type worse.
        assert worst[True] >= worst[False] - 1e-6


class TestDeterminismEndToEnd:
    def test_full_stack_reproducible(self):
        spec = WorkloadSpec(num_tasks=200, time_span=120.0)

        def run_once():
            tasks = generate_workload(spec, PET, np.random.default_rng(5))
            sys = ServerlessSystem(PET, "MMU", pruning=PruningConfig.paper_default(), seed=9)
            res = sys.run(tasks)
            return (res.on_time, res.late, res.dropped_missed, res.dropped_proactive, res.makespan)

        assert run_once() == run_once()
