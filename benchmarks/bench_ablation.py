"""Ablation benches for the design choices the paper calls out.

* PCT-chain memoization on/off (§V-A: "memorization of partial results")
* Fairness factor sweep (§IV-D)
* Dropping-toggle α sweep (§IV-C)
* Probabilistic PET vs deterministic ETC chance estimation (§VI, the
  Khemka et al. comparison)
"""

import numpy as np
import pytest

from benchmarks.conftest import show
from repro.core.config import PruningConfig
from repro.experiments.runner import pet_matrix
from repro.stochastic.etc import ETCMatrix
from repro.system.serverless import ServerlessSystem
from repro.workload import WorkloadSpec, generate_workload
from repro.workload.generator import trimmed_slice

SPEC = WorkloadSpec(num_tasks=450, time_span=250.0)


def _workload(trial=0):
    return generate_workload(SPEC, pet_matrix(), np.random.default_rng(500 + trial))


def _run(model, pruning, tasks, *, memoize=True, seed=1):
    sys = ServerlessSystem(model, "MM", pruning=pruning, memoize=memoize, seed=seed)
    sys.run(tasks)
    return sys


class TestMemoization:
    def test_memoized(self, benchmark, show):
        """Incremental prefix-convolution cache (the default)."""
        sys = benchmark.pedantic(
            lambda: _run(pet_matrix(), PruningConfig.paper_default(), _workload()),
            rounds=1,
            iterations=1,
        )
        stats = sys.estimator.cache_stats()
        show(
            f"memoization ON : {stats['hits']} hits / {stats['misses']} misses "
            f"({100 * stats['hits'] / max(stats['hits'] + stats['misses'], 1):.0f}% hit rate), "
            f"{stats['convolutions']} convolutions performed / "
            f"{stats['convolutions_avoided']} avoided, "
            f"{stats['invalidations']} delta invalidations"
        )
        assert stats["hits"] > 0
        assert stats["convolutions_avoided"] > stats["convolutions"]

    def test_unmemoized(self, benchmark, show):
        sys = benchmark.pedantic(
            lambda: _run(
                pet_matrix(), PruningConfig.paper_default(), _workload(), memoize=False
            ),
            rounds=1,
            iterations=1,
        )
        show(
            "memoization OFF: every PCT chain recomputed "
            f"({sys.estimator.convolutions} convolutions)"
        )
        assert sys.estimator.cache_hits == 0

    def test_results_identical(self):
        """Memoization is a pure optimization: identical outcomes with the
        incremental cache and with the from-scratch oracle."""
        runs = {
            mode: _run(pet_matrix(), PruningConfig.paper_default(), _workload(), memoize=mode)
            for mode in (True, False)
        }
        outcomes = {
            mode: (
                s.result().on_time,
                s.result().late,
                s.result().dropped_proactive,
                s.result().defer_decisions,
                s.result().makespan,
            )
            for mode, s in runs.items()
        }
        assert outcomes[True] == outcomes[False]
        # And the incremental layer pays strictly fewer convolutions.
        assert runs[True].estimator.convolutions < runs[False].estimator.convolutions

    def test_fig7_convolution_ratio(self, show):
        """Acceptance: >= 3x fewer convolutions per mapping event than the
        from-scratch oracle on the fig7 workload (dropping engaged); see also
        benchmarks/bench_sim.py::test_estimator_incremental which records
        the full series in BENCH_estimator.json."""
        from benchmarks.bench_sim import _estimator_cell

        per_event = {}
        for mode in (True, False):
            sys, _ = _estimator_cell(mode, trial=0)
            per_event[mode] = sys.estimator.convolutions / sys.allocator.mapping_events
        ratio = per_event[False] / per_event[True]
        show(
            f"fig7 convolutions/event: incremental {per_event[True]:.2f} vs "
            f"naive {per_event[False]:.2f}  ->  {ratio:.2f}x fewer"
        )
        assert ratio >= 3.0


class TestFairnessSweep:
    @pytest.mark.parametrize("c", [0.0, 0.05, 0.2])
    def test_fairness_factor(self, benchmark, show, c):
        cfg = PruningConfig(fairness_factor=c, enable_fairness=c > 0)
        sys = benchmark.pedantic(
            lambda: _run(pet_matrix(), cfg, _workload()), rounds=1, iterations=1
        )
        res = sys.result(trimmed_slice(sys.tasks, SPEC.trim_count))
        worst = min(t.robustness for t in res.per_type.values())
        show(
            f"fairness c={c:<5}: total {res.robustness_pct:5.1f}%, "
            f"worst-type {100 * worst:5.1f}%"
        )
        assert res.total > 0


class TestToggleAlphaSweep:
    @pytest.mark.parametrize("alpha", [0, 2, 8])
    def test_alpha(self, benchmark, show, alpha):
        cfg = PruningConfig(dropping_toggle=alpha)
        sys = benchmark.pedantic(
            lambda: _run(pet_matrix(), cfg, _workload()), rounds=1, iterations=1
        )
        res = sys.result(trimmed_slice(sys.tasks, SPEC.trim_count))
        show(
            f"toggle α={alpha}: total {res.robustness_pct:5.1f}%, "
            f"proactive drops {res.dropped_proactive}"
        )
        assert res.total > 0


class TestETCBaseline:
    def test_probabilistic_vs_deterministic_chance(self, benchmark, show):
        """The §VI comparison: scalar ETC chance estimation (0/1 step,
        Khemka-style) vs the paper's probabilistic PET.  The PET keeps the
        execution-time ground truth in both runs; only the *scheduler's
        model* changes."""
        pet = pet_matrix()
        etc = ETCMatrix.from_pet(pet)
        tasks_a, tasks_b = _workload(), _workload()

        pet_sys = benchmark.pedantic(
            lambda: _run(pet, PruningConfig.paper_default(), tasks_a),
            rounds=1,
            iterations=1,
        )
        # ETC scheduler estimating over deterministic deltas, while tasks
        # still execute stochastically: build system on PET but swap the
        # estimator's model to ETC.
        sys_etc = ServerlessSystem(pet, "MM", pruning=PruningConfig.paper_default(), seed=1)
        sys_etc.estimator.model = etc
        sys_etc.run(tasks_b)

        res_pet = pet_sys.result(trimmed_slice(pet_sys.tasks, SPEC.trim_count))
        res_etc = sys_etc.result(trimmed_slice(sys_etc.tasks, SPEC.trim_count))
        show(
            f"probabilistic PET pruning: {res_pet.robustness_pct:5.1f}% | "
            f"deterministic ETC pruning: {res_etc.robustness_pct:5.1f}%"
        )
        assert res_pet.total > 0 and res_etc.total > 0


class TestHeterogeneityKinds:
    """§I taxonomy: the pruning gain across inconsistent / consistent /
    homogeneous execution-time structure (same aggregate load)."""

    @pytest.mark.parametrize("kind", ["inconsistent", "consistent", "homogeneous"])
    def test_kind(self, benchmark, show, kind):
        pet = pet_matrix(kind)
        tasks_a = generate_workload(SPEC, pet, np.random.default_rng(77))
        tasks_b = generate_workload(SPEC, pet, np.random.default_rng(77))

        def run_pair():
            base = ServerlessSystem(pet, "MM", seed=1)
            base.run(tasks_a)
            pruned = ServerlessSystem(pet, "MM", pruning=PruningConfig.paper_default(), seed=1)
            pruned.run(tasks_b)
            return base, pruned

        base, pruned = benchmark.pedantic(run_pair, rounds=1, iterations=1)
        b = base.result(trimmed_slice(base.tasks, SPEC.trim_count)).robustness_pct
        p = pruned.result(trimmed_slice(pruned.tasks, SPEC.trim_count)).robustness_pct
        show(f"heterogeneity={kind:13s}: baseline {b:5.1f}% → pruned {p:5.1f}% ({p - b:+.1f} pp)")
        assert p > b - 3.0


class TestQueueSlotSweep:
    """Machine-queue slots bound how much work is committed ahead of the
    pruner; the paper's batch-mode design assumes small queues."""

    @pytest.mark.parametrize("slots", [1, 4, 16])
    def test_slots(self, benchmark, show, slots):
        pet = pet_matrix()
        tasks = generate_workload(SPEC, pet, np.random.default_rng(88))

        sys = benchmark.pedantic(
            lambda: _run_with_slots(pet, tasks, slots), rounds=1, iterations=1
        )
        res = sys.result(trimmed_slice(sys.tasks, SPEC.trim_count))
        show(f"queue slots={slots:2d}: pruned robustness {res.robustness_pct:5.1f}%")
        assert res.total > 0


def _run_with_slots(pet, tasks, slots):
    sys = ServerlessSystem(
        pet, "MM", pruning=PruningConfig.paper_default(), queue_limit=slots, seed=1
    )
    sys.run(list(tasks) if all(t.status.value == "pending" for t in tasks) else tasks)
    return sys


class TestKPBSweep:
    """KPB's k interpolates between MET (k→0) and MCT (k=1)."""

    @pytest.mark.parametrize("k", [0.125, 0.25, 0.5, 1.0])
    def test_k(self, benchmark, show, k):
        from repro.heuristics import KPB

        pet = pet_matrix()
        tasks = generate_workload(SPEC, pet, np.random.default_rng(99))

        def run():
            sys = ServerlessSystem(
                pet, KPB(k=k), pruning=PruningConfig.drop_only(), seed=1
            )
            sys.run(tasks)
            return sys

        sys = benchmark.pedantic(run, rounds=1, iterations=1)
        res = sys.result(trimmed_slice(sys.tasks, SPEC.trim_count))
        show(f"KPB k={k:5.3f}: robustness {res.robustness_pct:5.1f}%")
        assert res.total > 0
