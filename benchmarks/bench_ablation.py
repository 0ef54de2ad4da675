"""Ablation benches for the design choices the paper calls out.

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


def _run(model, pruning, tasks, *, seed=1):
    sys = ServerlessSystem(model, "MM", pruning=pruning, seed=seed)
    sys.run(tasks)
    return sys


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
