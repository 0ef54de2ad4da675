"""The incremental estimation layer against the from-scratch reference.

The prefix-convolution cache must be *invisible*: every chance of
success it reports has to be exactly what a full Eq. 1 reconvolution
would produce, no matter how the machine queues mutate or time advances.
These tests drive real simulations and hand-built scenarios, comparing
the incremental estimator against ``memoize=False`` references with
strict equality (not approx) — the cache replays identical float
operations, so the values must match bit for bit.
"""

import numpy as np
import pytest

from repro.core.config import PruningConfig, ToggleMode
from repro.experiments.campaign import level_spec
from repro.experiments.runner import pet_matrix
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.task import Task
from repro.stochastic.pet import PETMatrix, generate_pet_matrix
from repro.stochastic.pmf import PMF
from repro.system.completion import CompletionEstimator
from repro.system.serverless import ServerlessSystem
from repro.workload import WorkloadSpec, generate_workload
from repro.workload.spec import ArrivalPattern


def put(cluster, sim, machine_id, i, ttype=0, duration=10.0, deadline=1000.0):
    t = Task(task_id=i, task_type=ttype, arrival=0.0, deadline=deadline)
    t.mark_mapped(machine_id, sim.now)
    cluster[machine_id].dispatch(t, sim, lambda *a: duration, lambda *a: None)
    return t


@pytest.fixture
def pet():
    """2 task types × 2 machines with non-trivial stochastic supports."""
    return generate_pet_matrix(2, 2, seed=42, mean_range=(4.0, 9.0), samples_per_cell=150)


def assert_chains_equal(est_inc, est_ref, cluster, now):
    for machine in cluster.machines:
        a = est_inc._pct_chain(machine, now)
        b = est_ref._pct_chain(machine, now)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.offset == y.offset
            assert x.tail == y.tail
            assert np.array_equal(x.probs, y.probs)


class TestClusterWideQueries:
    """The cluster-wide pipeline must be a pure batching of the
    per-machine queries: same values, either memoize mode."""

    def _loaded_cluster(self, pet, mode):
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        est = CompletionEstimator(pet, memoize=mode)
        for i in range(5):
            put(cluster, sim, i % 2, i, ttype=i % 2, deadline=12.0 + 6 * i)
        return cluster, est

    @pytest.mark.parametrize("mode", [True, False])
    def test_cluster_queue_chances_matches_per_machine(self, pet, mode):
        cluster, est = self._loaded_cluster(pet, mode)
        per_machine = [
            [c for _, c in est.queue_chances(m, 0.0)] for m in cluster.machines
        ]
        got = est.cluster_queue_chances(cluster.machines, 0.0)
        assert [list(map(float, g)) for g in got] == per_machine

    @pytest.mark.parametrize("mode", [True, False])
    def test_queue_chances_start_is_suffix_of_full(self, pet, mode):
        cluster, est = self._loaded_cluster(pet, mode)
        machine = cluster[0]
        full = est.queue_chances(machine, 0.0)
        for start in range(len(machine.queue) + 1):
            part = est.queue_chances(machine, 0.0, start=start)
            assert part == full[start:]
            raw = est.queue_chances_suffix(machine, 0.0, start=start)
            assert [float(c) for c in raw] == [c for _, c in part]

    @pytest.mark.parametrize("mode", [True, False])
    def test_chances_for_pairs_dedupe_matches_pointwise(self, pet, mode):
        cluster, est = self._loaded_cluster(pet, mode)
        probes = [
            Task(task_id=100 + k, task_type=k % 2, arrival=0.0, deadline=10.0 + 3 * k)
            for k in range(6)
        ]
        # Duplicated (type, machine) pairs on purpose.
        pairs = [(t, cluster.machines[k % 2]) for k, t in enumerate(probes)]
        got = est.chances_for_pairs(pairs, 0.0)
        want = [est.chance_of_success(t, m, 0.0) for t, m in pairs]
        assert [float(c) for c in got] == want

    def test_cluster_expected_available_matches_per_machine(self, pet):
        cluster, est = self._loaded_cluster(pet, True)
        got = est.cluster_expected_available(cluster.machines, 2.5)
        want = [est.expected_available(m, 2.5) for m in cluster.machines]
        assert got.tolist() == want

    def test_cluster_query_identical_across_modes(self, pet):
        results = {}
        for mode in (True, False):
            cluster, est = self._loaded_cluster(pet, mode)
            results[mode] = [
                list(map(float, g))
                for g in est.cluster_queue_chances(cluster.machines, 1.5)
            ]
        assert results[True] == results[False]


class TestExactEquivalence:
    def test_collapsed_conditioning_is_not_reused(self):
        """A running-task belief whose conditioning collapses to
        ``delta(now)`` (kept mass below the epsilon floor) tracks the
        clock itself — the cached base must be rebuilt at every new
        ``now``, not reused because the cut index happens to match."""
        pmf = PMF([1.0 - 1e-13, 1e-13])
        pet = PETMatrix([[pmf]], np.array([[pmf.finite_mean()]]))
        cluster = Cluster.heterogeneous(1)
        sim = Simulator()
        inc = CompletionEstimator(pet, memoize=True)
        ref = CompletionEstimator(pet, memoize=False)
        put(cluster, sim, 0, 0, duration=1.0)
        for now in (0.5, 0.9):
            assert inc.expected_release(cluster[0], now) == ref.expected_release(
                cluster[0], now
            )
            assert_chains_equal(inc, ref, cluster, now)

    def test_mutation_sequence_matches_reference(self, pet):
        """Enqueues, drops, time advance, starts: every step bit-exact."""
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        inc = CompletionEstimator(pet, memoize=True)
        ref = CompletionEstimator(pet, memoize=False)

        tasks = [put(cluster, sim, 0, i, ttype=i % 2) for i in range(5)]
        assert_chains_equal(inc, ref, cluster, 0.0)
        # Time advances: re-anchor, no reconvolution...
        assert_chains_equal(inc, ref, cluster, 0.7)
        assert_chains_equal(inc, ref, cluster, 3.3)
        # ...mid-queue drop: suffix reconvolved.
        cluster[0].remove(tasks[2])
        assert_chains_equal(inc, ref, cluster, 3.3)
        # ...enqueue: one-step extension.
        put(cluster, sim, 0, 99, ttype=1)
        assert_chains_equal(inc, ref, cluster, 4.1)
        # ...batch removal.
        cluster[0].remove_many([tasks[1], tasks[4]])
        assert_chains_equal(inc, ref, cluster, 5.9)

    def test_full_simulation_outcomes_identical(self, pet):
        """End-to-end: incremental and uncached runs are identical."""
        spec = WorkloadSpec(num_tasks=150, time_span=80.0, num_task_types=2)

        def run(mode):
            tasks = generate_workload(spec, pet, np.random.default_rng(5))
            system = ServerlessSystem(
                pet, "MM", pruning=PruningConfig.paper_default(), memoize=mode, seed=9
            )
            system.run(tasks)
            r = system.result()
            return (r.on_time, r.late, r.dropped_missed, r.dropped_proactive,
                    r.defer_decisions, r.makespan)

        assert run(True) == run(False)

    def test_chances_identical_at_every_event(self, pet):
        """Shadow estimator: at every task event of a live simulation the
        incremental chances equal an uncached estimator's, exactly."""
        spec = WorkloadSpec(num_tasks=60, time_span=40.0, num_task_types=2)
        tasks = generate_workload(spec, pet, np.random.default_rng(8))
        ref = CompletionEstimator(pet, memoize=False)
        checked = {"n": 0}

        def observer(event, task, now):
            est = system.estimator
            for machine in system.cluster.machines:
                got = est.queue_chances(machine, now)
                want = ref.queue_chances(machine, now)
                assert [c for _, c in got] == [c for _, c in want]
            probe = Task(task_id=10_000, task_type=0, arrival=now, deadline=now + 15.0)
            grid = est.chances_for([probe], system.cluster.machines, now)
            for j, machine in enumerate(system.cluster.machines):
                assert grid[0, j] == ref.chance_of_success(probe, machine, now)
            checked["n"] += 1

        system = ServerlessSystem(
            pet, "MM", pruning=PruningConfig.paper_default(), seed=3, observer=observer
        )
        system.run(tasks)
        assert checked["n"] > 50


class TestIncrementalInvalidations:
    def test_enqueue_costs_one_convolution(self, pet):
        cluster = Cluster.heterogeneous(1)
        sim = Simulator()
        est = CompletionEstimator(pet)
        for i in range(4):
            put(cluster, sim, 0, i)
        est.availability_pct(cluster[0], 0.0)
        convs = est.convolutions
        put(cluster, sim, 0, 99)
        est.availability_pct(cluster[0], 0.0)
        assert est.convolutions == convs + 1

    def test_mid_queue_drop_reconvolves_only_suffix(self, pet):
        cluster = Cluster.heterogeneous(1)
        sim = Simulator()
        est = CompletionEstimator(pet)
        # Alternate types so the post-drop suffix is a *novel* type
        # sequence the §V-A product cache cannot shortcut.
        tasks = [put(cluster, sim, 0, i, ttype=i % 2) for i in range(6)]
        est.availability_pct(cluster[0], 0.0)  # queue: tasks 1..5
        convs = est.convolutions
        cluster[0].remove(tasks[3])  # queue index 2 of 5
        est.availability_pct(cluster[0], 0.0)
        # entries behind the dropped task: positions 2, 3 (4 queued left)
        assert est.convolutions == convs + 2

    def test_mid_queue_drop_replays_memoized_products(self, pet):
        """Uniform-type queue: the re-convolved suffix is a task-type
        product the §V-A cache has already materialized, so the drop
        costs zero convolutions — and the chain still matches the
        from-scratch reference bit for bit."""
        cluster = Cluster.heterogeneous(1)
        sim = Simulator()
        est = CompletionEstimator(pet)
        ref = CompletionEstimator(pet, memoize=False)
        tasks = [put(cluster, sim, 0, i) for i in range(6)]
        est.availability_pct(cluster[0], 0.0)
        convs = est.convolutions
        cluster[0].remove(tasks[3])
        est.availability_pct(cluster[0], 0.0)
        assert est.convolutions == convs
        assert_chains_equal(est, ref, cluster, 0.0)

    def test_untouched_machine_is_pure_hit_across_time(self, pet):
        """While the running task's conditioning cut is unchanged (PET
        offsets are >= 1, so nothing is ruled out before now=1), a clock
        tick re-anchors the chain without any convolution."""
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        est = CompletionEstimator(pet)
        for i in range(3):
            put(cluster, sim, 0, i)
        est.availability_pct(cluster[0], 0.0)
        convs, hits = est.convolutions, est.cache_hits
        est.availability_pct(cluster[0], 0.9)
        assert est.convolutions == convs
        assert est.cache_hits > hits

    def test_conditioning_cross_rebuilds_and_matches(self, pet):
        """Once `now` rules out early completions of the running task, the
        base genuinely changes; the rebuild must match the reference."""
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        est = CompletionEstimator(pet)
        for i in range(3):
            put(cluster, sim, 0, i)
        est.availability_pct(cluster[0], 0.0)
        ref = CompletionEstimator(pet, memoize=False)
        assert_chains_equal(est, ref, cluster, 6.0)

    def test_defer_check_promotes_into_chain(self, pet):
        """pct_for_new immediately followed by a dispatch of that type
        reuses the product as the chain extension (no extra convolution)."""
        cluster = Cluster.heterogeneous(1)
        sim = Simulator()
        est = CompletionEstimator(pet)
        put(cluster, sim, 0, 0)  # running
        put(cluster, sim, 0, 1)  # queued, keeps machine busy
        est.pct_for_new(0, cluster[0], 0.0)
        convs = est.convolutions
        put(cluster, sim, 0, 2, ttype=0)  # enqueue same type at same now
        est.availability_pct(cluster[0], 0.0)
        assert est.convolutions == convs  # promotion, not reconvolution
        # and the promoted chain matches the reference exactly
        ref = CompletionEstimator(pet, memoize=False)
        assert_chains_equal(est, ref, cluster, 0.0)

    def test_empty_queue_chain(self, pet):
        """Empty-queue machines: trivial chains, batched queries included."""
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        est = CompletionEstimator(pet)
        # Idle machine: chain is a single delta at `now`.
        chain = est._pct_chain(cluster[0], 5.0)
        assert len(chain) == 1
        assert chain[0].support_size == 1 and chain[0].min_time == 5.0
        assert est.queue_chances(cluster[0], 5.0) == []
        # Running task, empty queue.
        put(cluster, sim, 1, 0)
        chain = est._pct_chain(cluster[1], 0.0)
        assert len(chain) == 1
        assert est.queue_chances(cluster[1], 0.0) == []
        # Batched grid over both still answers (uses pct_for_new).
        probe = Task(task_id=1, task_type=0, arrival=0.0, deadline=30.0)
        grid = est.chances_for([probe], cluster.machines, 0.0)
        assert grid.shape == (1, 2)
        ref = CompletionEstimator(pet, memoize=False)
        for j, m in enumerate(cluster.machines):
            assert grid[0, j] == ref.chance_of_success(probe, m, 0.0)


class TestBatchedQueries:
    def test_pairs_match_pointwise(self, pet):
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        est = CompletionEstimator(pet)
        put(cluster, sim, 0, 0)
        put(cluster, sim, 1, 1, ttype=1)
        probes = [
            Task(task_id=10 + k, task_type=k % 2, arrival=0.0, deadline=8.0 + 3 * k)
            for k in range(4)
        ]
        pairs = [(t, cluster.machines[k % 2]) for k, t in enumerate(probes)]
        got = est.chances_for_pairs(pairs, 1.0)
        ref = CompletionEstimator(pet, memoize=False)
        for g, (t, m) in zip(got, pairs):
            assert g == ref.chance_of_success(t, m, 1.0)

    def test_grid_shape_and_type_sharing(self, pet):
        cluster = Cluster.heterogeneous(2)
        est = CompletionEstimator(pet)
        probes = [
            Task(task_id=k, task_type=0, arrival=0.0, deadline=10.0 + k) for k in range(3)
        ]
        convs_before = est.convolutions + est.convolutions_avoided
        grid = est.chances_for(probes, cluster.machines, 0.0)
        assert grid.shape == (3, 2)
        # Same type on the same machine shares one availability ⊛ PET
        # product: 2 machines -> exactly 2 products for 6 cells (the grid
        # deduplicates (task type, machine) pairs before any PCT work).
        assert (est.convolutions + est.convolutions_avoided) - convs_before == 2
        # A repeat query re-anchors the shared products out of the cache.
        grid2 = est.chances_for(probes, cluster.machines, 0.0)
        assert np.array_equal(grid, grid2)
        assert est.cache_hits >= 2


class TestModesAndStats:
    def test_invalid_memoize_mode_rejected(self, pet):
        """Only a bool selects a mode: truthy strings such as the removed
        mode names must not silently select the incremental cache."""
        for value in ('turbo', 'keyed', 'incremental', '', 1, 0, None):
            with pytest.raises(ValueError, match=repr(value)):
                CompletionEstimator(pet, memoize=value)
            with pytest.raises(ValueError, match=repr(value)):
                ServerlessSystem(pet, "MM", memoize=value)
        assert CompletionEstimator(pet, memoize=True).memoize
        assert not CompletionEstimator(pet, memoize=False).memoize

    def test_invalidation_counter_moves(self, pet):
        cluster = Cluster.heterogeneous(1)
        sim = Simulator()
        est = CompletionEstimator(pet)
        put(cluster, sim, 0, 0)
        est.availability_pct(cluster[0], 0.0)  # subscribes
        inv = est.invalidations
        put(cluster, sim, 0, 1)
        assert est.invalidations > inv

    def test_result_carries_estimator_stats(self, pet):
        spec = WorkloadSpec(num_tasks=40, time_span=30.0, num_task_types=2)
        tasks = generate_workload(spec, pet, np.random.default_rng(2))
        system = ServerlessSystem(pet, "MM", pruning=PruningConfig.paper_default(), seed=1)
        result = system.run(tasks)
        stats = result.estimator_stats
        assert stats["hits"] > 0
        assert stats["convolutions"] > 0
        assert stats["convolutions_avoided"] > 0
        assert stats["invalidations"] > 0



def _both_modes(spec, pruning, workload_seed, seed):
    """The same seeded MM trial under the incremental cache and the oracle."""
    pet = pet_matrix()
    systems = {}
    for mode in (True, False):
        tasks = generate_workload(spec, pet, np.random.default_rng(workload_seed))
        systems[mode] = ServerlessSystem(pet, "MM", pruning=pruning, memoize=mode, seed=seed)
        systems[mode].run(tasks)
    return systems


def _outcome(system):
    r = system.result()
    return (r.on_time, r.late, r.dropped_missed, r.dropped_proactive,
            r.defer_decisions, r.makespan, system.allocator.mapping_events)


class TestMemoizationPayoff:
    """What the cache buys on the paper's own workloads (§V-A,
    "memorization of partial results"): far fewer convolutions than the
    oracle for exactly the same outcomes.  Work counters, not wall-clock,
    so the gates hold on any hardware."""

    def test_fig7_cell_ratio_and_identical_outcomes(self):
        """Fig. 7's dropping cell (15k spiky, scale 0.4, MM, drop-only
        always on), two workload seeds: per-trial outcomes match the
        oracle exactly and the oracle pays >= 3x the convolutions."""
        spec = level_spec("15k", ArrivalPattern.SPIKY, 0.4)
        pruning = PruningConfig.drop_only(ToggleMode.ALWAYS)
        trials = [_both_modes(spec, pruning, workload_seed, seed=2) for workload_seed in (7, 107)]
        for systems in trials:
            assert _outcome(systems[True]) == _outcome(systems[False])
        naive = sum(systems[False].estimator.convolutions for systems in trials)
        incremental = sum(systems[True].estimator.convolutions for systems in trials)
        ratio = naive / incremental
        assert ratio >= 3.0, f"naive/incremental convolutions {ratio:.2f}x < 3x"

    def test_paper_default_cache_hits_and_identical_outcomes(self):
        """The 450-task paper-default workload (drop + defer): the cache
        hits, avoids more convolutions than it performs, and the oracle
        never hits — with identical outcomes."""
        spec = WorkloadSpec(num_tasks=450, time_span=250.0)
        systems = _both_modes(spec, PruningConfig.paper_default(), 500, seed=1)
        stats = systems[True].estimator.cache_stats()
        assert stats["hits"] > 0
        assert stats["convolutions_avoided"] > stats["convolutions"]
        assert systems[False].estimator.cache_hits == 0
        assert _outcome(systems[True]) == _outcome(systems[False])
        assert systems[True].estimator.convolutions < systems[False].estimator.convolutions
