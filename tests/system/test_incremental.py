"""The incremental estimation layer against the from-scratch reference.

The product caches must be *invisible*: every chance of success they
report has to be exactly what the ``memoize=False`` oracle computes from
scratch, no matter how the machine queues mutate or time advances.
These tests drive real simulations and hand-built scenarios, comparing
the incremental estimator against ``memoize=False`` references with
strict equality (not approx) — both evaluate the same float operations,
so the values must match bit for bit.
"""

import numpy as np
import pytest

from repro.core.config import PruningConfig, ToggleMode
from repro.experiments.campaign import level_spec
from repro.experiments.runner import pet_matrix
from repro.heuristics import base as heuristics_base
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.task import Task
from repro.stochastic.pet import PETMatrix, generate_pet_matrix
from repro.stochastic.pmf import PMF
from repro.system.completion import CompletionEstimator
from repro.system.serverless import ServerlessSystem
from repro.workload import WorkloadSpec, generate_workload
from repro.workload.spec import ArrivalPattern

from tests.conftest import make_deterministic_pet


def put(cluster, sim, machine_id, i, ttype=0, duration=10.0, deadline=1000.0):
    t = Task(task_id=i, task_type=ttype, arrival=0.0, deadline=deadline)
    t.mark_mapped(machine_id, sim.now)
    cluster[machine_id].dispatch(t, sim, lambda *a: duration, lambda *a: None)
    return t


@pytest.fixture
def pet():
    """2 task types × 2 machines with non-trivial stochastic supports."""
    return generate_pet_matrix(2, 2, seed=42, mean_range=(4.0, 9.0), samples_per_cell=150)


def assert_chances_equal(est_inc, est_ref, cluster, now):
    """Queued-task chances and new-task chances of every machine equal
    the oracle's bit for bit."""
    probes = [
        Task(task_id=10_000 + k, task_type=k, arrival=now, deadline=now + 10.0 + 15.0 * k)
        for k in range(est_inc.model.num_task_types)
    ]
    for machine in cluster.machines:
        assert np.array_equal(
            est_inc.queue_chances_suffix(machine, now),
            est_ref.queue_chances_suffix(machine, now),
        )
    assert np.array_equal(
        est_inc.chances_for(probes, cluster.machines, now),
        est_ref.chances_for(probes, cluster.machines, now),
    )


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
            assert_chances_equal(inc, ref, cluster, now)

    def test_mutation_sequence_matches_reference(self, pet):
        """Enqueues, drops, time advance, starts: every step bit-exact."""
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        inc = CompletionEstimator(pet, memoize=True)
        ref = CompletionEstimator(pet, memoize=False)

        tasks = [put(cluster, sim, 0, i, ttype=i % 2) for i in range(5)]
        assert_chances_equal(inc, ref, cluster, 0.0)
        # Time advances: products kept, no reconvolution...
        assert_chances_equal(inc, ref, cluster, 0.7)
        assert_chances_equal(inc, ref, cluster, 3.3)
        # ...mid-queue drop: suffix reconvolved.
        cluster[0].remove(tasks[2])
        assert_chances_equal(inc, ref, cluster, 3.3)
        # ...enqueue: one-step extension.
        put(cluster, sim, 0, 99, ttype=1)
        assert_chances_equal(inc, ref, cluster, 4.1)
        # ...batch removal.
        cluster[0].remove_many([tasks[1], tasks[4]])
        assert_chances_equal(inc, ref, cluster, 5.9)

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
    """Work counters of the product cache under queue mutations and
    clock ticks."""

    def test_enqueue_costs_one_convolution(self, pet):
        cluster = Cluster.heterogeneous(1)
        sim = Simulator()
        est = CompletionEstimator(pet)
        for i in range(4):
            put(cluster, sim, 0, i)
        est.queue_chances(cluster[0], 0.0)
        convs = est.convolutions
        put(cluster, sim, 0, 99)
        est.queue_chances(cluster[0], 0.0)
        assert est.convolutions == convs + 1

    def test_mid_queue_drop_reconvolves_only_suffix(self, pet):
        cluster = Cluster.heterogeneous(1)
        sim = Simulator()
        est = CompletionEstimator(pet)
        # Alternate types so the post-drop suffix is a *novel* type
        # sequence the §V-A product cache cannot shortcut.
        tasks = [put(cluster, sim, 0, i, ttype=i % 2) for i in range(6)]
        est.queue_chances(cluster[0], 0.0)  # queue: tasks 1..5
        convs = est.convolutions
        cluster[0].remove(tasks[3])  # queue index 2 of 5
        est.queue_chances(cluster[0], 0.0)
        # products behind the dropped task: positions 2, 3 (4 queued left)
        assert est.convolutions == convs + 2

    def test_mid_queue_drop_replays_memoized_products(self, pet):
        """Uniform-type queue: the post-drop suffix is a task-type
        product the §V-A cache has already materialized, so the drop
        costs zero convolutions — and the chances still match the
        from-scratch reference bit for bit."""
        cluster = Cluster.heterogeneous(1)
        sim = Simulator()
        est = CompletionEstimator(pet)
        ref = CompletionEstimator(pet, memoize=False)
        tasks = [put(cluster, sim, 0, i) for i in range(6)]
        est.queue_chances(cluster[0], 0.0)
        convs = est.convolutions
        cluster[0].remove(tasks[3])
        est.queue_chances(cluster[0], 0.0)
        assert est.convolutions == convs
        assert_chances_equal(est, ref, cluster, 0.0)

    def test_untouched_machine_is_pure_hit_across_time(self, pet):
        """While the running task's conditioning cut is unchanged (PET
        offsets are >= 1, so nothing is ruled out before now=1), a clock
        tick answers the queue from the memo without any convolution."""
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        est = CompletionEstimator(pet)
        for i in range(3):
            put(cluster, sim, 0, i)
        est.queue_chances(cluster[0], 0.0)
        convs, hits = est.convolutions, est.cache_hits
        est.queue_chances(cluster[0], 0.9)
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
        est.queue_chances(cluster[0], 0.0)
        ref = CompletionEstimator(pet, memoize=False)
        assert_chances_equal(est, ref, cluster, 6.0)

    def test_enqueue_after_a_new_task_query_costs_one_product(self, pet):
        """The defer check reads the machine's availability, not a
        per-type product, so the enqueue it precedes costs the queue
        exactly one new product; a second machine of the same type that
        receives the same queue replays every product from the product
        cache.  Both answer the oracle's chances exactly."""
        cluster = Cluster.homogeneous(2)
        sim = Simulator()
        est = CompletionEstimator(pet)
        for m in (0, 1):
            put(cluster, sim, m, 10 * m, ttype=0)  # running
            put(cluster, sim, m, 10 * m + 1, ttype=1)  # queued
        probe = Task(task_id=50, task_type=0, arrival=0.0, deadline=20.0)
        est.chance_of_success(probe, cluster[0], 0.0)
        assert est.convolutions == 1  # the availability b ⊛ pet_1
        convs = est.convolutions
        put(cluster, sim, 0, 2, ttype=0)  # enqueue the probed type
        est.queue_chances(cluster[0], 0.0)
        assert est.convolutions == convs + 1  # Q = pet_1 ⊛ pet_0, once
        put(cluster, sim, 1, 12, ttype=0)
        convs, avoided = est.convolutions, est.convolutions_avoided
        est.queue_chances(cluster[1], 0.0)
        assert est.convolutions == convs
        assert est.convolutions_avoided == avoided + 2  # head PET + cache hit
        ref = CompletionEstimator(pet, memoize=False)
        assert_chances_equal(est, ref, cluster, 0.0)

    def test_empty_queue_chain(self, pet):
        """Empty-queue machines: trivial chains, batched queries included."""
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        est = CompletionEstimator(pet)
        # Idle machine: chain is a single delta at `now`.
        chain = est._build_chain(cluster[0], 5.0)
        assert len(chain) == 1
        assert chain[0].support_size == 1 and chain[0].min_time == 5.0
        assert est.queue_chances(cluster[0], 5.0) == []
        # Running task, empty queue.
        put(cluster, sim, 1, 0)
        chain = est._build_chain(cluster[1], 0.0)
        assert len(chain) == 1
        assert est.queue_chances(cluster[1], 0.0) == []
        # Batched grid over both still answers (the PET is the product).
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
        """A grid reads one availability per machine, whatever the task
        types: the first grid builds two forms (one per machine; only
        the loaded machine's costs a convolution), a grid of other types
        and deadlines builds none, and every cell equals the oracle's."""
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        put(cluster, sim, 0, 100)  # running
        put(cluster, sim, 0, 101, ttype=1)  # queued
        est = CompletionEstimator(pet)
        ref = CompletionEstimator(pet, memoize=False)
        probes = [
            Task(task_id=k, task_type=k % 2, arrival=0.0, deadline=10.0 + k) for k in range(3)
        ]
        grid = est.chances_for(probes, cluster.machines, 0.0)
        assert grid.shape == (3, 2)
        assert (est.cache_misses, est.cache_hits, est.convolutions) == (2, 0, 1)
        assert np.array_equal(grid, ref.chances_for(probes, cluster.machines, 0.0))
        others = [
            Task(task_id=10 + k, task_type=1 - k % 2, arrival=0.0, deadline=7.0 + 2 * k)
            for k in range(4)
        ]
        grid2 = est.chances_for(others, cluster.machines, 0.0)
        assert grid2.shape == (4, 2)
        assert (est.cache_misses, est.cache_hits, est.convolutions) == (2, 2, 1)
        assert np.array_equal(grid2, ref.chances_for(others, cluster.machines, 0.0))


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
        est.expected_available(cluster[0], 0.0)  # subscribes
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


class TestDeferRoundsReuseTheEvent:
    """One batch mapping event over three one-slot machines, its rounds
    counted: a round that dispatches nothing leaves every machine as it
    was, so the next round reuses the event's arrays and Eq.-2 inputs.
    Work counters, not wall-clock."""

    #: Type 0 runs in 2 and type 1 in 10 on every machine.
    MEANS = np.array([[2.0, 2.0, 2.0], [10.0, 10.0, 10.0]])

    def _event(self, monkeypatch, tasks):
        system = ServerlessSystem(
            make_deterministic_pet(self.MEANS), "MM",
            pruning=PruningConfig.defer_only(0.5), queue_limit=1, seed=0,
        )
        allocator = system.allocator
        for task in tasks:
            allocator.accounting.record_arrival(task)
            allocator.batch_queue.append(task)
        counts = {"exec_means": 0, "avail": 0, "forms": [], "plans": 0}
        exec_means = heuristics_base._exec_mean_matrix
        avail = CompletionEstimator.cluster_expected_available
        build_form = CompletionEstimator._build_availability
        plan = heuristics_base.TwoPhaseBatchHeuristic.plan

        def count_exec_means(*args):
            counts["exec_means"] += 1
            return exec_means(*args)

        def count_avail(self, machines, now):
            counts["avail"] += 1
            return avail(self, machines, now)

        def count_forms(self, machine, *args):
            counts["forms"].append(machine.machine_id)
            return build_form(self, machine, *args)

        def count_plans(self, *args):
            counts["plans"] += 1
            return plan(self, *args)

        monkeypatch.setattr(heuristics_base, "_exec_mean_matrix", count_exec_means)
        monkeypatch.setattr(CompletionEstimator, "cluster_expected_available", count_avail)
        monkeypatch.setattr(CompletionEstimator, "_build_availability", count_forms)
        monkeypatch.setattr(heuristics_base.TwoPhaseBatchHeuristic, "plan", count_plans)
        allocator.kick()
        return allocator, counts

    @staticmethod
    def _hopeless(n, first_id=0):
        """Type-1 tasks due at 1.0: chance 0 anywhere, always deferred."""
        return [Task(task_id=first_id + i, task_type=1, arrival=0.0, deadline=1.0) for i in range(n)]

    def test_all_defer_event_builds_once(self, monkeypatch):
        allocator, counts = self._event(monkeypatch, self._hopeless(9))
        assert allocator.accounting.total_defers == 9
        assert counts["plans"] == 3  # three slots a round, nine tasks
        assert counts["exec_means"] == 1
        assert counts["avail"] == 1
        assert sorted(counts["forms"]) == [0, 1, 2]

    def test_one_dispatch_costs_one_rebuild(self, monkeypatch):
        viable = Task(task_id=100, task_type=0, arrival=0.0, deadline=50.0)
        allocator, counts = self._event(monkeypatch, [viable, *self._hopeless(9)])
        assert viable.machine_id is not None and allocator.accounting.total_defers == 9
        assert counts["plans"] == 4
        assert counts["exec_means"] == 1
        assert counts["avail"] == 2  # the build and the one rebuild
        # Once per machine, and once more on the machine the dispatch moved.
        assert sorted(counts["forms"]) == sorted([0, 1, 2, viable.machine_id])
