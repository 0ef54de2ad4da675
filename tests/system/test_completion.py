"""Tests for the completion estimator (Eq. 1/2 + memoization)."""


import numpy as np
import pytest

from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.machine import Machine
from repro.sim.task import Task
from repro.stochastic.etc import ETCMatrix
from repro.stochastic.pet import PETMatrix
from repro.stochastic.pmf import PMF
from repro.system.completion import CompletionEstimator

from tests.conftest import make_deterministic_pet


def put(cluster, sim, machine_id, i, ttype=0, duration=10.0, deadline=1000.0):
    t = Task(task_id=i, task_type=ttype, arrival=0.0, deadline=deadline)
    t.mark_mapped(machine_id, sim.now)
    cluster[machine_id].dispatch(t, sim, lambda *a: duration, lambda *a: None)
    return t


@pytest.fixture
def det_env():
    pet = make_deterministic_pet(np.array([[10.0, 4.0]]))
    cluster = Cluster.heterogeneous(2)
    return pet, cluster, Simulator(), CompletionEstimator(pet)


@pytest.fixture
def stoch_env():
    """One machine; exec time is 4 or 8 with equal probability."""
    pet = PETMatrix([[PMF.from_dict({4: 0.5, 8: 0.5})]])
    cluster = Cluster.heterogeneous(1)
    return pet, cluster, Simulator(), CompletionEstimator(pet)


class TestScalarView:
    def test_idle_machine_available_now(self, det_env):
        _, cluster, _, est = det_env
        assert est.expected_available(cluster[0], 5.0) == 5.0

    def test_running_task_adds_model_mean(self, det_env):
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        assert est.expected_available(cluster[0], 0.0) == pytest.approx(10.0)

    def test_queued_tasks_accumulate(self, det_env):
        _, cluster, sim, est = det_env
        for i in range(3):
            put(cluster, sim, 0, i)
        assert est.expected_available(cluster[0], 0.0) == pytest.approx(30.0)

    def test_expected_release(self, det_env):
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        put(cluster, sim, 0, 1)
        assert est.expected_release(cluster[0], 0.0) == pytest.approx(10.0)

    def test_conditioning_pushes_past_now(self, stoch_env):
        """At t=6 a running 4-or-8 task hasn't finished, so its remaining
        belief is 'completes at 8' — not the stale unconditioned mean 6."""
        _, cluster, sim, est = stoch_env
        put(cluster, sim, 0, 0, duration=8.0)
        assert est.expected_available(cluster[0], 6.0) == pytest.approx(8.0)


class TestProbabilisticView:
    def test_idle_availability_is_delta_now(self, det_env):
        _, cluster, _, est = det_env
        pct = est.availability_pct(cluster[0], 3.0)
        assert pct.support_size == 1
        assert pct.min_time == 3.0

    def test_pct_for_new_on_idle(self, stoch_env):
        _, cluster, _, est = stoch_env
        pct = est.pct_for_new(0, cluster[0], 0.0)
        assert pct.cdf_at(4.0) == pytest.approx(0.5)
        assert pct.cdf_at(8.0) == pytest.approx(1.0)

    def test_chain_matches_manual_convolution(self, stoch_env):
        pet, cluster, sim, est = stoch_env
        put(cluster, sim, 0, 0, duration=8.0)  # running
        put(cluster, sim, 0, 1)                # queued
        cell = pet.pmf(0, 0)
        expected = cell.shift(0.0).convolve(cell)  # running PCT ⊛ queued PET
        got = est.availability_pct(cluster[0], 0.0)
        assert got.allclose(expected)

    def test_chance_of_success_matches_cdf(self, stoch_env):
        _, cluster, _, est = stoch_env
        t = Task(task_id=5, task_type=0, arrival=0.0, deadline=6.0)
        # New task on idle machine: completes at 4 (p=.5) or 8 (p=.5).
        assert est.chance_of_success(t, cluster[0], 0.0) == pytest.approx(0.5)

    def test_queue_chances_in_fcfs_order(self, stoch_env):
        _, cluster, sim, est = stoch_env
        put(cluster, sim, 0, 0, duration=8.0)
        a = put(cluster, sim, 0, 1, deadline=8.0)
        b = put(cluster, sim, 0, 2, deadline=12.0)
        chances = est.queue_chances(cluster[0], 0.0)
        assert [t.task_id for t, _ in chances] == [1, 2]
        # a completes at 8/12/16 w.p. .25/.5/.25 → P(≤8) = .25
        assert chances[0][1] == pytest.approx(0.25)
        # b at 12..24: P(≤12)=.125
        assert chances[1][1] == pytest.approx(0.125)

    def test_horizon_truncation_is_pessimistic(self, stoch_env):
        pet, cluster, sim, _ = stoch_env
        est = CompletionEstimator(pet, horizon=6.0)
        put(cluster, sim, 0, 0, duration=8.0)
        t = Task(task_id=9, task_type=0, arrival=0.0, deadline=30.0)
        # everything beyond now+6 got folded into the tail → chance 0
        assert est.chance_of_success(t, cluster[0], 0.0) == pytest.approx(0.0)

    def test_running_conditioning_shifts_pct(self, stoch_env):
        _, cluster, sim, est = stoch_env
        put(cluster, sim, 0, 0, duration=8.0)
        pct = est.availability_pct(cluster[0], 5.0)
        # at t=5 the 4-outcome is ruled out
        assert pct.min_time >= 8.0
        assert pct.cdf_at(8.0) == pytest.approx(1.0)


class TestETCDegeneracy:
    def test_step_chance(self):
        etc = ETCMatrix(np.array([[10.0]]))
        cluster = Cluster.heterogeneous(1)
        est = CompletionEstimator(etc)
        ok = Task(task_id=0, task_type=0, arrival=0.0, deadline=10.0)
        bad = Task(task_id=1, task_type=0, arrival=0.0, deadline=9.9)
        assert est.chance_of_success(ok, cluster[0], 0.0) == 1.0
        assert est.chance_of_success(bad, cluster[0], 0.0) == 0.0


class TestMemoization:
    """Work counters of the estimator's memos: queue products, each
    machine's availability (the new-task form) and the running task's
    base are reused until their inputs change."""

    @staticmethod
    def probe(deadline=30.0, ttype=0):
        return Task(task_id=99, task_type=ttype, arrival=0.0, deadline=deadline)

    def test_chance_cache_hit(self, det_env):
        """A repeat query reads every machine's memoized availability:
        one hit per machine, no miss, no convolution, the same form."""
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        put(cluster, sim, 0, 1)
        first = est.chances_for([self.probe()], cluster.machines, 0.0)
        memos = [est._states[m.machine_id].avail_memo for m in cluster.machines]
        misses, hits, convs = est.cache_misses, est.cache_hits, est.convolutions
        again = est.chances_for([self.probe()], cluster.machines, 0.0)
        assert np.array_equal(first, again)
        assert est.cache_misses == misses
        assert est.cache_hits == hits + len(cluster.machines)
        assert est.convolutions == convs
        for memo, m in zip(memos, cluster.machines):
            assert est._states[m.machine_id].avail_memo is memo

    def test_queue_change_invalidates(self, det_env):
        """An enqueue retires the availability of the machine it touched
        (one miss) and of no other (one hit), and the rebuilt form gives
        the oracle's chances."""
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        est.chances_for([self.probe()], cluster.machines, 0.0)
        put(cluster, sim, 0, 1)  # version bump
        misses, hits = est.cache_misses, est.cache_hits
        got = est.chances_for([self.probe()], cluster.machines, 0.0)
        assert est.cache_misses == misses + 1
        assert est.cache_hits == hits + 1
        oracle = CompletionEstimator(est.model, memoize=False)
        assert np.array_equal(got, oracle.chances_for([self.probe()], cluster.machines, 0.0))

    def test_clock_tick_at_unchanged_cut_costs_no_convolution(self, det_env):
        """Advancing the clock keeps the products: while the running
        task's conditioning cut stays put, new-task chances cost zero
        convolutions and still equal a from-scratch estimator's."""
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        put(cluster, sim, 0, 1)
        est.chances_for([self.probe()], cluster.machines, 0.0)
        convs = est.convolutions
        got = est.chances_for([self.probe()], cluster.machines, 1.0)
        assert est.convolutions == convs
        fresh = CompletionEstimator(est.model, memoize=False)
        assert np.array_equal(got, fresh.chances_for([self.probe()], cluster.machines, 1.0))

    def test_memoize_off(self, det_env):
        pet, cluster, sim, _ = det_env
        est = CompletionEstimator(pet, memoize=False)
        put(cluster, sim, 0, 0)
        est.chances_for([self.probe()], cluster.machines, 0.0)
        est.chances_for([self.probe()], cluster.machines, 0.0)
        assert est.cache_hits == 0

    def test_every_type_shares_one_availability(self):
        """New tasks of any type and deadline read one availability per
        machine: the first query pays one convolution on the loaded
        machine, every later type and deadline costs none, and each
        answer equals the oracle's."""
        cells = [PMF.from_dict({k: 1.0 / n for k in range(2, 2 + n)}) for n in (3, 5, 7)]
        pet = PETMatrix([[c, c] for c in cells])
        cluster = Cluster.heterogeneous(2)
        sim = Simulator()
        est = CompletionEstimator(pet)
        oracle = CompletionEstimator(pet, memoize=False)
        put(cluster, sim, 0, 0, ttype=2)  # running
        put(cluster, sim, 0, 1, ttype=1)  # queued
        first = est.chances_for([self.probe(9.0, 0)], cluster.machines, 0.0)
        assert est.convolutions == 1  # A = b ⊛ pet_1; machine 1 is idle
        for deadline, ttype in [(12.0, 1), (15.0, 2), (7.0, 1), (20.0, 0)]:
            convs, hits = est.convolutions, est.cache_hits
            got = est.chances_for([self.probe(deadline, ttype)], cluster.machines, 0.0)
            assert est.convolutions == convs
            assert est.cache_hits == hits + len(cluster.machines)
            want = oracle.chances_for([self.probe(deadline, ttype)], cluster.machines, 0.0)
            assert np.array_equal(got, want)
        assert np.array_equal(
            first, oracle.chances_for([self.probe(9.0, 0)], cluster.machines, 0.0)
        )

    def test_results_identical_with_and_without_cache(self, stoch_env):
        pet, cluster, sim, _ = stoch_env
        put(cluster, sim, 0, 0, duration=8.0)
        put(cluster, sim, 0, 1)
        with_cache = CompletionEstimator(pet, memoize=True)
        without = CompletionEstimator(pet, memoize=False)
        t = Task(task_id=7, task_type=0, arrival=0.0, deadline=14.0)
        assert with_cache.chance_of_success(t, cluster[0], 0.0) == pytest.approx(
            without.chance_of_success(t, cluster[0], 0.0)
        )

    def test_cache_capacity_bounds_memory(self, monkeypatch):
        """The estimator's caches are real LRUs: bounded size, one eviction
        per insert once full (not the old clear-everything policy)."""
        import repro.system.completion as completion

        monkeypatch.setattr(completion, "CACHE_CAPACITY", 4)
        pet = PETMatrix([[PMF.from_dict({k: 1.0 / 30 for k in range(1, 31)})]])
        cluster = Cluster.heterogeneous(1)
        sim = Simulator()
        est = CompletionEstimator(pet)
        put(cluster, sim, 0, 0, duration=30.0)
        # Each clock tick inside the running task's support conditions it
        # at a new cut, i.e. a new conditioned-shape cache entry.
        probe = Task(task_id=1, task_type=0, arrival=0.0, deadline=40.0)
        for now in range(2, 22):
            est.chances_for([probe], cluster.machines, float(now))
        assert len(est._cond_cache) <= 4
        assert est.evictions >= 16

    def test_lru_evicts_coldest_not_everything(self, det_env):
        pet, _, _, _ = det_env
        from repro.system.completion import LRUCache

        lru = LRUCache(2)
        assert not lru.put("a", 1)
        assert not lru.put("b", 2)
        assert lru.get("a") == 1  # refresh "a"; "b" is now coldest
        assert lru.put("c", 3)
        assert "b" not in lru and "a" in lru and "c" in lru

    def test_lru_miss_leaves_order_alone(self):
        from repro.system.completion import LRUCache

        lru = LRUCache(3)
        assert not any(lru.put(k, (k,)) for k in "abc")
        assert lru.get("z") is None
        assert list(lru._data) == ["a", "b", "c"]
        assert len(lru) == 3

    def test_lru_hit_moves_key_to_most_recent(self):
        from repro.system.completion import LRUCache

        lru = LRUCache(3)
        for k in "abc":
            lru.put(k, (k,))
        assert lru.get("a") == ("a",)
        assert list(lru._data) == ["b", "c", "a"]

    def test_lru_eviction_order(self):
        """Inserts past capacity evict coldest-first, with hits and misses
        interleaved: the victims are exactly the least recently used."""
        from repro.system.completion import LRUCache

        lru = LRUCache(3)
        evicted = []
        reported = 0
        for step, k in enumerate("abcadbefa"):
            if lru.get(k) is None:
                before = set(lru._data)
                reported += lru.put(k, (step,))
                evicted.extend(sorted(before - set(lru._data)))
        # a b c fill; a hits; d evicts b; b misses and evicts c; e evicts
        # a; f evicts d; a misses and evicts b.
        assert evicted == ["b", "c", "a", "d", "b"]
        assert reported == 5
        assert list(lru._data) == ["e", "f", "a"]

    def test_cache_stats(self, det_env):
        _, cluster, _, est = det_env
        est.availability_pct(cluster[0], 0.0)
        stats = est.cache_stats()
        assert set(stats) == {
            "hits",
            "misses",
            "invalidations",
            "evictions",
            "convolutions",
            "convolutions_avoided",
            "chance_evaluations",
        }


class TestAvailabilityMemo:
    """``cluster_expected_available`` answers every query afresh (the batch
    planner's context holds a mapping event's availabilities): answers
    follow dispatches, the clock and added machines, and each is a new
    array the caller may accumulate into."""

    @staticmethod
    def count_walks(monkeypatch, est):
        """Count the per-machine scalar-chain walks the estimator makes."""
        calls = []
        walk = est._scalar_chain

        def counted(machine, now):
            calls.append(machine.machine_id)
            return walk(machine, now)

        monkeypatch.setattr(est, "_scalar_chain", counted)
        return calls

    def test_repeat_query_reuses_the_answer(self, det_env):
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        put(cluster, sim, 0, 1)
        first = est.cluster_expected_available(cluster.machines, 0.0)
        again = est.cluster_expected_available(cluster.machines, 0.0)
        assert again.tolist() == first.tolist() == [20.0, 0.0]

    def test_dispatch_invalidates(self, det_env):
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        est.cluster_expected_available(cluster.machines, 0.0)
        put(cluster, sim, 1, 1)  # version bump on machine 1
        avail = est.cluster_expected_available(cluster.machines, 0.0)
        assert avail.tolist() == [10.0, 4.0]

    def test_clock_tick_invalidates(self, det_env):
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        est.cluster_expected_available(cluster.machines, 0.0)
        avail = est.cluster_expected_available(cluster.machines, 3.0)
        assert avail.tolist() == [10.0, 3.0]  # the idle machine tracks the clock

    def test_add_machine_invalidates(self, det_env):
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        est.cluster_expected_available(cluster.machines, 0.0)
        cluster.add_machine(Machine(cluster.next_machine_id(), 1))
        avail = est.cluster_expected_available(cluster.machines, 0.0)
        assert avail.tolist() == [10.0, 0.0, 0.0]

    def test_mutating_the_answer_does_not_poison_the_memo(self, det_env):
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        first = est.cluster_expected_available(cluster.machines, 0.0)
        first += 100.0  # the batch planner accumulates into its copy
        assert est.cluster_expected_available(cluster.machines, 0.0).tolist() == [10.0, 0.0]

    def test_counters_equal_the_per_machine_walk(self, det_env):
        """A cluster query scores exactly the hits and misses of the
        per-machine scalar-chain walks."""
        pet, cluster, sim, est = det_env
        walker = CompletionEstimator(pet)

        def both(now):
            got = est.cluster_expected_available(cluster.machines, now)
            want = [walker._scalar_chain(m, now)[-1] for m in cluster.machines]
            assert got.tolist() == want

        put(cluster, sim, 0, 0)
        both(0.0)
        both(0.0)
        put(cluster, sim, 1, 1)
        both(0.0)
        both(0.0)
        both(2.0)
        both(2.0)
        cluster.add_machine(Machine(cluster.next_machine_id(), 0))
        both(2.0)
        both(2.0)
        assert est.cache_stats() == walker.cache_stats()
        assert est.cache_hits > 0 and est.cache_misses > 0

    def test_memoize_false_never_memoizes(self, det_env, monkeypatch):
        pet, cluster, sim, _ = det_env
        est = CompletionEstimator(pet, memoize=False)
        put(cluster, sim, 0, 0)
        walks = self.count_walks(monkeypatch, est)
        for _ in range(3):
            assert est.cluster_expected_available(cluster.machines, 0.0).tolist() == [10.0, 0.0]
        assert walks == [0, 1] * 3
        assert est.cache_hits == 0


class TestValidation:
    def test_bad_horizon(self, det_env):
        pet = det_env[0]
        with pytest.raises(ValueError):
            CompletionEstimator(pet, horizon=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"horizon": float("nan")},
            {"horizon": -1.0},
            {"max_support": 0},
            {"max_support": -5},
            {"max_support": 8.0},
        ],
        ids=lambda kwargs: "-".join(f"{k}={v!r}" for k, v in kwargs.items()),
    )
    def test_bad_input_names_its_parameter(self, det_env, kwargs):
        """``max_support <= 0`` would fold every convolution into the
        tail (every chance 0); a NaN horizon would truncate nothing."""
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            CompletionEstimator(det_env[0], **kwargs)

    @pytest.mark.parametrize("horizon", [float("nan"), 0.0])
    def test_system_rejects_bad_horizon(self, det_env, horizon):
        from repro.system.serverless import ServerlessSystem

        with pytest.raises(ValueError, match="horizon"):
            ServerlessSystem(det_env[0], "MM", horizon=horizon)
