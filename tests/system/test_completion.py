"""Tests for the completion estimator (Eq. 1/2 + memoization)."""


import numpy as np
import pytest

from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
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

    def test_expected_completion_adds_new_task(self, det_env):
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        assert est.expected_completion(0, cluster[0], 0.0) == pytest.approx(20.0)

    def test_expected_completion_extra_load(self, det_env):
        _, cluster, _, est = det_env
        assert est.expected_completion(0, cluster[0], 0.0, extra_load=7.0) == pytest.approx(17.0)

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

    def test_without_conditioning_uses_max_now(self, stoch_env):
        pet, cluster, sim, _ = stoch_env
        est = CompletionEstimator(pet, condition_running=False)
        put(cluster, sim, 0, 0, duration=8.0)
        # unconditioned mean finish = 6, clamped to now
        assert est.expected_available(cluster[0], 7.0) == pytest.approx(7.0)


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
    def test_chain_cache_hit(self, det_env):
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        est.availability_pct(cluster[0], 0.0)
        misses = est.cache_misses
        est.availability_pct(cluster[0], 0.0)
        assert est.cache_misses == misses
        assert est.cache_hits >= 1

    def test_queue_change_invalidates(self, det_env):
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        est.availability_pct(cluster[0], 0.0)
        put(cluster, sim, 0, 1)  # version bump
        misses = est.cache_misses
        est.availability_pct(cluster[0], 0.0)
        assert est.cache_misses > misses

    def test_now_change_reanchors_without_reconvolving(self, det_env):
        """Advancing the clock must NOT throw the chain away: the prefix
        cache re-anchors via offset fix-up, costing zero convolutions."""
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        put(cluster, sim, 0, 1)
        est.availability_pct(cluster[0], 0.0)
        convs = est.convolutions
        pct = est.availability_pct(cluster[0], 1.0)
        assert est.convolutions == convs
        # Values still match a from-scratch estimator at the new time.
        fresh = CompletionEstimator(est.model, memoize=False)
        assert pct.allclose(fresh.availability_pct(cluster[0], 1.0), atol=0.0)

    def test_memoize_off(self, det_env):
        pet, cluster, sim, _ = det_env
        est = CompletionEstimator(pet, memoize=False)
        put(cluster, sim, 0, 0)
        est.availability_pct(cluster[0], 0.0)
        est.availability_pct(cluster[0], 0.0)
        assert est.cache_hits == 0

    def test_same_type_shares_new_pct(self, det_env):
        _, cluster, sim, est = det_env
        put(cluster, sim, 0, 0)
        a = est.pct_for_new(0, cluster[0], 0.0)
        b = est.pct_for_new(0, cluster[0], 0.0)
        assert a is b

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
        for now in range(2, 22):
            est.availability_pct(cluster[0], float(now))
        assert len(est._cond_cache) <= 4
        assert est._cond_cache.evictions >= 16

    def test_lru_evicts_coldest_not_everything(self, det_env):
        pet, _, _, _ = det_env
        from repro.system.completion import LRUCache

        lru = LRUCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh "a"; "b" is now coldest
        lru.put("c", 3)
        assert "b" not in lru and "a" in lru and "c" in lru
        assert lru.evictions == 1

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


class TestValidation:
    def test_bad_horizon(self, det_env):
        pet = det_env[0]
        with pytest.raises(ValueError):
            CompletionEstimator(pet, horizon=0.0)
