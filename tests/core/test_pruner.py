"""Tests for the Pruner's drop-scan and defer decisions (Fig. 5)."""

import numpy as np
import pytest

from repro.core.accounting import Accounting
from repro.core.config import PruningConfig, ToggleMode
from repro.core.pruner import Pruner
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.task import Task
from repro.system.completion import CompletionEstimator

from tests.conftest import make_deterministic_pet


@pytest.fixture
def env():
    """One machine; type 0 runs exactly 10 time units (deterministic)."""
    pet = make_deterministic_pet(np.array([[10.0]]))
    cluster = Cluster.heterogeneous(1)
    sim = Simulator()
    est = CompletionEstimator(pet)
    return pet, cluster, sim, est


def queue_task(cluster, sim, i, deadline, ttype=0):
    t = Task(task_id=i, task_type=ttype, arrival=0.0, deadline=deadline)
    t.mark_mapped(0, sim.now)
    cluster[0].dispatch(t, sim, lambda *a: 10.0, lambda *a: None)
    return t


class TestDropScan:
    def test_drops_hopeless_keeps_viable(self, env):
        _, cluster, sim, est = env
        running = queue_task(cluster, sim, 0, deadline=100.0)  # starts running
        viable = queue_task(cluster, sim, 1, deadline=100.0)   # completes ~20
        doomed = queue_task(cluster, sim, 2, deadline=15.0)    # completes ~30 > 15
        pruner = Pruner(PruningConfig.paper_default())
        decisions = pruner.drop_scan(cluster, est, now=0.0)
        assert [d.task.task_id for d in decisions] == [2]
        assert doomed not in cluster[0].queue
        assert viable in cluster[0].queue
        assert running is cluster[0].running

    def test_drop_shortens_chain_for_survivors(self, env):
        """Dropping a queue-head task must rescue the task behind it: the
        re-scan uses the shortened convolution chain (§II)."""
        _, cluster, sim, est = env
        queue_task(cluster, sim, 0, deadline=100.0)           # running
        head_doomed = queue_task(cluster, sim, 1, deadline=15.0)  # ~20 > 15
        behind = queue_task(cluster, sim, 2, deadline=25.0)   # ~30 with head, ~20 without
        pruner = Pruner(PruningConfig.paper_default())
        decisions = pruner.drop_scan(cluster, est, now=0.0)
        assert [d.task.task_id for d in decisions] == [1]
        assert behind in cluster[0].queue

    def test_cascade_when_survivor_still_hopeless(self, env):
        _, cluster, sim, est = env
        queue_task(cluster, sim, 0, deadline=100.0)  # running
        a = queue_task(cluster, sim, 1, deadline=15.0)  # hopeless
        b = queue_task(cluster, sim, 2, deadline=15.0)  # hopeless even alone (~20)
        pruner = Pruner(PruningConfig.paper_default())
        decisions = pruner.drop_scan(cluster, est, now=0.0)
        assert {d.task.task_id for d in decisions} == {1, 2}
        assert cluster[0].queue == []

    def test_never_touches_running_task(self, env):
        _, cluster, sim, est = env
        running = queue_task(cluster, sim, 0, deadline=5.0)  # hopeless but running
        pruner = Pruner(PruningConfig.paper_default())
        assert pruner.drop_scan(cluster, est, now=0.0) == []
        assert cluster[0].running is running

    def test_decisions_carry_chance_and_threshold(self, env):
        _, cluster, sim, est = env
        queue_task(cluster, sim, 0, deadline=100.0)
        queue_task(cluster, sim, 1, deadline=15.0)
        pruner = Pruner(PruningConfig.paper_default())
        (d,) = pruner.drop_scan(cluster, est, now=0.0)
        assert d.chance == pytest.approx(0.0)
        assert d.effective_threshold == pytest.approx(0.5)
        assert d.machine is cluster[0]

    def test_drop_updates_fairness(self, env):
        _, cluster, sim, est = env
        queue_task(cluster, sim, 0, deadline=100.0)
        queue_task(cluster, sim, 1, deadline=15.0)
        pruner = Pruner(PruningConfig.paper_default())
        assert len(pruner.drop_scan(cluster, est, now=0.0)) == 1
        assert pruner.fairness.score(0) == pytest.approx(0.05)

    def test_fairness_offset_can_save_a_task(self, env):
        """A heavily suffered type gets effective threshold 0 and borderline
        tasks survive the scan."""
        _, cluster, sim, est = env
        queue_task(cluster, sim, 0, deadline=100.0)
        borderline = queue_task(cluster, sim, 1, deadline=20.0)  # chance ~=0.5... exactly 1 at 20
        hopeless = queue_task(cluster, sim, 2, deadline=15.0)
        pruner = Pruner(PruningConfig.paper_default())
        for _ in range(20):
            pruner.fairness.note_drop(0)  # effective threshold → 0
        decisions = pruner.drop_scan(cluster, est, now=0.0)
        # chance(hopeless)=0.0 ≤ 0.0 → still dropped; borderline (chance 1) kept
        assert [d.task.task_id for d in decisions] == [2]
        assert borderline in cluster[0].queue


class TestSuffixResume:
    """The drop scan resumes from the drop index: post-drop re-evaluation
    covers only the tasks *behind* the dropped one (ISSUE 4)."""

    def _env(self):
        pet = make_deterministic_pet(np.array([[10.0]]))
        cluster = Cluster.heterogeneous(1)
        return pet, cluster, Simulator(), CompletionEstimator(pet)

    def test_evaluations_scale_with_suffix_not_queue(self):
        """Queue of 10 with one hopeless task at index 8: the scan costs
        one cluster pass (10 evaluations) plus one 1-task suffix
        re-query — not a 9-task restart from the queue front."""
        _, cluster, sim, est = self._env()
        queue_task(cluster, sim, 0, deadline=1000.0)  # running
        for i in range(8):  # indices 0..7: completes by 20..90, all viable
            queue_task(cluster, sim, 1 + i, deadline=1000.0)
        queue_task(cluster, sim, 9, deadline=30.0)    # index 8: ~100 >> 30
        queue_task(cluster, sim, 10, deadline=1000.0)  # index 9: viable
        pruner = Pruner(PruningConfig.paper_default())
        before = est.chance_evaluations
        decisions = pruner.drop_scan(cluster, est, now=0.0)
        assert [d.task.task_id for d in decisions] == [9]
        evaluated = est.chance_evaluations - before
        # 10 queued tasks in the opening cluster pass + the 1-task suffix
        # behind the drop.  The restart-from-front rescan this replaces
        # would have paid 10 + 9.
        assert evaluated == 10 + 1

    def test_front_to_back_cascade_still_quadratic_when_all_drop(self):
        """When every task is hopeless the suffix *is* the rest of the
        queue — re-evaluation after each drop is genuine work, not
        rescan waste."""
        _, cluster, sim, est = self._env()
        queue_task(cluster, sim, 0, deadline=1000.0)  # running
        for i in range(5):
            queue_task(cluster, sim, 1 + i, deadline=5.0)  # all hopeless
        pruner = Pruner(PruningConfig.paper_default())
        before = est.chance_evaluations
        decisions = pruner.drop_scan(cluster, est, now=0.0)
        assert len(decisions) == 5
        assert est.chance_evaluations - before == 5 + 4 + 3 + 2 + 1

    def test_resume_matches_restart_from_front_decisions(self):
        """Decision-for-decision identity with the restart-from-front
        reference rescan, on a randomized multi-machine setup."""
        rng = np.random.default_rng(7)
        for _trial in range(20):
            means = rng.uniform(3.0, 12.0, size=(3, 2))
            configs = []
            for _ in range(2):  # build two identical worlds
                pet = make_deterministic_pet(means)
                cluster = Cluster.heterogeneous(2)
                sim = Simulator()
                est = CompletionEstimator(pet)
                configs.append((cluster, sim, est))
            layout = [
                (
                    int(rng.integers(0, 2)),       # machine
                    int(rng.integers(0, 3)),       # task type
                    float(rng.uniform(5.0, 80.0)),  # deadline
                )
                for _ in range(int(rng.integers(4, 14)))
            ]
            for cluster, sim, _ in configs:
                for tid, (m, tt, dl) in enumerate(layout):
                    t = Task(task_id=tid, task_type=tt, arrival=0.0, deadline=dl)
                    t.mark_mapped(m, 0.0)
                    cluster[m].dispatch(t, sim, lambda *a: 5.0, lambda *a: None)

            suffix_pruner = Pruner(PruningConfig.paper_default())
            got = suffix_pruner.drop_scan(configs[0][0], configs[0][2], now=0.0)

            # Reference: the pre-ISSUE-4 restart-from-front rescan.
            ref_pruner = Pruner(PruningConfig.paper_default())
            cluster, _, est = configs[1]
            want = []
            for machine in cluster.machines:
                scan_again = bool(machine.queue)
                while scan_again:
                    scan_again = False
                    for task, chance in est.queue_chances(machine, 0.0):
                        eff = ref_pruner._scan_threshold(task)
                        if chance <= eff:
                            want.append((task.task_id, chance, eff))
                            ref_pruner.fairness.note_drop(task.task_type)
                            machine.remove(task)
                            scan_again = True
                            break
            assert [(d.task.task_id, d.chance, d.effective_threshold) for d in got] == want


class TestThresholdLookups:
    """With the base-class hooks the scan computes ``β − γ_k`` once per
    task type and recomputes only the type a drop moved; an overriding
    subclass keeps one hook call per examined task."""

    def _world(self, layout):
        """One machine, two task types running exactly 10 units; the
        first task runs, the rest queue as ``(type, deadline)``."""
        pet = make_deterministic_pet(np.array([[10.0], [10.0]]))
        cluster = Cluster.heterogeneous(1)
        sim = Simulator()
        for tid, (ttype, deadline) in enumerate([(0, 1000.0)] + layout):
            queue_task(cluster, sim, tid, deadline, ttype=ttype)
        return cluster, CompletionEstimator(pet)

    def _counted(self, pruner):
        calls = []
        inner = pruner.fairness.effective_threshold

        def counting(beta, task_type):
            calls.append(task_type)
            return inner(beta, task_type)

        pruner.fairness.effective_threshold = counting
        return calls

    def test_one_computation_per_type_without_drops(self):
        cluster, est = self._world([(k % 2, 1000.0) for k in range(6)])
        pruner = Pruner(PruningConfig.paper_default())
        calls = self._counted(pruner)
        assert pruner.drop_scan(cluster, est, now=0.0) == []
        assert sorted(calls) == [0, 1]

    def test_a_drop_recomputes_only_its_type(self):
        # Index 0 (type 0) completes at 20 > 15: dropped.  The survivors
        # behind it are judged against γ_0 raised by the drop.
        cluster, est = self._world(
            [(0, 15.0), (1, 1000.0), (0, 1000.0), (1, 1000.0)]
        )
        pruner = Pruner(PruningConfig.paper_default())
        calls = self._counted(pruner)
        decisions = pruner.drop_scan(cluster, est, now=0.0)
        assert [d.task.task_id for d in decisions] == [1]
        assert calls == [0, 1, 0]

    def test_overridden_hook_is_called_per_examined_task(self):
        class Counting(Pruner):
            calls = 0

            def _scan_threshold(self, task):
                Counting.calls += 1
                return super()._scan_threshold(task)

        cluster, est = self._world(
            [(0, 15.0), (1, 1000.0), (0, 1000.0), (1, 1000.0)]
        )
        pruner = Counting(PruningConfig.paper_default())
        decisions = pruner.drop_scan(cluster, est, now=0.0)
        assert [d.task.task_id for d in decisions] == [1]
        assert Counting.calls == 4  # every queued task examined once


class TestNearTies:
    """The drop scan, the defer check and the DAG gate scan decide a
    chance within a relative ``TIE_MARGIN`` of its threshold on the
    chain (``chain_chance``), not on the factored value a query
    returned."""

    class _Estimator:
        def __init__(self, factored, chain):
            self.factored, self.chain, self.asked = factored, chain, []

        def cluster_queue_chances(self, machines, now):
            return [np.array([self.factored]) for _ in machines]

        def chances_for(self, tasks, machines, now):
            return np.full((len(tasks), len(machines)), self.factored)

        def chain_chance(self, task, machine, now, index=None):
            self.asked.append(index)
            return self.chain

    def _cluster(self, env):
        _, cluster, sim, _ = env
        queue_task(cluster, sim, 0, deadline=1000.0)  # running
        queue_task(cluster, sim, 1, deadline=1000.0)
        return cluster

    def test_a_tie_is_decided_on_the_chain(self, env):
        cluster = self._cluster(env)
        est = self._Estimator(np.nextafter(0.75, 1.0), 0.75)
        pruner = Pruner(PruningConfig(pruning_threshold=0.75))
        decisions = pruner.drop_scan(cluster, est, now=0.0)
        assert [(d.task.task_id, d.chance) for d in decisions] == [(1, 0.75)]
        assert est.asked == [0]

    @pytest.mark.parametrize("factored", [0.0, 0.5, 0.75 + 2e-9])
    def test_clear_cases_and_zeros_are_not_reread(self, env, factored):
        cluster = self._cluster(env)
        est = self._Estimator(factored, float("nan"))
        pruner = Pruner(PruningConfig(pruning_threshold=0.75))
        decisions = pruner.drop_scan(cluster, est, now=0.0)
        assert len(decisions) == (1 if factored <= 0.75 else 0)
        assert est.asked == []

    def test_a_defer_tie_is_decided_on_the_chain(self, env):
        """Fig. 5 step 10 defers at chance ≤ β: a factored value one ulp
        above β must not keep a task whose chain chance is exactly β."""
        cluster = self._cluster(env)
        task = Task(task_id=7, task_type=0, arrival=0.0, deadline=1000.0)
        est = self._Estimator(np.nextafter(0.75, 1.0), 0.75)
        pruner = Pruner(PruningConfig(pruning_threshold=0.75))
        assert pruner.should_defer(task, est.factored, cluster[0], est, 0.0)
        assert est.asked == [None]
        assert not Pruner(PruningConfig(pruning_threshold=0.75)).should_defer(
            task, est.factored
        )

    def test_a_gate_scan_tie_is_decided_on_the_chain(self, env):
        cluster = self._cluster(env)
        held = Task(task_id=7, task_type=0, arrival=0.0, deadline=1000.0)
        est = self._Estimator(np.nextafter(0.75, 1.0), 0.75)
        pruner = Pruner(PruningConfig(pruning_threshold=0.75))
        decisions = pruner.gate_scan([held], cluster, est, now=0.0)
        assert [(d.task.task_id, d.chance) for d in decisions] == [(7, 0.75)]
        assert est.asked == [None]

    def test_tiny_chance_against_a_zero_threshold_is_not_reread(self, env):
        """A fully suffered type (threshold 0) drops only a 0.0 chance, and
        a factored chance is 0.0 exactly when the chain's is."""
        cluster = self._cluster(env)
        est = self._Estimator(5e-10, float("nan"))
        pruner = Pruner(PruningConfig(pruning_threshold=0.75))
        for _ in range(20):
            pruner.fairness.note_drop(0)
        assert pruner.drop_scan(cluster, est, now=0.0) == []
        assert est.asked == []


class TestDeferDecision:
    def test_defers_below_threshold(self):
        pruner = Pruner(PruningConfig.paper_default())
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=10.0)
        assert pruner.should_defer(t, chance=0.3) is True

    def test_keeps_above_threshold(self):
        pruner = Pruner(PruningConfig.paper_default())
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=10.0)
        assert pruner.should_defer(t, chance=0.7) is False

    def test_boundary_is_inclusive(self):
        """Fig. 5 step 10: chance ≤ β defers."""
        pruner = Pruner(PruningConfig.paper_default())
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=10.0)
        assert pruner.should_defer(t, chance=0.5) is True

    def test_disabled_deferring(self):
        pruner = Pruner(PruningConfig.drop_only())
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=10.0)
        assert pruner.should_defer(t, chance=0.0) is False

    def test_fairness_lowers_defer_bar(self):
        pruner = Pruner(PruningConfig.paper_default())
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=10.0)
        for _ in range(4):
            pruner.fairness.note_drop(0)  # γ=0.2 → bar 0.3
        assert pruner.should_defer(t, chance=0.35) is False
        assert pruner.should_defer(t, chance=0.25) is True


class TestToggleIntegration:
    def test_dropping_engaged_follows_toggle(self):
        acc = Accounting()
        pruner = Pruner(PruningConfig.paper_default(), acc)
        assert not pruner.dropping_engaged()
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=1.0)
        t.mark_dropped(2.0, proactive=False)
        acc.record_drop(t)
        assert pruner.dropping_engaged()

    def test_dropping_disabled_overrides_toggle(self):
        acc = Accounting()
        pruner = Pruner(
            PruningConfig(toggle_mode=ToggleMode.ALWAYS, enable_dropping=False), acc
        )
        assert not pruner.dropping_engaged()

    def test_update_fairness_consumes_completions(self):
        acc = Accounting()
        pruner = Pruner(PruningConfig.paper_default(), acc)
        pruner.fairness.note_drop(0)
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=50.0)
        t.mark_mapped(0, 0.0)
        t.mark_running(0.0, 5.0)
        t.mark_completed(5.0)
        acc.record_completion(t)
        pruner.update_fairness()
        assert pruner.fairness.score(0) == pytest.approx(0.0)

    def test_end_mapping_event_flushes(self):
        acc = Accounting()
        pruner = Pruner(PruningConfig.paper_default(), acc)
        t = Task(task_id=0, task_type=0, arrival=0.0, deadline=1.0)
        t.mark_dropped(2.0, proactive=False)
        acc.record_drop(t)
        pruner.end_mapping_event()
        assert acc.misses_since_last_event == 0
