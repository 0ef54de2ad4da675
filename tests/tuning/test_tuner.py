"""End-to-end tuner tests on real (tiny) campaign evaluations.

The ISSUE-level determinism contract, checked with Hypothesis:

* same (seed, space, mix) ⇒ byte-identical trial ledger;
* a warm re-run over the same result cache replays the exact trajectory
  with **zero** new simulations;
* an interrupted search resumes from its ledger instead of restarting.

Cells are 30-task workloads (~10 ms per simulation), so whole searches
run at unit-test speed.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import PruningConfig
from repro.experiments.campaign import ResultCache
from repro.experiments.runner import ExperimentConfig
from repro.tuning.ledger import TrialRecord
from repro.tuning.space import Categorical, Continuous, SearchSpace
from repro.tuning.tuner import Tuner, _best_record
from repro.workload.spec import WorkloadSpec

SPACE = SearchSpace(
    (
        Continuous("beta", 0.2, 0.9),
        Categorical("alpha", (0, 2)),
    )
)

#: One spec per shipped strategy, shaped so a 3-trial budget exercises
#: the interesting phase (bayes gets a guided step, halving a promotion).
STRATEGY_SPECS = (
    "random",
    "successive-halving:population=2,eta=2",
    {"kind": "bayes", "init": 2, "candidates": 8},
)


def tiny_configs(trials=1):
    return [
        ExperimentConfig(
            heuristic="MM",
            spec=WorkloadSpec(num_tasks=30, time_span=20.0, num_task_types=3),
            pruning=PruningConfig(pruning_threshold=0.5),
            trials=trials,
            base_seed=3,
            label="tiny",
        )
    ]


def ledger_dump(records):
    """Byte-level view of a trajectory (the determinism yardstick)."""
    return json.dumps([r.to_dict() for r in records], sort_keys=True)


def trajectory(records):
    """The search-relevant view: what was proposed and how it scored
    (cache hit/miss counters legitimately differ between cold and warm
    runs, so they are not part of the trajectory identity)."""
    return [(r.index, r.params, r.score, r.fidelity, r.trials) for r in records]


class TestDeterminism:
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        spec=st.sampled_from(STRATEGY_SPECS),
    )
    def test_same_seed_and_space_give_identical_ledger(self, seed, spec):
        runs = [
            Tuner(SPACE, tiny_configs(), strategy=spec, budget=3, seed=seed).run()
            for _ in range(2)
        ]
        assert ledger_dump(runs[0].records) == ledger_dump(runs[1].records)
        assert runs[0].stats() == runs[1].stats()

    def test_seed_changes_the_trajectory(self):
        a = Tuner(SPACE, tiny_configs(), budget=3, seed=0).run()
        b = Tuner(SPACE, tiny_configs(), budget=3, seed=1).run()
        assert [r.params for r in a.records] != [r.params for r in b.records]


class TestCacheResume:
    @settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_warm_rerun_replays_trajectory_with_zero_simulations(
        self, tmp_path_factory, seed
    ):
        cache_dir = tmp_path_factory.mktemp("tunecache")
        cold = Tuner(
            SPACE, tiny_configs(), budget=3, seed=seed, cache=ResultCache(cache_dir)
        ).run()
        warm = Tuner(
            SPACE, tiny_configs(), budget=3, seed=seed, cache=ResultCache(cache_dir)
        ).run()
        assert trajectory(warm.records) == trajectory(cold.records)
        assert warm.stats()["cache_misses"] == 0  # zero new simulations
        assert warm.stats()["cache_hits"] == sum(
            r.cache_hits + r.cache_misses for r in cold.records
        )

    def test_halving_promotion_reuses_low_rung_trials(self, tmp_path):
        """Fidelity is a trial-count prefix: a promoted config's rung-0
        simulations are cache hits at the full-fidelity rung."""
        tuner = Tuner(
            SPACE,
            tiny_configs(trials=4),
            strategy="successive-halving:population=2,eta=2",
            budget=8,
            seed=5,
            cache=ResultCache(tmp_path),
        )
        result = tuner.run()
        assert [r.fidelity for r in result.records] == [0.5, 0.5, 1.0]
        assert [r.trials for r in result.records] == [2, 2, 4]
        promoted = result.records[2]
        assert promoted.cache_hits == 2  # its own rung-0 prefix
        assert promoted.cache_misses == 2  # only the extension is new


class TestLedgerResume:
    def test_interrupted_search_resumes_not_restarts(self, tmp_path):
        ledger = tmp_path / "ledger.json"

        def tuner(budget):
            return Tuner(
                SPACE, tiny_configs(), budget=budget, seed=7, ledger_path=ledger
            )

        first = tuner(2).run()
        assert first.resumed == 0
        extended = tuner(4).run()
        assert extended.resumed == 2
        assert ledger_dump(extended.records[:2]) == ledger_dump(first.records)
        assert len(extended.records) == 4
        # The uninterrupted search lands on the same bytes.
        straight = Tuner(SPACE, tiny_configs(), budget=4, seed=7).run()
        assert ledger_dump(extended.records) == ledger_dump(straight.records)

    def test_completed_search_replays_without_evaluating(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        Tuner(SPACE, tiny_configs(), budget=3, seed=7, ledger_path=ledger).run()
        replay = Tuner(
            SPACE, tiny_configs(), budget=3, seed=7, ledger_path=ledger
        ).run()
        assert replay.resumed == 3 == len(replay.records)

    def test_shrunk_budget_truncates_resumed_history(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        Tuner(SPACE, tiny_configs(), budget=3, seed=7, ledger_path=ledger).run()
        shrunk = Tuner(
            SPACE, tiny_configs(), budget=2, seed=7, ledger_path=ledger
        ).run()
        assert shrunk.resumed == 2 == len(shrunk.records)

    def test_foreign_ledger_rejected(self, tmp_path):
        ledger = tmp_path / "ledger.json"
        Tuner(SPACE, tiny_configs(), budget=2, seed=7, ledger_path=ledger).run()
        with pytest.raises(ValueError, match="different search"):
            Tuner(SPACE, tiny_configs(), budget=2, seed=8, ledger_path=ledger).run()

    def test_key_ignores_budget_but_not_problem(self):
        base = Tuner(SPACE, tiny_configs(), budget=3, seed=7)
        assert Tuner(SPACE, tiny_configs(), budget=9, seed=7).key == base.key
        assert Tuner(SPACE, tiny_configs(), budget=3, seed=8).key != base.key
        other_space = SearchSpace((Continuous("beta", 0.1, 0.9),))
        assert Tuner(other_space, tiny_configs(), budget=3, seed=7).key != base.key


class TestResultShape:
    def test_best_record_prefers_full_fidelity(self):
        records = [
            TrialRecord(index=0, params={"beta": 0.9}, score=99.0, fidelity=0.5),
            TrialRecord(index=1, params={"beta": 0.3}, score=41.0, fidelity=1.0),
            TrialRecord(index=2, params={"beta": 0.6}, score=41.0, fidelity=1.0),
        ]
        assert _best_record(records).index == 1  # tie → earliest full trial
        assert _best_record(records[:1]).index == 0  # no full trials: fall back

    def test_stats_payload(self):
        result = Tuner(SPACE, tiny_configs(), budget=2, seed=7).run()
        stats = result.stats()
        assert stats["trials"] == 2
        assert stats["resumed"] == 0
        assert stats["strategy"] == {"kind": "random"}
        assert stats["objective"] == "pooled-on-time"
        assert stats["best_params"] == result.records[stats["best_index"]].params
        assert stats["best_score"] == max(r.score for r in result.records)
        json.dumps(stats)  # JSON-ready, as telemetry requires

    def test_constructor_rejections(self):
        with pytest.raises(ValueError, match="no cells"):
            Tuner(SPACE, [])
        with pytest.raises(ValueError, match="budget must be >= 1"):
            Tuner(SPACE, tiny_configs(), budget=0)
        with pytest.raises(ValueError, match="budget must be an integer, got 2.7"):
            Tuner(SPACE, tiny_configs(), budget=2.7)
