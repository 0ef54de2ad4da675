"""Strategy contract tests: proposals are pure in (seed, space, history).

Strategies are exercised here without any simulation — histories are
synthesized :class:`TrialRecord` lists — so these tests pin the search
logic (rung plans, promotions, GP proposals, option parsing) at unit
speed; the end-to-end trajectory is covered by ``test_tuner.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tuning.ledger import TrialRecord
from repro.tuning.space import Categorical, Continuous, Integer, SearchSpace
from repro.tuning.strategies import STRATEGIES, make_strategy


SPACE = SearchSpace(
    (
        Continuous("beta", 0.2, 0.9),
        Integer("window", 1, 6),
        Categorical("alpha", (0, 2, 5)),
    )
)


def record(index, params, score, fidelity=1.0):
    return TrialRecord(index=index, params=params, score=score, fidelity=fidelity)


def rollout(strategy, scores):
    """Drive a strategy with scripted scores; returns the proposals."""
    history, proposals = [], []
    for score in scores:
        proposal = strategy.propose(history)
        if proposal is None:
            break
        proposals.append(proposal)
        history.append(record(len(history), proposal.params, score, proposal.fidelity))
    return proposals


class TestRandom:
    def test_same_seed_same_trajectory(self):
        a = make_strategy("random", SPACE, seed=7, budget=5)
        b = make_strategy("random", SPACE, seed=7, budget=5)
        assert [p.params for p in rollout(a, [1, 2, 3, 4, 5])] == [
            p.params for p in rollout(b, [5, 4, 3, 2, 1])
        ]  # scores don't matter to random search — only the trial index does

    def test_different_seed_different_trajectory(self):
        a = make_strategy("random", SPACE, seed=7, budget=5)
        b = make_strategy("random", SPACE, seed=8, budget=5)
        assert [p.params for p in rollout(a, [0] * 5)] != [
            p.params for p in rollout(b, [0] * 5)
        ]

    def test_budget_exhaustion(self):
        s = make_strategy("random", SPACE, seed=0, budget=3)
        history = [record(i, {"beta": 0.5, "window": 1, "alpha": 0}, 0.0) for i in range(3)]
        assert s.propose(history) is None

    def test_proposal_independent_of_history_length_draws(self):
        """Proposal i is derived from trial/<i>, not from a shared stream:
        the third proposal is identical whether or not earlier proposals
        were ever generated."""
        fresh = make_strategy("random", SPACE, seed=7, budget=5)
        history = [record(i, {"beta": 0.3, "window": 2, "alpha": 0}, 1.0) for i in range(2)]
        direct = fresh.propose(history)
        replayed = rollout(make_strategy("random", SPACE, seed=7, budget=5), [0, 0, 0])[2]
        assert direct.params == replayed.params


class TestSuccessiveHalving:
    def test_rung_plan_and_fidelities(self):
        s = make_strategy(
            "successive-halving:population=6,eta=2", SPACE, seed=1, budget=20
        )
        assert s.rung_sizes == [6, 3, 1]
        proposals = rollout(s, range(10))
        assert len(proposals) == 10  # 6 + 3 + 1, under budget
        assert [p.fidelity for p in proposals] == [0.25] * 6 + [0.5] * 3 + [1.0]

    def test_promotion_picks_top_scores(self):
        s = make_strategy(
            "successive-halving:population=4,eta=2", SPACE, seed=3, budget=20
        )
        # Rung 0 scores: trials 1 and 3 win → promoted in score order.
        proposals = rollout(s, [10.0, 40.0, 20.0, 30.0, 0.0, 0.0, 0.0])
        assert len(proposals) == 7  # 4 + 2 + 1
        assert proposals[4].params == proposals[1].params
        assert proposals[5].params == proposals[3].params

    def test_tie_goes_to_earlier_trial(self):
        s = make_strategy(
            "successive-halving:population=2,eta=2", SPACE, seed=3, budget=20
        )
        proposals = rollout(s, [5.0, 5.0, 0.0])
        assert proposals[2].params == proposals[0].params

    def test_default_population_fits_budget(self):
        s = make_strategy("successive-halving", SPACE, seed=0, budget=7)
        assert sum(s.rung_sizes) <= 7
        # The resolved plan lands in the spec (ledger identity pins it).
        assert s.spec_dict() == {
            "kind": "successive-halving",
            "eta": 2,
            "population": s.population,
        }

    def test_stops_after_plan_despite_budget(self):
        s = make_strategy(
            "successive-halving:population=2,eta=2", SPACE, seed=0, budget=50
        )
        assert len(rollout(s, [0.0] * 50)) == 3

    def test_option_rejections(self):
        with pytest.raises(ValueError, match="eta must be >= 2"):
            make_strategy("successive-halving:eta=1", SPACE, seed=0, budget=5)
        with pytest.raises(ValueError, match="unknown successive-halving option"):
            make_strategy("successive-halving:rungs=3", SPACE, seed=0, budget=5)
        with pytest.raises(ValueError, match="must be an integer"):
            make_strategy(
                {"kind": "successive-halving", "population": 2.5},
                SPACE,
                seed=0,
                budget=5,
            )


class TestBayes:
    def test_init_phase_matches_random_then_goes_guided(self):
        bayes = make_strategy({"kind": "bayes", "init": 3}, SPACE, seed=5, budget=6)
        rand = make_strategy("random", SPACE, seed=5, budget=6)
        scores = [1.0, 3.0, 2.0, 2.5, 2.6, 2.7]
        b = rollout(bayes, scores)
        r = rollout(rand, scores)
        assert [p.params for p in b[:3]] == [p.params for p in r[:3]]
        assert len(b) == 6
        for proposal in b[3:]:
            assert set(proposal.params) == {"beta", "window", "alpha"}

    def test_guided_proposals_deterministic_in_history(self):
        spec = {"kind": "bayes", "init": 2, "candidates": 16}
        history = [
            record(0, {"beta": 0.3, "window": 2, "alpha": 0}, 10.0),
            record(1, {"beta": 0.7, "window": 5, "alpha": 2}, 30.0),
            record(2, {"beta": 0.5, "window": 3, "alpha": 0}, 20.0),
        ]
        a = make_strategy(spec, SPACE, seed=9, budget=8).propose(history)
        b = make_strategy(spec, SPACE, seed=9, budget=8).propose(history)
        assert a.params == b.params

    def test_defaults_resolved_into_spec(self):
        s = make_strategy("bayes", SPACE, seed=0, budget=12)
        spec = s.spec_dict()
        assert spec["kind"] == "bayes"
        assert spec["init"] == 5  # min(budget, max(3, d + 2)) with d = 3
        assert {"candidates", "length_scale", "noise", "xi"} <= set(spec)

    def test_option_rejections(self):
        with pytest.raises(ValueError, match="init must be >= 1"):
            make_strategy({"kind": "bayes", "init": 0}, SPACE, seed=0, budget=5)
        with pytest.raises(ValueError, match="length_scale and noise"):
            make_strategy({"kind": "bayes", "noise": 0.0}, SPACE, seed=0, budget=5)


class TestMakeStrategy:
    def test_spec_string_options_parsed_as_numbers(self):
        s = make_strategy("bayes:init=4,xi=0.05", SPACE, seed=0, budget=8)
        assert s.options["init"] == 4
        assert s.options["xi"] == pytest.approx(0.05)

    def test_rejections_name_the_problem(self):
        with pytest.raises(ValueError, match="unknown strategy 'grid'"):
            make_strategy("grid", SPACE, seed=0, budget=5)
        with pytest.raises(ValueError, match="unknown strategy 'grid'"):
            make_strategy({"kind": "grid"}, SPACE, seed=0, budget=5)
        with pytest.raises(ValueError, match="not key=value"):
            make_strategy("random:fast", SPACE, seed=0, budget=5)
        with pytest.raises(ValueError, match="'init'"):
            make_strategy("bayes:init=lots", SPACE, seed=0, budget=5)
        with pytest.raises(ValueError, match="unrecognized strategy spec"):
            make_strategy(7, SPACE, seed=0, budget=5)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            make_strategy("random", SPACE, seed=0, budget=0)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"seed": True, "budget": 5}, "seed must be an integer, got True"),
            ({"seed": 0, "budget": 2.7}, "budget must be an integer, got 2.7"),
        ],
    )
    def test_seed_and_budget_are_not_truncated(self, kwargs, match):
        """A bool seed or a fractional budget is a caller bug, not 1 or 2."""
        with pytest.raises(ValueError, match=match):
            make_strategy("random", SPACE, **kwargs)

    def test_registry_names_all_construct(self):
        for name in STRATEGIES:
            s = make_strategy(name, SPACE, seed=0, budget=6)
            assert s.spec_dict()["kind"] == name


class TestStrategyProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        kind=st.sampled_from(sorted(STRATEGIES)),
        scores=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=6, max_size=6
        ),
    )
    def test_trajectory_pure_in_seed_and_scores(self, seed, kind, scores):
        """Every registered strategy: same (seed, history) ⇒ identical
        proposals, including fidelities."""
        a = rollout(make_strategy(kind, SPACE, seed=seed, budget=6), scores)
        b = rollout(make_strategy(kind, SPACE, seed=seed, budget=6), scores)
        assert [(p.params, p.fidelity) for p in a] == [
            (p.params, p.fidelity) for p in b
        ]
