"""Campaign-layer coverage for the ``tuning`` sweep axis.

The axis patches tuned parameter sets — explicit ``params`` or a tuner
trial ledger — onto each *pruned* cell of a grid, so a searched
configuration races the hand-set grid inside one campaign.  Contracts
pinned here: cell-count math and label suffixes, baseline cells emitted
once and untouched, ledger-entry resolution, named errors for malformed
entries, and sparse ``tuning`` row serialization (old payloads and
golden fixtures stay byte-identical).
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.campaign import Campaign, SweepGrid, _resolve
from repro.experiments.report import CAMPAIGN_CSV_FIELDS, CampaignRow, CampaignSummary
from repro.metrics.robustness import AggregateStats
from repro.tuning.ledger import TrialRecord, write_ledger
from repro.tuning.params import params_label


def grid(**overrides):
    base = dict(
        name="tunegrid",
        heuristics=("MM",),
        levels=(
            {"name": "t", "num_tasks": 30, "time_span": 20.0, "num_task_types": 3},
        ),
        pruning=("none", "paper"),
        tuning=("none", {"params": {"beta": 0.7}, "label": "hot"}),
        trials=1,
        base_seed=3,
    )
    base.update(overrides)
    return SweepGrid(**base)


class TestResolveTuning:
    def test_none_forms(self):
        assert _resolve("tuning", "none") == ("none", None)
        assert _resolve("tuning", None) == ("none", None)

    def test_params_entry_with_derived_label(self):
        params = {"beta": 0.7, "alpha": 2}
        label, resolved = _resolve("tuning", {"params": params})
        assert resolved == params
        assert label == params_label(params)

    def test_explicit_label_wins(self):
        label, _ = _resolve("tuning", {"params": {"beta": 0.7}, "label": "hot"})
        assert label == "hot"

    def test_ledger_entry_replays_ranked_params(self, tmp_path):
        path = tmp_path / "ledger.json"
        write_ledger(
            path,
            "key",
            {},
            [
                TrialRecord(index=0, params={"beta": 0.3}, score=41.0),
                TrialRecord(index=1, params={"beta": 0.6}, score=44.0),
            ],
        )
        label, params = _resolve("tuning", {"ledger": str(path)})
        assert params == {"beta": 0.6}
        assert label == params_label({"beta": 0.6})
        _, second = _resolve("tuning", {"ledger": str(path), "rank": 1, "label": "x"})
        assert second == {"beta": 0.3}

    def test_rejections_name_the_problem(self, tmp_path):
        with pytest.raises(ValueError, match='exactly one of "params" or "ledger"'):
            _resolve("tuning", {})
        with pytest.raises(ValueError, match='exactly one of "params" or "ledger"'):
            _resolve("tuning", {"params": {"beta": 0.7}, "ledger": "x.json"})
        with pytest.raises(ValueError, match="unknown tuning-entry keys"):
            _resolve("tuning", {"params": {"beta": 0.7}, "rank": 0})
        with pytest.raises(ValueError, match="non-empty mapping"):
            _resolve("tuning", {"params": {}})
        with pytest.raises(ValueError, match='"rank" must be an integer'):
            _resolve("tuning", {"ledger": "x.json", "rank": 0.5})
        with pytest.raises(ValueError, match="unrecognized tuning entry"):
            _resolve("tuning", 7)
        with pytest.raises(ValueError, match="cannot read"):
            _resolve("tuning", {"ledger": str(tmp_path / "missing.json")})


class TestTuningAxis:
    def test_axis_multiplies_pruned_cells_only(self):
        g = grid()
        cells = g.expand()
        # 1 baseline + 2 tuning variants of the pruned cell.
        assert len(cells) == g.num_cells == 3
        by_tuning = {c.tuning_label: c for c in cells}
        assert set(by_tuning) == {"none", "hot"}
        labels = [c.config.label for c in cells]
        assert sum("~hot" in lb for lb in labels) == 1
        # The tuned cell got β patched; the untuned pruned cell did not.
        tuned = by_tuning["hot"]
        assert tuned.config.pruning.pruning_threshold == pytest.approx(0.7)
        untouched = [
            c for c in cells if c.tuning_label == "none" and c.config.pruning
        ]
        assert untouched[0].config.pruning.pruning_threshold == pytest.approx(0.5)

    def test_baseline_cells_emitted_once(self):
        cells = grid().expand()
        baselines = [c for c in cells if c.config.pruning is None]
        assert len(baselines) == 1
        assert baselines[0].tuning_label == "none"

    def test_num_cells_matches_expansion_with_controllers(self):
        g = grid(
            pruning=("none", "paper"),
            controller=("none", "hysteresis"),
            tuning=("none", {"params": {"beta": 0.7}}, {"params": {"beta": 0.9}}),
        )
        assert g.num_cells == len(g.expand())

    def test_all_none_axis_is_the_historical_grid(self):
        old = grid(tuning=("none",))
        assert [c.config.label for c in old.expand()] == [
            c.config.label
            for c in grid(tuning=("none",), name="again").expand()
        ]
        assert all("~" not in c.config.label for c in old.expand())

    def test_bad_entry_fails_at_expand_with_context(self):
        with pytest.raises(ValueError, match="tuning axis"):
            grid(tuning=("none", {"params": {}})).expand()
        # A knob invalid *for the cell* names the entry that carried it.
        with pytest.raises(ValueError, match="tuning entry 'bad'"):
            grid(
                tuning=({"params": {"controller.high": 0.3}, "label": "bad"},)
            ).expand()

    def test_json_round_trip_preserves_tuning_axis(self, tmp_path):
        g = grid(name="rt")
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(g.to_dict()))
        loaded = SweepGrid.from_json(path)
        assert loaded.to_dict()["tuning"] == g.to_dict()["tuning"]
        assert [c.config.label for c in loaded.expand()] == [
            c.config.label for c in g.expand()
        ]


class TestRowSerialization:
    def test_rows_carry_tuning_sparsely(self):
        summary = Campaign.from_grid(grid()).run()
        by_tuning = {row.tuning: row for row in summary.rows}
        assert set(by_tuning) == {"none", "hot"}
        payload = summary.to_dict()
        tuned_payload = next(r for r in payload["rows"] if "~hot" in r["label"])
        assert tuned_payload["tuning"] == "hot"
        for r in payload["rows"]:
            if "~hot" not in r["label"]:
                assert "tuning" not in r  # sparse: old payloads unchanged
        # Round trip, then CSV carries the appended column.
        summary2 = CampaignSummary.from_dict(json.loads(json.dumps(payload)))
        assert {r.tuning for r in summary2.rows} == {"none", "hot"}
        assert CAMPAIGN_CSV_FIELDS[-1] == "tuning"
        lines = summary.to_csv().splitlines()
        assert lines[0].endswith(",tuning")
        assert next(ln for ln in lines[1:] if "~hot" in ln).endswith(",hot")

    def test_pre_tuning_payloads_still_parse(self):
        row = CampaignRow.from_dict(
            {
                "label": "MM/P@t/spiky/inconsistent",
                "heuristic": "MM",
                "level": "t",
                "pattern": "spiky",
                "heterogeneity": "inconsistent",
                "pruning": "P",
                "stats": AggregateStats(
                    mean_pct=50.0, ci95_pct=1.0, trials=1, per_trial_pct=(50.0,)
                ).to_dict(),
            }
        )
        assert row.tuning == "none"
