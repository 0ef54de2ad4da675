"""Campaign-layer coverage for the DAG axis and trace adapters.

Three contracts: the ``dag`` grid axis expands/labels/serializes like
every other axis (and refuses trace levels, which carry their own
edges); DAG and adapted-trace cells are byte-identical across the
serial and process executors; campaign rows and CSV output carry the
new ``dag``/``cascade_drops``/``depths`` telemetry sparsely.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.campaign import (
    PRESETS,
    Campaign,
    SweepGrid,
    _resolve,
    run_cell_trials,
)
from repro.experiments.cli import main
from repro.experiments.report import CAMPAIGN_CSV_FIELDS, CampaignRow, CampaignSummary
from repro.experiments.runner import ExperimentConfig
from repro.metrics.robustness import AggregateStats
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import trace_spec

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
AZURE_MINI = REPO_ROOT / "tests" / "data" / "azure_mini.csv"
EXAMPLE_TRACE = REPO_ROOT / "examples" / "traces" / "bursty_small.csv"

DAG_SPEC = WorkloadSpec(
    num_tasks=80, time_span=40.0, num_task_types=3, dag_layers=3
)


def _dumps(cells):
    return [
        [json.dumps(r.to_dict(), sort_keys=True) for r in cell] for cell in cells
    ]


# ======================================================================
class TestResolveDag:
    def test_none_forms(self):
        assert _resolve("dag", "none") == ("none", None)
        assert _resolve("dag", None) == ("none", None)

    def test_layered_shorthand(self):
        assert _resolve("dag", "layered") == ("dag4", {"dag_layers": 4})

    def test_mapping_with_derived_label(self):
        label, fields = _resolve("dag", {"layers": 3})
        assert (label, fields) == ("dag3", {"dag_layers": 3})
        # Non-default knobs surface in the label so variants don't collide.
        label, fields = _resolve("dag", {"layers": 3, "edge_prob": 0.25})
        assert label == "dag3-p0.25"
        assert fields == {"dag_layers": 3, "dag_edge_prob": 0.25}
        label, _ = _resolve("dag", {"layers": 2, "max_parents": 1})
        assert label == "dag2-m1"

    def test_explicit_label_wins(self):
        label, _ = _resolve("dag", {"layers": 5, "label": "deep"})
        assert label == "deep"

    def test_integral_floats_coerced(self):
        _, fields = _resolve("dag", {"layers": 3.0, "max_parents": 2.0})
        assert fields == {"dag_layers": 3, "dag_max_parents": 2}
        assert all(isinstance(v, int) for v in fields.values())

    def test_rejections(self):
        with pytest.raises(ValueError, match="unknown dag keys"):
            _resolve("dag", {"layers": 3, "depth": 9})
        with pytest.raises(ValueError, match='must set "layers"'):
            _resolve("dag", {"edge_prob": 0.5})
        with pytest.raises(ValueError, match="must be an integer"):
            _resolve("dag", {"layers": 2.5})
        with pytest.raises(ValueError, match="unrecognized dag entry"):
            _resolve("dag", 7)


# ======================================================================
class TestDagAxis:
    def _grid(self, **overrides):
        base = dict(
            heuristics=("MM",),
            levels=({"name": "t", "num_tasks": 50, "time_span": 40.0,
                     "num_task_types": 3},),
            pruning=("none", "paper"),
            dag=("none", {"layers": 3}),
            trials=1,
        )
        base.update(overrides)
        return SweepGrid(**base)

    def test_axis_multiplies_cells_and_labels(self):
        grid = self._grid()
        cells = grid.expand()
        assert len(cells) == grid.num_cells == 4
        labels = [c.config.label for c in cells]
        # Flat cells keep the historical label shape; DAG cells append
        # the variant so old cache keys and reports are untouched.
        assert sum("/dag3" in lb for lb in labels) == 2
        assert len(set(labels)) == 4
        by_dag = {c.dag_label for c in cells}
        assert by_dag == {"none", "dag3"}
        for cell in cells:
            if cell.dag_label == "dag3":
                assert cell.config.spec.dag_layers == 3
            else:
                assert cell.config.spec.dag_layers == 0

    def test_dag_axis_rejects_trace_levels(self):
        grid = self._grid(
            levels=({"trace": str(EXAMPLE_TRACE), "name": "rec"},),
            patterns=("trace",),
        )
        with pytest.raises(ValueError, match="dag axis applies only to synthetic"):
            grid.expand()
        # An all-"none" dag axis is the historical grid: traces still fine.
        grid = self._grid(
            levels=({"trace": str(EXAMPLE_TRACE), "name": "rec"},),
            patterns=("trace",),
            dag=("none",),
        )
        assert len(grid.expand()) == 2

    def test_json_round_trip_preserves_dag_axis(self, tmp_path):
        grid = self._grid(name="rt")
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid.to_dict()))
        loaded = SweepGrid.from_json(path)
        assert loaded.to_dict()["dag"] == grid.to_dict()["dag"]
        assert [c.config.label for c in loaded.expand()] == [
            c.config.label for c in grid.expand()
        ]

    def test_new_presets_ship_the_new_axes(self):
        assert PRESETS["dag"]["dag"][-1]["layers"] == 3
        levels = PRESETS["azure"]["levels"]
        assert any(lv.get("sample") for lv in levels if isinstance(lv, dict))
        for name in ("dag", "azure", "gcluster"):
            grid = SweepGrid.preset(name)
            assert grid.num_cells == len(grid.expand())


# ======================================================================
class TestExecutorByteIdentity:
    def test_dag_and_adapted_trace_cells_identical_across_executors(self):
        """The acceptance contract: a DAG cell and a downsampled
        adapted-trace replay are bit-identical under every executor."""
        configs = [
            ExperimentConfig(
                heuristic="MM", spec=DAG_SPEC, trials=2, base_seed=11
            ),
            ExperimentConfig(
                heuristic="MM",
                spec=trace_spec(str(AZURE_MINI), fmt="azure", sample=0.6),
                trials=2,
                base_seed=11,
            ),
        ]
        serial = run_cell_trials(configs, executor="serial")
        process = run_cell_trials(configs, jobs=2, executor="process")
        assert _dumps(serial) == _dumps(process)
        # The DAG cell actually exercised the new machinery…
        assert any(r.dag_stats for r in serial[0])
        # …and the sampled replay is a strict subset of the mini trace.
        assert all(r.total < 48 for r in serial[1])


# ======================================================================
class TestCampaignTelemetry:
    def test_rows_carry_dag_columns(self, tmp_path):
        grid = SweepGrid(
            name="dagmini",
            heuristics=("MM",),
            levels=({"name": "t", "num_tasks": 50, "time_span": 25.0,
                     "num_task_types": 3},),
            pruning=("paper",),
            dag=("none", {"layers": 3}),
            trials=1,
        )
        summary = Campaign.from_grid(grid).run()
        by_dag = {row.dag: row for row in summary.rows}
        assert set(by_dag) == {"none", "dag3"}
        flat, dag = by_dag["none"], by_dag["dag3"]
        assert flat.depths == {} and flat.cascade_drops == 0.0
        assert dag.depths  # per-depth outcome table present
        assert all(set(v) >= {"total", "on_time"} for v in dag.depths.values())
        # Round-trip: the sparse payload survives JSON and keeps the
        # flat row's payload free of the new keys.
        payload = summary.to_dict()
        summary2 = CampaignSummary.from_dict(json.loads(json.dumps(payload)))
        assert {r.dag: r.depths for r in summary2.rows} == {
            r.dag: {k: dict(v) for k, v in r.depths.items()} for r in summary.rows
        }
        flat_payload = next(r for r in payload["rows"] if r["label"] == flat.label)
        assert "dag" not in flat_payload and "depths" not in flat_payload
        # CSV: the new columns are appended (never inserted) and filled.
        assert CAMPAIGN_CSV_FIELDS[-3:] == ("dag", "cascade_drops", "tuning")
        lines = summary.to_csv().splitlines()
        assert lines[0] == ",".join(CAMPAIGN_CSV_FIELDS)
        dag_line = next(ln for ln in lines[1:] if "/dag3" in ln)
        assert ",dag3," in dag_line

    def test_row_defaults_stay_backward_compatible(self):
        """Pre-DAG row payloads (older JSON) still parse."""
        row = CampaignRow.from_dict(
            {
                "label": "MM/P@15k/spiky/inconsistent",
                "heuristic": "MM",
                "level": "15k",
                "pattern": "spiky",
                "heterogeneity": "inconsistent",
                "pruning": "P",
                "stats": AggregateStats(
                    mean_pct=50.0, ci95_pct=1.0, trials=1, per_trial_pct=(50.0,)
                ).to_dict(),
            }
        )
        assert row.dag == "none"
        assert row.cascade_drops == 0.0
        assert row.depths == {}


# ======================================================================
class TestTraceSampleCli:
    def _trace_grid(self, tmp_path, **level_extra):
        grid = {
            "name": "tg",
            "heuristics": ["MM"],
            "patterns": ["trace"],
            "levels": [{"trace": str(EXAMPLE_TRACE), "name": "rec", **level_extra}],
            "pruning": ["none"],
            "trials": 1,
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        return path

    def test_figure_mode_rejects_the_flag(self, capsys):
        assert main(["fig7b", "--trace-sample", "0.5"]) == 2
        assert "applies to sweeps" in capsys.readouterr().err

    def test_grid_without_trace_levels_rejected(self, capsys):
        assert main(["sweep", "smoke", "--trace-sample", "0.5"]) == 2
        assert "the grid has none" in capsys.readouterr().err

    def test_flag_stamps_sample_onto_trace_levels(self, tmp_path, capsys):
        path = self._trace_grid(tmp_path)
        rc = main(
            ["sweep", str(path), "--trace-sample", "0.4", "--no-cache",
             "--json-dir", str(tmp_path)]
        )
        assert rc == 0
        sampled = json.loads((tmp_path / "campaign-tg.json").read_text())
        rc = main(
            ["sweep", str(path), "--no-cache", "--json-dir", str(tmp_path)]
        )
        assert rc == 0
        full = json.loads((tmp_path / "campaign-tg.json").read_text())
        # The sampled campaign replays a different (smaller) workload, so
        # its per-trial robustness diverges from the full replay.
        assert sampled["rows"][0]["stats"] != full["rows"][0]["stats"]
        capsys.readouterr()
