"""SweepGrid ``controller`` axis, the ``adaptive`` preset, and the new
CLI overrides (``--controller`` / ``--pruning-threshold`` /
``--toggle-alpha``)."""

from __future__ import annotations

import pytest

from repro.core.config import ControllerConfig, PruningConfig
from repro.experiments.campaign import Campaign, SweepGrid, trial_key
from repro.experiments.cli import main
from repro.experiments.report import CampaignSummary
from repro.experiments.runner import ExperimentConfig
from repro.workload.spec import WorkloadSpec

TINY_LEVEL = {"name": "tiny", "num_tasks": 80, "time_span": 50.0, "num_task_types": 4}


class TestGridAxis:
    def test_default_axis_is_no_controller(self):
        cells = SweepGrid(levels=[TINY_LEVEL]).expand()
        for cell in cells:
            assert cell.controller_label == ""
            if cell.config.pruning is not None:
                assert cell.config.pruning.controller is None

    def test_controller_attaches_to_pruned_cells_only(self):
        grid = SweepGrid(
            levels=[TINY_LEVEL],
            pruning=["none", "paper"],
            controller=["none", "hysteresis"],
        )
        cells = grid.expand()
        labels = [c.config.display_label for c in cells]
        assert len(cells) == grid.num_cells == 3  # base, P, P+hysteresis
        assert any("P+hysteresis@" in label for label in labels)
        adaptive = [c for c in cells if c.controller_label == "hysteresis"]
        assert len(adaptive) == 1
        assert adaptive[0].config.pruning.controller.kind == "hysteresis"

    def test_baseline_not_duplicated_without_none_entry(self):
        grid = SweepGrid(
            levels=[TINY_LEVEL],
            pruning=["none", "paper"],
            controller=["hysteresis", "target-success"],
        )
        cells = grid.expand()
        assert len(cells) == grid.num_cells == 3  # base once, P × 2 controllers
        base = [c for c in cells if c.config.pruning is None]
        assert len(base) == 1

    def test_spec_string_and_mapping_entries(self):
        grid = SweepGrid(
            levels=[TINY_LEVEL],
            pruning=["paper"],
            controller=[
                "hysteresis:low=0.02,high=0.4",
                {"kind": "schedule", "schedule": [[0, 0.3], [30, 0.7]], "label": "ramp"},
            ],
        )
        cells = grid.expand()
        assert [c.controller_label for c in cells] == ["hysteresis", "ramp"]
        assert cells[0].config.pruning.controller.high == 0.4
        assert cells[1].config.pruning.controller.schedule == ((0.0, 0.3), (30.0, 0.7))

    def test_bad_controller_entry_fails_at_expand(self):
        grid = SweepGrid(levels=[TINY_LEVEL], controller=["pid"])
        with pytest.raises(ValueError, match="controller axis"):
            grid.expand()

    def test_round_trip_through_dict(self):
        grid = SweepGrid(
            levels=[TINY_LEVEL],
            controller=["none", {"kind": "hysteresis", "label": "h"}],
        )
        rebuilt = SweepGrid.from_dict(grid.to_dict())
        assert [c.config for c in rebuilt.expand()] == [
            c.config for c in grid.expand()
        ]

    def test_controller_changes_cache_identity(self):
        spec = WorkloadSpec(**{k: v for k, v in TINY_LEVEL.items() if k != "name"})
        base = ExperimentConfig(heuristic="MM", spec=spec, pruning=PruningConfig())
        adaptive = ExperimentConfig(
            heuristic="MM",
            spec=spec,
            pruning=PruningConfig(controller=ControllerConfig(kind="hysteresis")),
        )
        assert trial_key(base, 0) != trial_key(adaptive, 0)

    def test_adaptive_preset_expands(self):
        grid = SweepGrid.preset("adaptive")
        cells = grid.expand()
        assert len(cells) == grid.num_cells
        labels = {c.controller_label for c in cells}
        assert {"", "hysteresis", "target-success"} <= labels


class TestCampaignRows:
    def test_rows_carry_controller_and_sufferage(self):
        grid = SweepGrid(
            levels=[TINY_LEVEL],
            pruning=["paper"],
            controller=["none", "static"],
            trials=1,
            base_seed=5,
        )
        summary = Campaign.from_grid(grid).run()
        by_controller = {row.controller: row for row in summary.rows}
        assert set(by_controller) == {"", "static"}
        # Telemetry rides the control plane: only the controlled cell
        # reports sufferage; both report identical robustness (static ≡
        # no controller).
        assert by_controller[""].max_sufferage == 0.0
        assert by_controller["static"].max_sufferage >= 0.0
        assert by_controller[""].stats.per_trial_pct == pytest.approx(
            by_controller["static"].stats.per_trial_pct
        )

    def test_summary_round_trip_and_csv_columns(self):
        grid = SweepGrid(
            levels=[TINY_LEVEL], pruning=["paper"], controller=["static"],
            trials=1, base_seed=5,
        )
        summary = Campaign.from_grid(grid).run()
        rebuilt = CampaignSummary.from_dict(summary.to_dict())
        assert rebuilt.rows[0].controller == "static"
        assert rebuilt.rows[0].max_sufferage == summary.rows[0].max_sufferage
        header = summary.to_csv().splitlines()[0]
        # Columns are append-only: the controller pair keeps its position
        # even as later axes (dag, …) append after it.
        assert ",controller,max_sufferage," in header + ","

    def test_legacy_summary_payload_defaults(self):
        grid = SweepGrid(levels=[TINY_LEVEL], pruning=["paper"], trials=1, base_seed=5)
        summary = Campaign.from_grid(grid).run()
        payload = summary.to_dict()
        for row in payload["rows"]:
            del row["controller"], row["max_sufferage"]  # pre-PR-5 shape
        rebuilt = CampaignSummary.from_dict(payload)
        assert rebuilt.rows[0].controller == ""
        assert rebuilt.rows[0].max_sufferage == 0.0


class TestOverrideHelper:
    """``SweepGrid.with_pruning``: the grid rewrite behind the figure
    commands' ``--pruning-threshold``/``--toggle-alpha``/``--controller``."""

    GRID = SweepGrid(
        levels=[TINY_LEVEL],
        pruning=["none", "paper", "drop-only", {"label": "D25", "threshold": 0.25}],
    )

    def test_baseline_untouched(self):
        grid = self.GRID.with_pruning(threshold=0.9, dropping_toggle=3)
        assert grid.pruning[0] == "none"
        (base,) = [c for c in grid.expand() if c.config.pruning is None]
        assert base.config == self.GRID.expand()[0].config

    def test_no_overrides_is_identity(self):
        assert self.GRID.with_pruning() is self.GRID

    def test_overrides_applied(self):
        grid = self.GRID.with_pruning(
            threshold=0.75, dropping_toggle=2, controller="hysteresis:high=0.3"
        )
        pruned = [c.config.pruning for c in grid.expand() if c.config.pruning is not None]
        assert len(pruned) == 3
        for pruning in pruned:
            assert pruning.pruning_threshold == 0.75
            assert pruning.dropping_toggle == 2
            assert pruning.controller == ControllerConfig(kind="hysteresis", high=0.3)
        # Each entry keeps everything else it declared.
        assert pruned[1].enable_deferring is False


class TestCLI:
    def test_figure_with_overrides_runs(self, capsys):
        rc = main(
            [
                "fig7b", "--trials", "1", "--scale", "0.12", "--seed", "1",
                "--no-cache", "--pruning-threshold", "0.75", "--toggle-alpha", "1",
                "--controller", "hysteresis:low=0.02,high=0.3",
            ]
        )
        assert rc == 0
        assert "fig7b" in capsys.readouterr().out

    def test_sweep_controller_override_replaces_axis(self, capsys):
        rc = main(
            [
                "sweep", "smoke", "--trials", "1", "--no-cache",
                "--controller", "static",
            ]
        )
        assert rc == 0
        assert "P+static@" in capsys.readouterr().out

    def test_sweep_rejects_beta_alpha_flags(self, capsys):
        rc = main(["sweep", "smoke", "--pruning-threshold", "0.9"])
        assert rc == 2
        assert "apply to figures" in capsys.readouterr().err

    def test_bad_controller_spec_clean_exit(self, capsys):
        rc = main(["fig7b", "--controller", "pid"])
        assert rc == 2
        assert "unknown controller" in capsys.readouterr().err

    def test_bad_sweep_controller_spec_clean_exit(self, capsys):
        rc = main(["sweep", "smoke", "--no-cache", "--controller", "pid"])
        assert rc == 2
        assert "unknown controller" in capsys.readouterr().err
