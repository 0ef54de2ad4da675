"""Tests for the experiments CLI."""

import json

import pytest

from repro.experiments.cli import PAPER_SCALE, build_parser, main


class TestParser:
    def test_figure_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig7b"])
        assert args.figure == "fig7b"
        # None sentinel: figures resolve it to 10 at run time, sweeps
        # let the grid's own value win.
        assert args.trials is None
        assert parser.parse_args(["fig7b", "--trials", "10"]).trials == 10

    def test_all_and_headline_accepted(self):
        parser = build_parser()
        assert parser.parse_args(["all"]).figure == "all"
        assert parser.parse_args(["headline"]).figure == "headline"

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_paper_scale_value(self):
        assert PAPER_SCALE == pytest.approx(15000 / 900)

    def test_sweep_with_grid_accepted(self):
        args = build_parser().parse_args(["sweep", "smoke", "--jobs", "2"])
        assert args.figure == "sweep"
        assert args.grid == "smoke"
        assert args.jobs == 2

    def test_processes_is_a_jobs_alias(self):
        assert build_parser().parse_args(["fig7b", "--processes", "3"]).jobs == 3
        assert build_parser().parse_args(["fig7b", "-j", "4"]).jobs == 4

    def test_cache_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["fig7b", "--cache-dir", str(tmp_path), "--no-cache"]
        )
        assert args.cache_dir == tmp_path
        assert args.no_cache is True


class TestMain:
    def test_fig6_runs(self, capsys):
        rc = main(["fig6", "--scale", "0.2", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out

    def test_figure_table_printed(self, capsys):
        rc = main(
            ["fig7b", "--trials", "1", "--scale", "0.12", "--seed", "1", "--no-cache"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig7b" in out
        assert "MM" in out and "reactive Toggle" in out

    def test_json_output(self, tmp_path, capsys):
        rc = main(
            [
                "fig7b",
                "--trials",
                "1",
                "--scale",
                "0.12",
                "--seed",
                "1",
                "--no-cache",
                "--json-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "fig7b.json").read_text())
        assert payload["figure_id"] == "fig7b"

    def test_stray_grid_argument_rejected(self, capsys):
        """Regression: `fig7b oversub` (user meant `sweep oversub`) must
        error out instead of silently running fig7b."""
        assert main(["fig7b", "oversub"]) == 2
        assert "sweep oversub" in capsys.readouterr().err

    def test_figure_uses_cache_dir(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = [
            "fig7b", "--trials", "1", "--scale", "0.12", "--seed", "1",
            "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        cached = set(cache.rglob("*.json"))
        assert cached  # cold run populated the cache
        assert main(argv) == 0  # warm run served from it
        assert set(cache.rglob("*.json")) == cached


class TestValidation:
    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["fig7b", "--trials", "0"], "trials must be positive"),
            (["fig7b", "--scale", "0"], "scale must be positive"),
            (["fig7b", "--pruning-threshold", "1.5"], "pruning_threshold must be in [0, 1]"),
            (["fig7b", "--toggle-alpha", "-1"], "dropping_toggle must be >= 0"),
            (["churn", "--scale", "0"], "scale must be positive"),
            (["fig6", "--scale", "0"], "scale must be positive"),
            (["all", "--trials", "0"], "trials must be positive"),
            (["sweep", "smoke", "--trials", "0"], "trials must be positive"),
        ],
    )
    def test_bad_value_exits_2_before_any_trial(self, argv, message, monkeypatch, capsys):
        """Figures and sweeps validate their grid the same way: a named
        one-line error and exit 2, never a traceback after the run."""

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran before validation")

        monkeypatch.setattr("repro.experiments.campaign.run_trial", no_trials)
        assert main([*argv, "--no-cache"]) == 2
        assert message in capsys.readouterr().err


class TestSweep:
    def test_sweep_smoke(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "smoke",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign smoke" in out
        payload = json.loads((tmp_path / "campaign-smoke.json").read_text())
        assert payload["name"] == "smoke"
        assert (tmp_path / "campaign-smoke.csv").exists()

    def test_sweep_grid_file(self, tmp_path, capsys):
        grid = {
            "name": "mini",
            "heuristics": ["MM"],
            "levels": [{"name": "t", "num_tasks": 40, "time_span": 30.0,
                        "num_task_types": 3}],
            "pruning": ["none"],
            "trials": 1,
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        rc = main(["sweep", str(path), "--no-cache"])
        assert rc == 0
        assert "campaign mini" in capsys.readouterr().out

    def test_sweep_trials_override(self, tmp_path, capsys):
        rc = main(
            ["sweep", "smoke", "--trials", "1", "--no-cache",
             "--json-dir", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "campaign-smoke.json").read_text())
        assert all(r["stats"]["trials"] == 1 for r in payload["rows"])

    def test_sweep_explicit_override_matching_figure_default(self, tmp_path, capsys):
        """Regression: an explicit --trials equal to the figure default
        (10) must still override the grid's own trial count."""
        grid = {
            "name": "ovr",
            "heuristics": ["MM"],
            "levels": [{"name": "t", "num_tasks": 40, "time_span": 30.0,
                        "num_task_types": 3}],
            "pruning": ["none"],
            "trials": 1,
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        rc = main(["sweep", str(path), "--trials", "10", "--no-cache",
                   "--json-dir", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "campaign-ovr.json").read_text())
        assert all(r["stats"]["trials"] == 10 for r in payload["rows"])

    def test_sweep_name_sanitized_in_output_paths(self, tmp_path, capsys):
        grid = {
            "name": "bad/name",
            "heuristics": ["MM"],
            "levels": [{"name": "t", "num_tasks": 40, "time_span": 30.0,
                        "num_task_types": 3}],
            "pruning": ["none"],
            "trials": 1,
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        rc = main(["sweep", str(path), "--no-cache", "--json-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "campaign-bad_name.json").exists()

    def test_sweep_without_grid_errors(self, capsys):
        assert main(["sweep"]) == 2
        assert "sweep needs a grid" in capsys.readouterr().err

    def test_sweep_rejects_chart_flag(self, capsys):
        assert main(["sweep", "smoke", "--chart"]) == 2
        assert "--chart" in capsys.readouterr().err

    def test_sweep_unknown_grid_errors_cleanly(self, capsys):
        """A typo'd preset gets the one-line stderr + exit 2 treatment,
        not a traceback."""
        assert main(["sweep", "oversubb"]) == 2
        assert "neither a preset" in capsys.readouterr().err

    def test_sweep_bad_grid_content_errors_cleanly(self, tmp_path, capsys):
        """Grid-content errors (surfacing at expand time) get the same
        clean exit as load errors, whichever axis they come from."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "pruning": ["bogus"], "trials": 1}))
        assert main(["sweep", str(path), "--no-cache"]) == 2
        assert "unrecognized pruning entry" in capsys.readouterr().err
        path.write_text(json.dumps({"name": "bad", "levels": ["16k"], "trials": 1}))
        assert main(["sweep", str(path), "--no-cache"]) == 2
        assert "unknown level" in capsys.readouterr().err
        path.write_text(json.dumps({"name": "bad", "heuristics": ["NOPE"], "trials": 1}))
        assert main(["sweep", str(path), "--no-cache"]) == 2
        assert "unknown heuristic" in capsys.readouterr().err
