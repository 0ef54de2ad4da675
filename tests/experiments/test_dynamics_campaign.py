"""Campaign-layer guarantees extended to dynamics and trace-replay cells.

The load-bearing property: a failure schedule is a pure function of
(config, trial index), so ``--jobs N`` stays bit-identical to a serial
run even when machines die mid-trial — this is what makes the whole
campaign layer trustworthy for churn experiments.
"""

import json

import numpy as np
import pytest

from repro.experiments.campaign import (
    Campaign,
    ResultCache,
    SweepGrid,
    _resolve,
    run_cell_trials,
    trial_key,
)
from repro.experiments.runner import ExperimentConfig
from repro.sim.dynamics import DynamicsSpec
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import save_csv_trace, trace_spec
from repro.workload.generator import generate_workload


def _dyn_config(**overrides):
    defaults = dict(
        heuristic="MM",
        spec=WorkloadSpec(num_tasks=100, time_span=60.0, num_task_types=4),
        trials=2,
        base_seed=3,
        dynamics=DynamicsSpec(failures=2, mean_downtime=10.0, scale_up=1),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestParallelIdentityUnderDynamics:
    def test_jobs2_identical_to_serial_with_failures(self):
        configs = [
            _dyn_config(),
            _dyn_config(heuristic="MCT"),
            _dyn_config(dynamics=DynamicsSpec(failures=1, mean_downtime=0.0)),
        ]
        serial = run_cell_trials(configs)
        parallel = run_cell_trials(configs, jobs=2)
        assert [
            [json.dumps(r.to_dict(), sort_keys=True) for r in cell] for cell in serial
        ] == [
            [json.dumps(r.to_dict(), sort_keys=True) for r in cell] for cell in parallel
        ]
        # The cells actually churned — this test must not pass vacuously.
        assert any(
            r.dynamics_stats.get("failures", 0) + r.dynamics_stats.get("skipped", 0)
            for cell in serial
            for r in cell
        )

    def test_trace_replay_identical_across_jobs(self, tmp_path, pet_small):
        spec = WorkloadSpec(num_tasks=80, time_span=40.0, num_task_types=3)
        tasks = generate_workload(spec, pet_small, np.random.default_rng(5))
        path = tmp_path / "t.csv"
        save_csv_trace(path, tasks)
        config = ExperimentConfig(
            heuristic="MM", spec=trace_spec(path), trials=3, base_seed=3
        )
        serial = run_cell_trials([config])
        parallel = run_cell_trials([config], jobs=2)
        assert [r.to_dict() for r in serial[0]] == [r.to_dict() for r in parallel[0]]
        # Replay trials share the task list but not execution sampling.
        assert serial[0][0].to_dict() != serial[0][1].to_dict()


class TestCacheKeysCoverDynamics:
    def test_dynamics_changes_cache_key(self):
        static = _dyn_config(dynamics=None)
        churn = _dyn_config()
        churn2 = _dyn_config(dynamics=DynamicsSpec(failures=3, mean_downtime=10.0))
        keys = {trial_key(c, 0) for c in (static, churn, churn2)}
        assert len(keys) == 3

    def test_trace_content_changes_cache_key(self, tmp_path, pet_small):
        spec = WorkloadSpec(num_tasks=60, time_span=40.0, num_task_types=3)
        tasks = generate_workload(spec, pet_small, np.random.default_rng(5))
        path = tmp_path / "t.csv"
        save_csv_trace(path, tasks)
        config = ExperimentConfig(heuristic="MM", spec=trace_spec(path), trials=1)
        key_before = trial_key(config, 0)
        # Same path, edited contents: must be a different cache identity.
        save_csv_trace(path, tasks[:-1])
        key_after = trial_key(config, 0)
        assert key_before != key_after

    def test_dynamics_cells_hit_cache_on_rerun(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = _dyn_config()
        run_cell_trials([config], cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 2}
        run_cell_trials([config], cache=cache)
        assert cache.stats() == {"hits": 2, "misses": 2}


class TestGridDynamicsAxis:
    def test_resolve_named_and_mapping_entries(self):
        label, spec = _resolve("dynamics", "churn")
        assert label == "churn" and spec.failures == 3
        label, spec = _resolve("dynamics", 
            {"failures": 1, "scale_up": 2, "window": [0.1, 0.5]}
        )
        assert label == "dyn-f1-up2"
        assert spec.window == (0.1, 0.5)
        assert _resolve("dynamics", "none") == ("static", None)

    def test_unknown_dynamics_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown dynamics keys"):
            _resolve("dynamics", {"failure": 3})

    def test_all_zero_mapping_is_the_static_cell(self):
        # {"failures": 0} must share identity with "none" — otherwise a
        # grid double-computes byte-identical cells under two labels.
        assert _resolve("dynamics", {"failures": 0}) == ("static", None)

    def test_distinct_downtimes_get_distinct_derived_labels(self):
        a, _ = _resolve("dynamics", {"failures": 2, "mean_downtime": 10.0})
        b, _ = _resolve("dynamics", {"failures": 2, "mean_downtime": 99.0})
        assert a != b
        grid = SweepGrid(
            levels=({"num_tasks": 50, "time_span": 30.0},),
            pruning=("none",),
            dynamics=(
                {"failures": 2, "mean_downtime": 10.0},
                {"failures": 2, "mean_downtime": 99.0},
            ),
            trials=1,
        )
        assert len(grid.expand()) == 2

    def test_trace_level_not_duplicated_across_pattern_axis(self, tmp_path, pet_small):
        spec = WorkloadSpec(num_tasks=40, time_span=30.0, num_task_types=3)
        tasks = generate_workload(spec, pet_small, np.random.default_rng(5))
        path = tmp_path / "t.csv"
        save_csv_trace(path, tasks)
        grid = SweepGrid(
            levels=({"trace": str(path), "name": "t"},),
            patterns=("spiky", "constant"),
            pruning=("none",),
            trials=1,
        )
        # The pattern axis does not apply to a replayed file: one cell,
        # not two colliding ones — and num_cells must agree with expand().
        cells = grid.expand()
        assert len(cells) == 1
        assert cells[0].pattern == "trace"
        assert grid.num_cells == len(cells)
        assert grid.total_trials == len(cells) * grid.trials

    def test_grid_expands_dynamics_cross_product(self):
        grid = SweepGrid(
            heuristics=("MM",),
            levels=({"num_tasks": 50, "time_span": 30.0},),
            pruning=("none",),
            dynamics=("none", "churn"),
            trials=1,
        )
        cells = grid.expand()
        assert len(cells) == 2
        assert [c.dynamics_label for c in cells] == ["static", "churn"]
        assert cells[0].config.dynamics is None
        assert cells[1].config.dynamics == DynamicsSpec(failures=3)
        assert cells[1].config.display_label.endswith("/churn")

    def test_grid_json_round_trip_preserves_dynamics(self, tmp_path):
        grid = SweepGrid(
            dynamics=("none", {"label": "c", "failures": 2, "mean_downtime": 5.0}),
            trials=1,
        )
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid.to_dict()))
        loaded = SweepGrid.from_json(path)
        assert loaded.dynamics == grid.dynamics
        assert [c.config.dynamics for c in loaded.expand()] == [
            c.config.dynamics for c in grid.expand()
        ]

    def test_trace_pattern_with_synthetic_level_gets_clear_error(self):
        grid = SweepGrid(patterns=("trace",), levels=("20k",), trials=1)
        with pytest.raises(ValueError, match="applies only to trace levels"):
            grid.expand()

    def test_presets_expand(self):
        for name in ("churn", "bursty", "trace"):
            grid = SweepGrid.preset(name)
            if name == "trace":
                # Repo-relative trace paths: resolvable from the checkout
                # root (where tests run).
                cells = Campaign.from_grid(grid).cells
                assert all(
                    c.config.spec.pattern.value == "trace" for c in cells
                )
            else:
                assert grid.num_cells == len(Campaign.from_grid(grid).cells)
