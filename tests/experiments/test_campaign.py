"""Tests for the campaign orchestration subsystem.

The three guarantees under test (see the module docstring of
``repro.experiments.campaign``): parallel execution is bit-for-bit
identical to serial, the result cache is content-addressed, and
aggregation is order-independent.
"""

import json
import time

import pytest

from repro.core.config import PruningConfig
from repro.experiments.campaign import (
    PRESETS,
    Campaign,
    ResultCache,
    SweepGrid,
    run_cell_trials,
    trial_key,
)
from repro.experiments.runner import ExperimentConfig, run_trial
from repro.metrics.collector import SimulationResult
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(num_tasks=60, time_span=50.0, num_task_types=3)


def _configs(trials: int = 2) -> list[ExperimentConfig]:
    return [
        ExperimentConfig(heuristic="MM", spec=SPEC, trials=trials, base_seed=11),
        ExperimentConfig(
            heuristic="MM",
            spec=SPEC,
            pruning=PruningConfig.paper_default(),
            trials=trials,
            base_seed=11,
        ),
    ]


# ======================================================================
class TestSweepGrid:
    def test_expansion_is_full_cross_product(self):
        grid = SweepGrid(
            heuristics=("MM", "MSD"),
            levels=("15k", "25k"),
            pruning=("none", "paper"),
            trials=3,
        )
        cells = grid.expand()
        assert len(cells) == grid.num_cells == 8
        assert grid.total_trials == 24
        assert len({c.config.label for c in cells}) == 8  # labels unique

    def test_cell_labels_carry_coordinates(self):
        cells = SweepGrid(heuristics=("MSD",), levels=("25k",)).expand()
        assert cells[0].config.label == "MSD/base@25k/spiky/inconsistent"
        assert cells[1].config.label == "MSD/P@25k/spiky/inconsistent"

    def test_custom_level_mapping(self):
        grid = SweepGrid(
            levels=({"name": "mini", "num_tasks": 50, "time_span": 40.0},),
            pruning=("none",),
            trials=1,
        )
        (cell,) = grid.expand()
        assert cell.level == "mini"
        assert cell.config.spec.num_tasks == 50
        assert cell.config.spec.time_span == 40.0

    def test_scale_applies_to_custom_levels(self):
        grid = SweepGrid(
            levels=({"num_tasks": 100, "time_span": 40.0},),
            pruning=("none",),
            scale=0.5,
            trials=1,
        )
        (cell,) = grid.expand()
        assert cell.config.spec.num_tasks == 50
        assert cell.config.spec.time_span == 20.0
        # the derived name reports what actually runs, not the pre-scale count
        assert cell.level == "50t"

    def test_scale_preserves_spike_period_for_custom_levels(self):
        """Matching level_spec: the spike *period* is the regime, so the
        spike count stretches with the span unless explicitly given."""
        grid = SweepGrid(
            levels=({"num_tasks": 100, "time_span": 40.0},),
            pruning=("none",),
            scale=3.0,
            trials=1,
        )
        (cell,) = grid.expand()
        assert cell.config.spec.num_spikes == 12  # default 4 x scale 3
        pinned = SweepGrid(
            levels=({"num_tasks": 100, "time_span": 40.0, "num_spikes": 2},),
            pruning=("none",),
            scale=3.0,
            trials=1,
        ).expand()[0]
        assert pinned.config.spec.num_spikes == 2  # explicit value wins

    def test_level_integral_floats_coerced(self):
        """40.0 and 40 must be the same experiment — the count feeds RNG
        stream names and cache keys."""
        a = SweepGrid(levels=({"num_tasks": 40.0, "time_span": 30.0},), trials=1)
        b = SweepGrid(levels=({"num_tasks": 40, "time_span": 30.0},), trials=1)
        cfg_a, cfg_b = a.expand()[0].config, b.expand()[0].config
        assert cfg_a.spec.num_tasks == 40 and isinstance(cfg_a.spec.num_tasks, int)
        assert trial_key(cfg_a, 0) == trial_key(cfg_b, 0)
        with pytest.raises(ValueError, match="num_tasks must be an integer"):
            SweepGrid(levels=({"num_tasks": 40.5},), trials=1).expand()

    def test_json_integral_floats_coerced(self):
        grid = SweepGrid.from_dict({"name": "j", "trials": 2.0, "base_seed": 7.0})
        assert grid.trials == 2 and isinstance(grid.trials, int)
        assert grid.base_seed == 7 and isinstance(grid.base_seed, int)
        with pytest.raises(ValueError, match="trials must be an integer"):
            SweepGrid(trials=2.5)
        with pytest.raises(ValueError, match="scale must be positive"):
            SweepGrid(scale=0.0)

    def test_pruning_variants_resolve(self):
        grid = SweepGrid(
            pruning=(
                "none",
                "paper",
                "defer-only",
                "drop-only",
                {"threshold": 0.75, "toggle": "never", "drop": False},
            ),
            trials=1,
        )
        cells = grid.expand()
        labels = [c.pruning_label for c in cells]
        assert labels == ["base", "P", "D50", "T", "P75-never-nodrop"]
        assert cells[0].config.pruning is None
        assert cells[2].config.pruning.enable_dropping is False
        assert cells[4].config.pruning.pruning_threshold == 0.75

    def test_bad_entries_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(pruning=("bogus",)).expand()
        with pytest.raises(ValueError):
            SweepGrid(levels=(3.14,)).expand()
        with pytest.raises(ValueError):
            SweepGrid(trials=0)

    def test_pruning_typo_keys_rejected(self):
        """Regression: a typo'd key must not silently run the default
        configuration under a wrong label."""
        with pytest.raises(ValueError, match="unknown pruning keys"):
            SweepGrid(pruning=({"thresold": 0.75},)).expand()

    def test_level_typo_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown level keys"):
            SweepGrid(levels=({"num_task": 40},)).expand()

    def test_all_axes_validated_at_expand_time(self):
        """Typos on any axis must fail before a single trial runs."""
        with pytest.raises(ValueError, match="unknown heuristic"):
            SweepGrid(heuristics=("NOPE",)).expand()
        with pytest.raises(ValueError, match="unknown heterogeneity"):
            SweepGrid(heterogeneity=("bogus",)).expand()
        with pytest.raises(KeyError, match="unknown level"):
            SweepGrid(levels=("16k",)).expand()

    def test_colliding_cell_labels_rejected(self):
        """Regression: distinct variants deriving the same label would
        be indistinguishable in summaries — expand() must refuse."""
        with pytest.raises(ValueError, match="duplicate cell labels"):
            SweepGrid(
                pruning=(
                    {"threshold": 0.5, "dropping_toggle": 1},
                    {"threshold": 0.5, "fairness_factor": 0.1},
                )
            ).expand()
        # distinct switches get distinct derived labels
        cells = SweepGrid(
            pruning=({"drop": False}, {"fairness": False})
        ).expand()
        assert [c.pruning_label for c in cells] == ["P50-nodrop", "P50-nofair"]

    def test_json_round_trip(self, tmp_path):
        grid = SweepGrid(name="rt", heuristics=("MM", "MMU"), trials=5, scale=0.5)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid.to_dict()))
        loaded = SweepGrid.from_json(path)
        assert loaded == grid

    def test_non_list_and_empty_axes_rejected(self):
        """A scalar or empty axis is a typo'd grid, not a 0-cell
        campaign that silently exits green."""
        with pytest.raises(ValueError, match="levels must be a list"):
            SweepGrid.from_dict({"name": "x", "levels": 15})
        with pytest.raises(ValueError, match="heuristics must not be empty"):
            SweepGrid.from_dict({"name": "x", "heuristics": []})

    def test_unknown_grid_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep-grid keys"):
            SweepGrid.from_dict({"name": "x", "heuristic": ["MM"]})

    def test_malformed_grid_sources_raise_value_error(self, tmp_path):
        """Directories, broken JSON, and non-object payloads all fail
        as ValueError so the CLI's clean-exit path catches them."""
        with pytest.raises(ValueError, match="must be a JSON object"):
            SweepGrid.from_dict([{"name": "x"}])
        with pytest.raises(ValueError, match="cannot read grid file"):
            SweepGrid.from_json(tmp_path)  # a directory
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            SweepGrid.from_json(bad)

    def test_string_booleans_rejected(self):
        """bool('false') is True — a stringly-typed switch must error,
        not silently run the opposite configuration."""
        with pytest.raises(ValueError, match="expected true/false"):
            SweepGrid(pruning=({"defer": "false"},), trials=1).expand()

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"pruning": ({"dropping_toggle": 2.7},)}, "pruning axis: .*dropping_toggle"),
            ({"pruning": ({"dropping_toggle": True},)}, "pruning axis: .*dropping_toggle"),
            ({"pruning": ({"threshold": True},)}, "pruning axis: .*threshold"),
            ({"dynamics": ({"failures": True},)}, "dynamics axis: .*failures"),
            ({"dag": ({"layers": 3, "edge_prob": True},)}, "dag axis: .*edge_prob"),
            ({"trials": True}, "trials must be an integer"),
        ],
    )
    def test_non_numbers_rejected_by_axis_and_key(self, overrides, match):
        """A bool is never a number and a fractional float never a count:
        each fails loudly, naming its axis and key, instead of being
        truncated or carried into a label."""
        with pytest.raises(ValueError, match=match):
            SweepGrid(**{"pruning": ("paper",), "trials": 1, **overrides}).expand()

    def test_mutating_loaded_grid_does_not_corrupt_presets(self):
        grid = SweepGrid.preset("smoke")
        grid.levels[0]["num_tasks"] = 9999
        fresh = SweepGrid.preset("smoke")
        assert fresh.levels[0]["num_tasks"] != 9999

    def test_presets_all_expand(self):
        for name in PRESETS:
            grid = SweepGrid.preset(name)
            assert grid.name == name
            assert grid.num_cells == len(grid.expand())

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            SweepGrid.preset("nope")

    def test_load_resolves_preset_and_path(self, tmp_path):
        assert SweepGrid.load("smoke").name == "smoke"
        path = tmp_path / "g.json"
        path.write_text(json.dumps(SweepGrid(name="fromfile").to_dict()))
        assert SweepGrid.load(str(path)).name == "fromfile"
        with pytest.raises(ValueError):
            SweepGrid.load("no/such/thing.json")


# ======================================================================
class TestTrialKey:
    def test_stable_for_equal_configs(self):
        a, b = _configs()[0], _configs()[0]
        assert trial_key(a, 0) == trial_key(b, 0)

    def test_differs_across_trials_and_params(self):
        cfg = _configs()[0]
        assert trial_key(cfg, 0) != trial_key(cfg, 1)
        assert trial_key(cfg, 0) != trial_key(
            ExperimentConfig(heuristic="MSD", spec=SPEC, trials=2, base_seed=11), 0
        )
        assert trial_key(cfg, 0) != trial_key(
            ExperimentConfig(heuristic="MM", spec=SPEC, trials=2, base_seed=12), 0
        )

    def test_pruning_threshold_changes_key(self):
        base = ExperimentConfig(
            heuristic="MM", spec=SPEC, pruning=PruningConfig(pruning_threshold=0.5)
        )
        variant = ExperimentConfig(
            heuristic="MM", spec=SPEC, pruning=PruningConfig(pruning_threshold=0.75)
        )
        assert trial_key(base, 0) != trial_key(variant, 0)

    def test_display_label_does_not_change_key(self):
        cfg = _configs()[0]
        relabelled = ExperimentConfig(
            heuristic="MM", spec=SPEC, trials=2, base_seed=11, label="pretty"
        )
        assert trial_key(cfg, 0) == trial_key(relabelled, 0)

    def test_code_changes_change_key(self, monkeypatch):
        """Editing simulation source must invalidate cached trials —
        the key carries a digest of the repro source tree."""
        from repro.experiments import campaign as campaign_mod

        before = trial_key(_configs()[0], 0)
        monkeypatch.setattr(campaign_mod, "_CODE_FINGERPRINT", "deadbeef")
        assert trial_key(_configs()[0], 0) != before


# ======================================================================
class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = _configs()[0]
        assert cache.get(cfg, 0) is None
        result = run_trial(cfg, 0)
        cache.put(cfg, 0, result)
        restored = cache.get(cfg, 0)
        assert restored == result
        assert cache.stats() == {"hits": 1, "misses": 1}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = _configs()[0]
        cache.path_for(cfg, 0).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(cfg, 0).write_text("{not json")
        assert cache.get(cfg, 0) is None

    def test_entries_segregated_by_provenance(self, tmp_path, monkeypatch):
        """A 'code edit' (different fingerprint) writes to a separate
        subdirectory; neither version sees the other's entries."""
        from repro.experiments import campaign as campaign_mod

        cache = ResultCache(tmp_path)
        cfg = _configs()[0]
        result = run_trial(cfg, 0)
        cache.put(cfg, 0, result)
        old_dir = cache.current_dir
        monkeypatch.setattr(campaign_mod, "_CODE_FINGERPRINT", "deadbeef")
        assert cache.current_dir != old_dir
        assert cache.get(cfg, 0) is None  # other provenance, no hit
        cache.put(cfg, 0, result)
        assert len([p for p in tmp_path.iterdir() if p.is_dir()]) == 2

    def test_prune_stale_ages_out_old_provenances(self, tmp_path, monkeypatch):
        import os as os_mod

        from repro.experiments import campaign as campaign_mod

        cache = ResultCache(tmp_path)
        cfg = _configs()[0]
        cache.put(cfg, 0, run_trial(cfg, 0))
        old_dir = cache.current_dir
        orphan = old_dir / f"{'0' * 32}.tmp123"
        orphan.write_text("partial write")
        monkeypatch.setattr(campaign_mod, "_CODE_FINGERPRINT", "deadbeef")
        # A fresh tmp file may be a concurrent writer's in-flight entry:
        # never reaped young, only once stale.
        assert cache.prune_stale() == 0
        assert orphan.exists()
        hour_old = time.time() - 2 * 3600  # reprolint: ignore[D001] forging mtimes to test wall-clock cache pruning
        os_mod.utime(orphan, (hour_old, hour_old))
        assert cache.prune_stale() == 1
        assert not orphan.exists() and old_dir.is_dir()
        # aged past the cutoff -> whole directory removed
        stale = time.time() - 8 * 86400  # reprolint: ignore[D001] forging mtimes to test wall-clock cache pruning
        os_mod.utime(old_dir, (stale, stale))
        assert cache.prune_stale() == 1
        assert not old_dir.exists()

    def test_prune_never_touches_foreign_content(self, tmp_path):
        """--cache-dir pointed at a directory with unrelated content
        must not destroy any of it."""
        import os as os_mod

        foreign_dir = tmp_path / "results"
        foreign_dir.mkdir()
        (foreign_dir / "data.json").write_text("{}")
        foreign_tmp = tmp_path / "notes.tmp.txt"
        foreign_tmp.write_text("keep me")
        week_old = time.time() - 8 * 86400  # reprolint: ignore[D001] forging mtimes to test wall-clock cache pruning
        for path in (foreign_dir, foreign_tmp):
            os_mod.utime(path, (week_old, week_old))
        assert ResultCache(tmp_path).prune_stale() == 0
        assert foreign_dir.is_dir() and foreign_tmp.exists()

    def test_result_dict_round_trip_is_exact(self):
        result = run_trial(_configs()[1], 0)
        clone = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone == result


# ======================================================================
class TestParallelEquivalence:
    def test_jobs2_identical_to_serial(self):
        """A sharded campaign reproduces the serial per-trial results
        bit-for-bit (same seeds, any completion order)."""
        configs = _configs(trials=2)
        serial = run_cell_trials(configs, jobs=1)
        parallel = run_cell_trials(configs, jobs=2)
        assert serial == parallel
        # byte-level check through the canonical serialized form
        assert [
            [json.dumps(r.to_dict(), sort_keys=True) for r in cell] for cell in serial
        ] == [
            [json.dumps(r.to_dict(), sort_keys=True) for r in cell] for cell in parallel
        ]

    def test_cache_hits_on_immediate_rerun(self, tmp_path):
        configs = _configs(trials=2)
        cache = ResultCache(tmp_path)
        cold = run_cell_trials(configs, jobs=2, cache=cache)
        assert cache.stats() == {"hits": 0, "misses": 4}
        warm = run_cell_trials(configs, jobs=2, cache=cache)
        assert cache.stats() == {"hits": 4, "misses": 4}
        assert warm == cold

    def test_partial_cache_resumes(self, tmp_path):
        """An interrupted campaign (some trials cached) completes the
        rest and matches an uncached run exactly."""
        configs = _configs(trials=2)
        reference = run_cell_trials(configs, jobs=1)
        cache = ResultCache(tmp_path)
        cache.put(configs[0], 1, reference[0][1])  # pretend one trial survived
        resumed = run_cell_trials(configs, cache=cache)
        assert resumed == reference
        assert cache.hits == 1

    def test_failing_trial_caches_completed_siblings(self, tmp_path):
        """A crashing cell must not discard the other cells' finished
        work: everything completed is cached before the error surfaces,
        so a resumed run re-executes only the broken piece."""
        good = _configs(trials=2)[0]
        # unknown heuristic -> run_trial raises inside the worker
        bad = ExperimentConfig(heuristic="NOPE", spec=SPEC, trials=1, base_seed=11)
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyError, match="unknown heuristic"):
            run_cell_trials([good, bad], jobs=2, cache=cache)
        # the good cell's trials survived the sibling failure
        assert cache.get(good, 0) is not None
        assert cache.get(good, 1) is not None

    def test_heuristic_names_normalized(self):
        """'mm' and 'MM' are the same experiment: one cache identity,
        one label spelling."""
        lower = SweepGrid(heuristics=("mm",), pruning=("none",), trials=1).expand()
        upper = SweepGrid(heuristics=("MM",), pruning=("none",), trials=1).expand()
        assert lower[0].config.heuristic == "MM"
        assert lower[0].config.label == upper[0].config.label
        assert trial_key(lower[0].config, 0) == trial_key(upper[0].config, 0)

    def test_pruning_mapping_defaults_match_dataclass(self):
        """An empty mapping entry must equal PruningConfig() exactly —
        the defaults live in one place."""
        (cell,) = SweepGrid(pruning=({},), trials=1).expand()
        assert cell.config.pruning == PruningConfig()

    def test_campaign_aggregates_in_trial_order(self):
        configs = _configs(trials=3)
        process = Campaign.from_configs(configs).run(jobs=2, executor="process")
        serial = Campaign.from_configs(configs).run(executor="serial")
        assert [r.stats.per_trial_pct for r in process.rows] == [
            r.stats.per_trial_pct for r in serial.rows
        ]
        assert [r.stats.per_trial_pct for r in serial.rows] == [
            tuple(run_trial(c, t).robustness_pct for t in range(3)) for c in configs
        ]


# ======================================================================
class TestCampaign:
    def test_run_produces_summary(self, tmp_path):
        grid = SweepGrid.preset("smoke")
        cache = ResultCache(tmp_path)
        summary = Campaign.from_grid(grid).run(jobs=2, cache=cache)
        assert summary.name == "smoke"
        assert summary.labels == [c.config.label for c in grid.expand()]
        assert summary.cache_misses == grid.total_trials
        assert summary.jobs == 2
        rerun = Campaign.from_grid(grid).run(cache=cache)
        assert rerun.cache_hits == grid.total_trials
        assert [r.stats for r in rerun.rows] == [r.stats for r in summary.rows]

    def test_compare_cells(self):
        summary = Campaign.from_configs(_configs(trials=3), name="cmp").run()
        comparison = summary.compare(summary.labels[0], summary.labels[1])
        assert comparison.trials == 3

    def test_from_configs_rejects_colliding_labels(self):
        """Same guard as expand(): two configs deriving the same display
        label would be indistinguishable in the summary."""
        twins = [
            ExperimentConfig(heuristic="MM", spec=SPEC, trials=1, base_seed=1),
            ExperimentConfig(heuristic="MM", spec=SPEC, trials=1, base_seed=2),
        ]
        with pytest.raises(ValueError, match="duplicate cell labels"):
            Campaign.from_configs(twins)

    def test_non_numeric_scale_rejected(self):
        with pytest.raises(ValueError, match="scale must be a number"):
            SweepGrid.from_dict({"name": "s", "scale": "2"})

    def test_summary_json_and_csv_round_trip(self, tmp_path):
        summary = Campaign.from_grid(SweepGrid.preset("smoke")).run()
        path = tmp_path / "c.json"
        summary.save_json(path)
        from repro.experiments.report import CampaignSummary

        loaded = CampaignSummary.load_json(path)
        assert loaded.rows == summary.rows
        summary.save_csv(tmp_path / "c.csv")
        header = (tmp_path / "c.csv").read_text().splitlines()[0]
        assert header.startswith("label,heuristic,level,")

    def test_unknown_label_raises(self):
        summary = Campaign.from_grid(SweepGrid.preset("smoke")).run()
        with pytest.raises(KeyError):
            summary.get("nope")
