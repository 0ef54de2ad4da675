"""Tests for the experiment trial runner."""

import pytest

from repro.core.config import PruningConfig
from repro.experiments.runner import (
    ExperimentConfig,
    _trial_workload,
    pet_matrix,
    run_experiment,
    run_trial,
)
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(num_tasks=80, time_span=60.0, num_task_types=3)


class TestPetMatrix:
    def test_cached(self):
        assert pet_matrix() is pet_matrix()

    def test_homogeneous_kind(self):
        assert pet_matrix("homogeneous").is_homogeneous()
        assert not pet_matrix("inconsistent").is_homogeneous()

    def test_paper_dimensions(self):
        pet = pet_matrix()
        assert pet.num_task_types == 12
        assert pet.num_machine_types == 8

    def test_shared_matrix_is_read_only(self):
        """Regression: the lru-cached matrix is shared by every
        experiment in the process — writes must raise, not silently
        corrupt all later experiments."""
        pet = pet_matrix()
        with pytest.raises(ValueError):
            pet.means[0, 0] = 0.0
        with pytest.raises((AttributeError, TypeError)):
            pet.pmfs[0][0] = None  # tuples reject item assignment


class TestTrialWorkloads:
    def test_same_trial_same_tasks(self):
        pet = pet_matrix()
        a = _trial_workload(SPEC, pet, 42, 0)
        b = _trial_workload(SPEC, pet, 42, 0)
        assert [(t.arrival, t.deadline) for t in a] == [(t.arrival, t.deadline) for t in b]

    def test_trials_differ(self):
        pet = pet_matrix()
        a = _trial_workload(SPEC, pet, 42, 0)
        b = _trial_workload(SPEC, pet, 42, 1)
        assert [t.arrival for t in a] != [t.arrival for t in b]

    def test_workload_independent_of_variant(self):
        """Both variants of a comparison see the *same* workload trial —
        the paper's paired-trial methodology."""
        cfg_a = ExperimentConfig(heuristic="MM", spec=SPEC, trials=1)
        cfg_b = ExperimentConfig(
            heuristic="MSD", spec=SPEC, pruning=PruningConfig.paper_default(), trials=1
        )
        pet = pet_matrix()
        a = _trial_workload(cfg_a.spec, pet, cfg_a.base_seed, 0)
        b = _trial_workload(cfg_b.spec, pet, cfg_b.base_seed, 0)
        assert [(t.arrival, t.task_type) for t in a] == [(t.arrival, t.task_type) for t in b]


class TestRunTrial:
    def test_returns_trimmed_result(self):
        cfg = ExperimentConfig(heuristic="MM", spec=SPEC, trials=1)
        res = run_trial(cfg, 0)
        # trimmed window: total < generated count
        assert 0 < res.total

    def test_deterministic(self):
        cfg = ExperimentConfig(heuristic="MM", spec=SPEC, trials=1)
        r1, r2 = run_trial(cfg, 0), run_trial(cfg, 0)
        assert r1.on_time == r2.on_time

    def test_label(self):
        cfg = ExperimentConfig(heuristic="MM", spec=SPEC)
        assert cfg.display_label == "MM"
        cfg_p = ExperimentConfig(
            heuristic="MM", spec=SPEC, pruning=PruningConfig.paper_default()
        )
        assert cfg_p.display_label == "MM-P"
        assert ExperimentConfig(heuristic="MM", spec=SPEC, label="x").display_label == "x"


class TestRunExperiment:
    def test_aggregates_all_trials(self):
        cfg = ExperimentConfig(heuristic="MM", spec=SPEC, trials=3)
        agg = run_experiment(cfg)
        assert agg.trials == 3
        assert 0.0 <= agg.mean_pct <= 100.0

    def test_homogeneous_experiment_runs(self):
        cfg = ExperimentConfig(
            heuristic="EDF", spec=SPEC, heterogeneity="homogeneous", trials=2
        )
        agg = run_experiment(cfg)
        assert agg.trials == 2


class TestParallelTrials:
    def test_parallel_matches_serial(self):
        cfg = ExperimentConfig(heuristic="MM", spec=SPEC, trials=3)
        serial = run_experiment(cfg)
        parallel = run_experiment(cfg, jobs=2)
        assert serial.per_trial_pct == parallel.per_trial_pct

    def test_single_process_path(self):
        cfg = ExperimentConfig(heuristic="MM", spec=SPEC, trials=2)
        assert run_experiment(cfg, jobs=1).trials == 2
