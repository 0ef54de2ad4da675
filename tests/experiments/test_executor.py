"""Tests for the batched campaign executor layer (ISSUE 6).

The plan resolver's adaptive contract (clamp to ``min(jobs, pending,
cpu_count)``, auto-serial when a pool cannot win — in particular one
core never gets a pool, which would only add pickling on the core
that runs the trials), and byte-identity of the process pool against
serial.
"""

import json
import os

import pytest

from repro.experiments import campaign as campaign_mod
from repro.experiments.campaign import (
    CHUNKS_PER_WORKER,
    MIN_PARALLEL_PENDING,
    ResultCache,
    _chunked,
    _init_worker,
    _run_chunk,
    resolve_execution_plan,
    run_cell_trials,
)
from repro.experiments.runner import run_trial
from repro.experiments.runner import ExperimentConfig
from repro.workload.spec import WorkloadSpec

SPEC = WorkloadSpec(num_tasks=60, time_span=50.0, num_task_types=3)


def _configs(trials: int = 3) -> list[ExperimentConfig]:
    return [
        ExperimentConfig(heuristic="MM", spec=SPEC, trials=trials, base_seed=11),
        ExperimentConfig(heuristic="MSD", spec=SPEC, trials=trials, base_seed=11),
    ]


def _dumps(cells):
    return [
        [json.dumps(r.to_dict(), sort_keys=True) for r in cell] for cell in cells
    ]


# ======================================================================
class TestResolveExecutionPlan:
    def test_single_core_never_goes_parallel(self, monkeypatch):
        """On one core the default plan must be serial no matter how
        many --jobs were asked for — a pool only adds pickling on the
        core that would run the trials."""
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        for jobs in (2, 4, 64):
            assert resolve_execution_plan(jobs, pending=100) == ("serial", 1)

    def test_live_cpu_count_is_consulted(self, monkeypatch):
        """The resolver reads os.cpu_count() at call time (so the mock
        above is the real code path, not a copied-at-import constant)."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_execution_plan(4, pending=100) == ("process", 4)

    def test_clamped_to_min_of_jobs_pending_cpu(self):
        assert resolve_execution_plan(64, pending=5, cpu_count=8) == ("process", 5)
        assert resolve_execution_plan(3, pending=100, cpu_count=8) == ("process", 3)
        assert resolve_execution_plan(64, pending=100, cpu_count=6) == ("process", 6)

    def test_jobs_unset_stays_serial(self):
        """Parallelism is opt-in: no --jobs, no pool (historical contract)."""
        assert resolve_execution_plan(None, pending=100, cpu_count=8) == ("serial", 1)
        assert resolve_execution_plan(1, pending=100, cpu_count=8) == ("serial", 1)

    def test_tiny_workload_stays_serial(self):
        pending = MIN_PARALLEL_PENDING - 1
        assert resolve_execution_plan(8, pending, cpu_count=8) == ("serial", 1)

    def test_nothing_pending_is_serial_for_every_kind(self):
        for executor in ("auto", "serial", "process"):
            assert resolve_execution_plan(8, 1, executor=executor, cpu_count=8) == (
                "serial",
                1,
            )

    def test_explicit_executor_honored_on_one_core(self):
        """Forcing process must work even at cpu_count == 1 — it is how
        the determinism harness exercises the pool path."""
        assert resolve_execution_plan(2, 10, executor="process", cpu_count=1) == (
            "process",
            2,
        )
        # jobs unset: an explicit kind sizes itself from the cpu count.
        assert resolve_execution_plan(None, 10, executor="process", cpu_count=4) == (
            "process",
            4,
        )

    def test_unknown_executor_rejected(self):
        for executor in ("mpi", "thread"):
            with pytest.raises(ValueError, match="executor must be one of"):
                resolve_execution_plan(2, 10, executor=executor)


# ======================================================================
class TestChunking:
    def test_chunks_partition_in_order(self):
        todo = [(0, t) for t in range(17)]
        chunks = _chunked(todo, workers=2)
        assert [p for c in chunks for p in c] == todo
        assert all(chunks)

    def test_chunk_count_tracks_workers(self):
        todo = [(0, t) for t in range(100)]
        chunks = _chunked(todo, workers=3)
        assert len(chunks) <= 3 * CHUNKS_PER_WORKER + 1
        assert len(chunks) > 3  # more chunks than workers: stragglers rebalance

    def test_short_todo_never_yields_empty_chunks(self):
        assert _chunked([(0, 0), (0, 1)], workers=8) == [[(0, 0)], [(0, 1)]]


# ======================================================================
class TestExecutorByteIdentity:
    def test_all_executors_identical_to_serial(self):
        """The tentpole determinism guarantee: the chunked-process plan
        reproduces the serial per-trial results byte-for-byte."""
        configs = _configs(trials=3)
        serial = run_cell_trials(configs, executor="serial")
        process = run_cell_trials(configs, jobs=2, executor="process")
        assert _dumps(serial) == _dumps(process)

    def test_pool_failure_caches_completed_siblings(self, tmp_path):
        """The chunked path keeps the per-trial failure contract: one bad
        trial surfaces after its finished siblings were cached."""
        good = _configs(trials=2)[0]
        bad = ExperimentConfig(heuristic="NOPE", spec=SPEC, trials=1, base_seed=11)
        cache = ResultCache(tmp_path)
        with pytest.raises(KeyError, match="unknown heuristic"):
            run_cell_trials([good, bad], jobs=2, cache=cache, executor="process")
        assert cache.get(good, 0) is not None
        assert cache.get(good, 1) is not None

    def test_pool_failure_without_cache_fails_fast(self):
        bad = ExperimentConfig(heuristic="NOPE", spec=SPEC, trials=2, base_seed=11)
        with pytest.raises(KeyError, match="unknown heuristic"):
            run_cell_trials([bad], jobs=2, executor="process")

    def test_worker_initializer_installs_shared_inputs(self, monkeypatch):
        """Workers read the configs installed by the initializer (the
        table travels via initargs, not per-submitted chunk): a chunk
        names cells by index and runs exactly what serial would."""
        monkeypatch.setattr(campaign_mod, "_WORKER_CONFIGS", None)
        configs = _configs(trials=2)
        _init_worker(configs)
        assert list(campaign_mod._WORKER_CONFIGS) == configs
        out = _run_chunk([(1, 0), (0, 1)])
        assert [(ci, t, exc) for ci, t, _, exc in out] == [(1, 0, None), (0, 1, None)]
        assert _dumps([[r for _, _, r, _ in out]]) == _dumps(
            [[run_trial(configs[1], 0), run_trial(configs[0], 1)]]
        )
