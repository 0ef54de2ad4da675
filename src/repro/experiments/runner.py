"""Experiment runner: seeded multi-trial campaigns (§V-A).

"For each set of experiments, 30 workload trials were performed using
different task arrival times built from the same arrival rate and pattern.
In each case, the mean and 95% confidence interval of the results are
reported."

Seeding discipline:

* the PET matrix is generated once per heterogeneity kind from a fixed
  seed and shared by *every* experiment ("The PET matrix remains constant
  across all of our experiments");
* trial ``i`` of a given workload spec always produces the same task list
  regardless of which heuristic/pruning variant consumes it, so variants
  are compared on identical workloads;
* execution-time sampling gets its own per-trial stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.config import PruningConfig
from ..metrics.collector import SimulationResult
from ..metrics.robustness import AggregateStats, aggregate_robustness
from ..sim.dynamics import DynamicsSpec
from ..sim.rng import stream_seed
from ..stochastic.pet import PETMatrix, generate_pet_matrix
from ..system.serverless import ServerlessSystem
from ..workload.generator import generate_workload, trimmed_slice
from ..workload.spec import WorkloadSpec

__all__ = ["ExperimentConfig", "run_trial", "run_experiment", "pet_matrix", "PET_SEED"]

#: Fixed seed of the shared PET matrix (arbitrary, constant everywhere).
PET_SEED = 2019


@lru_cache(maxsize=8)
def pet_matrix(heterogeneity: str = "inconsistent", seed: int = PET_SEED) -> PETMatrix:
    """The shared 12×8 PET matrix for a heterogeneity kind (cached).

    The returned object is *shared by every caller in the process* (and
    rebuilt identically inside each campaign worker), so it is frozen:
    its ``means`` array and row structure are read-only — mutate a copy
    (e.g. ``restricted_to_machines``) if you need a variant.
    """
    return generate_pet_matrix(seed=seed, heterogeneity=heterogeneity).freeze()


@dataclass(frozen=True)
class ExperimentConfig:
    """One experimental cell: a (heuristic, pruning, workload) triple,
    optionally under cluster dynamics (churn/elastic scaling)."""

    heuristic: str
    spec: WorkloadSpec
    pruning: PruningConfig | None = None
    heterogeneity: str = "inconsistent"
    trials: int = 10
    base_seed: int = 42
    label: str = ""
    #: ``None`` → the paper's static cluster; a spec → machine
    #: failure/recovery/scaling events, deterministic per (config, trial).
    dynamics: DynamicsSpec | None = None

    @property
    def display_label(self) -> str:
        if self.label:
            return self.label
        suffix = "-P" if self.pruning is not None else ""
        return f"{self.heuristic}{suffix}"


def _trial_workload(
    spec: WorkloadSpec, pet: PETMatrix, base_seed: int, trial: int
) -> list:
    """Task list of trial ``trial`` — identical for every variant."""
    key = (
        f"workload/{spec.pattern.value}/{spec.num_tasks}/{spec.time_span}"
        f"/{spec.num_task_types}/{trial}"
    )
    rng = np.random.default_rng(stream_seed(base_seed, key))
    return generate_workload(spec, pet, rng)


def run_trial(config: ExperimentConfig, trial: int) -> SimulationResult:
    """Run one workload trial through one system variant.

    The result is computed over the edge-trimmed evaluation window
    (§V-B: first/last tasks removed to focus on the oversubscribed
    steady state).
    """
    pet = pet_matrix(config.heterogeneity)
    tasks = _trial_workload(config.spec, pet, config.base_seed, trial)
    system = ServerlessSystem(
        pet,
        config.heuristic,
        pruning=config.pruning,
        seed=config.base_seed * 100_003 + trial,
        dynamics=config.dynamics,
    )
    system.run(tasks)
    trim = config.spec.trim_count
    if 2 * trim >= len(tasks):
        # Downsampled replay: the spec's trim proportion is derived from
        # the *full* trace length; clamp so a small sampled subset keeps
        # a non-empty evaluation window instead of erroring.
        trim = max(0, (len(tasks) - 1) // 2)
    evaluated = trimmed_slice(tasks, trim)
    return system.result(evaluated)


def run_experiment(
    config: ExperimentConfig,
    *,
    jobs: int | None = None,
    cache=None,
    executor: str = "auto",
) -> AggregateStats:
    """Run all trials of one cell and aggregate robustness.

    Trials are independent (seeded separately), so they parallelize
    embarrassingly — the paper ran its 30-trial campaigns on the LONI
    Queen Bee 2 cluster; ``jobs > 1`` is the local equivalent.
    ``executor`` picks the plan (``auto``/``serial``/``process`` —
    see :func:`~repro.experiments.campaign.
    resolve_execution_plan`); ``jobs=None`` runs serially.  ``cache``
    is an optional
    :class:`~repro.experiments.campaign.ResultCache`.

    This is the single-cell convenience wrapper over the campaign
    executor (:func:`~repro.experiments.campaign.run_cell_trials`) —
    multi-cell sweeps should go through
    :class:`~repro.experiments.campaign.Campaign` so one worker pool
    spans all cells.
    """
    from .campaign import run_cell_trials  # deferred: campaign imports this module

    results = run_cell_trials(
        [config], jobs=jobs, cache=cache, executor=executor
    )[0]
    return aggregate_robustness(results)
