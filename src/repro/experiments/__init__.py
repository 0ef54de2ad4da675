"""Experiment harness (§V): scenarios, trial runner, campaigns, CLI.

* :mod:`~repro.experiments.runner` — seeded single-cell trial execution;
* :mod:`~repro.experiments.scenarios` — the paper's figures, one
  registry entry (grid + row/column projection) each;
* :mod:`~repro.experiments.campaign` — declarative sweep grids sharded
  across a process pool with an on-disk result cache;
* :mod:`~repro.experiments.report` — figure grids and campaign
  summaries (text / JSON / CSV);
* :mod:`~repro.experiments.cli` — ``python -m repro.experiments``.
"""

from .campaign import (
    BASE_TIME_SPAN,
    LEVELS,
    PRESETS,
    Campaign,
    CampaignCell,
    ResultCache,
    SweepGrid,
    level_spec,
    run_cell_trials,
    trial_key,
)
from .report import CampaignRow, CampaignSummary, FigureResult
from .runner import PET_SEED, ExperimentConfig, pet_matrix, run_experiment, run_trial
from .scenarios import ALL_FIGURES, FIGURES, fig6, headline_summary, run_figure

__all__ = [
    "FigureResult",
    "CampaignRow",
    "CampaignSummary",
    "ExperimentConfig",
    "run_trial",
    "run_experiment",
    "pet_matrix",
    "PET_SEED",
    "Campaign",
    "CampaignCell",
    "SweepGrid",
    "ResultCache",
    "run_cell_trials",
    "trial_key",
    "PRESETS",
    "LEVELS",
    "BASE_TIME_SPAN",
    "level_spec",
    "fig6",
    "run_figure",
    "headline_summary",
    "FIGURES",
    "ALL_FIGURES",
]
