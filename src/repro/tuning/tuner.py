"""The offline auto-tuner: Campaign sweeps as a search's inner loop.

A :class:`Tuner` glues the pieces together: a
:class:`~repro.tuning.space.SearchSpace` says *what* can vary, a
strategy (:mod:`repro.tuning.strategies`) says *where to look next*, an
objective (:mod:`repro.tuning.objective`) says *what better means*, and
the evaluation mix — a :class:`~repro.experiments.campaign.SweepGrid`
or explicit configs — says *on which workloads*.  Every proposal runs
as an ordinary campaign, so the content-addressed
:class:`~repro.experiments.campaign.ResultCache` is the search's
experience store: re-proposed or promoted configurations hit instead of
re-simulating, and a warm re-run of a whole search costs zero
simulations.

Determinism: proposals are pure functions of (seed, space, history) —
see :mod:`repro.tuning.strategies` — and evaluations are pure functions
of (config, trial), so the entire trajectory is byte-identical across
runs, machines, and interrupt/resume cycles (the JSON trial ledger,
:mod:`repro.tuning.ledger`, carries the history).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from collections.abc import Callable, Sequence

from ..core.convert import as_int, convert_named
from ..experiments.campaign import Campaign, ResultCache, SweepGrid, _config_payload
from ..experiments.runner import ExperimentConfig
from ..sim.rng import fingerprint
from .ledger import TrialRecord, read_ledger, write_ledger
from .objective import make_objective
from .params import apply_params
from .space import SearchSpace
from .strategies import Proposal, make_strategy

__all__ = ["Tuner", "TunerResult"]


@dataclass
class TunerResult:
    """Outcome of one (possibly resumed) search."""

    records: list[TrialRecord]
    best: TrialRecord
    #: Records replayed from the ledger rather than evaluated this run.
    resumed: int = 0
    strategy: dict | None = None
    objective: str = ""
    seed: int = 0
    budget: int = 0

    @property
    def best_params(self) -> dict:
        return dict(self.best.params)

    def stats(self) -> dict:
        """JSON-ready ``tuner_stats`` telemetry payload."""
        return {
            "strategy": dict(self.strategy) if self.strategy else None,
            "objective": self.objective,
            "seed": self.seed,
            "budget": self.budget,
            "trials": len(self.records),
            "resumed": self.resumed,
            "cache_hits": sum(r.cache_hits for r in self.records),
            "cache_misses": sum(r.cache_misses for r in self.records),
            "best_index": self.best.index,
            "best_score": self.best.score,
            "best_params": dict(self.best.params),
        }


def _best_record(records: Sequence[TrialRecord]) -> TrialRecord:
    """Highest score among full-fidelity records (ties → earliest).

    Reduced-fidelity scores are measured on fewer workload trials and
    are not comparable to full evaluations, so they only compete when
    *no* full-fidelity record exists.
    """
    full = [r for r in records if r.fidelity >= 1.0] or list(records)
    return max(full, key=lambda r: (r.score, -r.index))


class Tuner:
    """Drives a strategy's proposals through campaign evaluations.

    ``mix`` is either a :class:`SweepGrid` (expanded once; its
    ``trials`` is the full-fidelity trial count) or a sequence of
    explicit :class:`ExperimentConfig` cells.  ``ledger_path`` (optional)
    persists the trajectory for interrupt/resume; ``cache``/``jobs``/
    ``executor`` pass straight to the inner campaigns.
    """

    def __init__(
        self,
        space: SearchSpace,
        mix: SweepGrid | Sequence[ExperimentConfig],
        *,
        strategy: object = "random",
        objective: object = "pooled-on-time",
        budget: int = 8,
        seed: int = 0,
        ledger_path: str | Path | None = None,
        cache: ResultCache | None = None,
        jobs: int | None = None,
        executor: str = "auto",
        name: str = "tune",
    ) -> None:
        self.space = space
        if isinstance(mix, SweepGrid):
            self.base_configs = [cell.config for cell in mix.expand()]
            mix_payload: object = mix.to_dict()
        else:
            self.base_configs = list(mix)
            mix_payload = [_config_payload(c) for c in self.base_configs]
        if not self.base_configs:
            raise ValueError("evaluation mix has no cells")
        self.budget = convert_named("budget", as_int, budget)
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.seed = convert_named("seed", as_int, seed)
        self.strategy = make_strategy(strategy, space, seed=self.seed, budget=self.budget)
        self.objective_name, self.objective = make_objective(objective)
        self.ledger_path = Path(ledger_path) if ledger_path is not None else None
        self.cache = cache
        self.jobs = jobs
        self.executor = executor
        self.name = name
        #: Search identity — what a ledger must match to be resumed.
        #: The budget is deliberately absent (extending a search must
        #: resume, not restart); strategy defaults that *depend* on the
        #: budget are resolved into the strategy spec itself.
        self.key = fingerprint(
            {
                "space": space.to_dict(),
                "mix": mix_payload,
                "strategy": self.strategy.spec_dict(),
                "objective": self.objective_name,
                "seed": self.seed,
            }
        )

    # ------------------------------------------------------------------
    def _evaluate(self, index: int, proposal: Proposal) -> TrialRecord:
        """Run one proposal as a campaign and score the summary."""
        configs = []
        trials_run = 0
        for base in self.base_configs:
            trials = max(1, math.ceil(base.trials * proposal.fidelity))
            trials_run = max(trials_run, trials)
            configs.append(apply_params(replace(base, trials=trials), proposal.params))
        campaign = Campaign.from_configs(configs, name=f"{self.name}-{index}")
        summary = campaign.run(jobs=self.jobs, cache=self.cache, executor=self.executor)
        return TrialRecord(
            index=index,
            params=dict(proposal.params),
            score=float(self.objective(summary)),
            fidelity=float(proposal.fidelity),
            trials=trials_run,
            cells={row.label: row.stats.mean_pct for row in summary.rows},
            cache_hits=summary.cache_hits,
            cache_misses=summary.cache_misses,
        )

    def _problem_payload(self) -> dict:
        """Human-readable ledger header (the ``key`` is authoritative)."""
        return {
            "name": self.name,
            "space": self.space.to_dict(),
            "strategy": self.strategy.spec_dict(),
            "objective": self.objective_name,
            "seed": self.seed,
            "budget": self.budget,
            "cells": [c.display_label for c in self.base_configs],
        }

    # ------------------------------------------------------------------
    def run(
        self, progress: Callable[[TrialRecord], None] | None = None
    ) -> TunerResult:
        """Propose/evaluate until the strategy stops or the budget is
        spent; returns every record (resumed + fresh) plus the best."""
        records: list[TrialRecord] = []
        if self.ledger_path is not None:
            records = read_ledger(self.ledger_path, self.key)
            if len(records) > self.budget:
                records = records[: self.budget]
        resumed = len(records)
        while len(records) < self.budget:
            proposal = self.strategy.propose(records)
            if proposal is None:
                break
            record = self._evaluate(len(records), proposal)
            records.append(record)
            if self.ledger_path is not None:
                write_ledger(self.ledger_path, self.key, self._problem_payload(), records)
            if progress is not None:
                progress(record)
        if not records:
            raise ValueError(
                f"strategy {self.strategy.name!r} proposed nothing within budget "
                f"{self.budget}"
            )
        return TunerResult(
            records=records,
            best=_best_record(records),
            resumed=resumed,
            strategy=self.strategy.spec_dict(),
            objective=self.objective_name,
            seed=self.seed,
            budget=self.budget,
        )
