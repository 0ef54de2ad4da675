"""Command-line interface: regenerate figures, run scenario sweeps.

Usage::

    python -m repro.experiments fig7b --trials 10 --jobs 4
    python -m repro.experiments fig9b --trials 30 --paper-scale
    python -m repro.experiments all --trials 5 --json-dir results/
    python -m repro.experiments sweep oversub --jobs 8
    python -m repro.experiments sweep my_grid.json --json-dir results/

``--paper-scale`` stretches workloads ~16.7× at constant arrival rate,
matching the paper's 15k–25k task counts and ~3000-unit span.

``sweep`` takes a preset name (``smoke``, ``fig7b``, ``thresholds``,
``oversub``, ``heterogeneity``, ``churn``, ``bursty``, ``adaptive``,
``trace``, ``dag``, ``azure``, ``gcluster``) or a path to a grid JSON
file — see ``docs/experiments.md`` for the schema.
The ``trace``/``azure``/``gcluster`` presets replay repo-relative CSV
traces, so run them from the checkout root; ``--trace-sample`` replays
a deterministic subset of each trace level.  ``--jobs N`` shards trials across a worker pool
for both figures and sweeps (``--executor`` picks the pool kind;
the default ``auto`` plan never starts a pool that cannot win and is
byte-identical to serial); results are
cached under ``.repro_cache/`` (disable with ``--no-cache``) so
re-runs and interrupted campaigns resume instead of recomputing.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
import time
from pathlib import Path
from collections.abc import Mapping

from . import scenarios
from .campaign import (
    DEFAULT_CACHE_DIR,
    EXECUTOR_CHOICES,
    LEVELS,
    PRESETS,
    Campaign,
    ResultCache,
    SweepGrid,
)
from .report import FigureResult

__all__ = ["main", "build_parser"]

#: scale factor matching the paper's trace length (15000 tasks / 900).
PAPER_SCALE = 15000 / LEVELS["15k"]


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro.experiments``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of the probabilistic task "
        "pruning paper (IPDPS-W 2019), or run declarative scenario sweeps.",
    )
    parser.add_argument(
        "figure",
        choices=sorted(scenarios.ALL_FIGURES) + ["all", "headline", "sweep"],
        help="which figure to regenerate, or 'sweep' to run a campaign",
    )
    parser.add_argument(
        "grid",
        nargs="?",
        default=None,
        help="for 'sweep': a preset name "
        f"({', '.join(sorted(PRESETS))}) or a grid JSON path",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="workload trials per cell (default: 10, or the sweep grid's own value)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed (default: 42, or the sweep grid's own value)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload size multiplier at constant arrival rate "
        "(default: 1.0, or the sweep grid's own value)",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help=f"use the paper's full trace size (scale ≈ {PAPER_SCALE:.1f})",
    )
    parser.add_argument(
        "--pruning-threshold",
        type=float,
        default=None,
        help="override β for every pruned cell of a figure "
        "(default: each scenario's own value; baseline cells unaffected)",
    )
    parser.add_argument(
        "--toggle-alpha",
        type=int,
        default=None,
        help="override the dropping Toggle α for every pruned cell of a "
        "figure (default: each scenario's own value)",
    )
    parser.add_argument(
        "--controller",
        type=str,
        default=None,
        metavar="SPEC",
        help="attach a β/α feedback controller: a kind "
        "(static, schedule, hysteresis, target-success) optionally with "
        "parameters, e.g. 'hysteresis:low=0.05,high=0.3' or "
        "'schedule:0=0.3,120=0.7'.  For figures it attaches to every "
        "pruned cell; for sweeps it replaces the grid's controller axis",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="for sweeps over trace levels: replay a deterministic "
        "per-trial subset of each trace at this rate in (0, 1] "
        "(dependency-closed for DAG traces; overrides any per-level "
        "'sample' in the grid)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        "--processes",
        type=int,
        default=None,
        dest="jobs",
        help="worker count sharding (cell, trial) pairs (default: serial; "
        "clamped to min(jobs, pending trials, cpu count) — see --executor)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default="auto",
        help="how --jobs shards trials: 'auto' picks a process pool only "
        "when it can win (multi-core, enough pending trials) and falls "
        "back to serial otherwise; 'process'/'serial' force "
        "that plan (results are byte-identical under every choice)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=Path(DEFAULT_CACHE_DIR),
        help="per-trial result cache directory (re-runs resume from it)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this run",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render each figure as a terminal bar chart",
    )
    parser.add_argument(
        "--json-dir",
        type=Path,
        default=None,
        help="directory to also write <figure>.json result grids "
        "(and campaign JSON/CSV summaries) into",
    )
    return parser


def _cache_from(args: argparse.Namespace) -> ResultCache | None:
    if args.no_cache:
        return None
    cache = ResultCache(args.cache_dir)
    # Entries from other code/dependency versions can never hit again;
    # dropping them here keeps the default cache dir from growing
    # monotonically across edits.
    cache.prune_stale()
    return cache


def _figure_scale(args: argparse.Namespace) -> float:
    if args.paper_scale:
        return PAPER_SCALE
    return 1.0 if args.scale is None else args.scale


def _with_overrides(grid: SweepGrid, args: argparse.Namespace) -> SweepGrid:
    """The grid with the run-time flags applied; values are validated
    when the grid is rebuilt and expanded, like the grid's own."""
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if args.paper_scale or args.scale is not None:
        overrides["scale"] = _figure_scale(args)
    if args.trace_sample is not None:
        if not any(isinstance(lv, Mapping) and "trace" in lv for lv in grid.levels):
            raise ValueError("--trace-sample applies to trace levels, but the grid has none")
        # Stamp the rate onto every trace level; the value is validated
        # at expand() time by the workload spec (must be in (0, 1]).
        overrides["levels"] = tuple(
            {**lv, "sample": args.trace_sample}
            if isinstance(lv, Mapping) and "trace" in lv
            else lv
            for lv in grid.levels
        )
    if overrides:
        grid = dataclasses.replace(grid, **overrides)
    # --controller replaces the grid's controller axis; β/α (figures
    # only) are set on every pruned entry.
    return grid.with_pruning(
        threshold=args.pruning_threshold,
        dropping_toggle=args.toggle_alpha,
        controller=args.controller,
    )


def _prepare(name: str, args: argparse.Namespace) -> tuple[SweepGrid, Campaign]:
    """Load → override → expand one command's grid.

    Every grid error (bad axis values, colliding labels, non-positive
    trials or scale, out-of-range β/α) surfaces here as a ``ValueError``
    — or a ``KeyError`` for an unknown level name — before any trial
    runs.
    """
    if name == "sweep":
        grid = SweepGrid.load(args.grid)
    else:
        grid = scenarios.figure_grid(name, _figure_scale(args))
    grid = _with_overrides(grid, args)
    return grid, Campaign.from_grid(grid)


def main(argv: list[str] | None = None) -> int:
    """Run the requested figure(s) or sweep; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # The live-service driver has its own argument surface; delegate
        # before the figure parser rejects the subcommand.
        from ..service.__main__ import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "tune":
        # Same: the offline auto-tuner owns its own argument surface.
        from ..tuning.cli import main as tune_main

        return tune_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.figure != "sweep" and args.grid is not None:
        print(
            f"unexpected argument {args.grid!r}: grids only apply to 'sweep' "
            f"(did you mean: sweep {args.grid}?)",
            file=sys.stderr,
        )
        return 2
    if args.figure == "sweep" and args.grid is None:
        print(
            "sweep needs a grid: a preset "
            f"({', '.join(sorted(PRESETS))}) or a JSON path",
            file=sys.stderr,
        )
        return 2
    if args.figure == "sweep" and args.chart:
        print("--chart applies to figure grids, not sweeps", file=sys.stderr)
        return 2
    if args.figure == "sweep" and (
        args.pruning_threshold is not None or args.toggle_alpha is not None
    ):
        print(
            "--pruning-threshold/--toggle-alpha apply to figures; in a sweep, "
            "set β/α per pruning entry in the grid JSON",
            file=sys.stderr,
        )
        return 2
    if args.figure != "sweep" and args.trace_sample is not None:
        print("--trace-sample applies to sweeps over trace levels", file=sys.stderr)
        return 2

    if args.figure == "headline":
        names = ["fig9b", "fig10b"]
    elif args.figure == "all":
        names = sorted(scenarios.ALL_FIGURES)
    else:
        names = [args.figure]
    # Every command is validated before any trial runs.  Fig. 6 plots
    # the arrival pattern itself (no grid, nothing to override) and
    # costs milliseconds, so its text is simply made here.
    fig6_text = ""
    prepared: dict[str, tuple[SweepGrid, Campaign]] = {}
    try:
        for name in names:
            if name == "fig6":
                seed = {} if args.seed is None else {"base_seed": args.seed}
                fig6_text = scenarios.fig6_text(scale=_figure_scale(args), **seed)
            else:
                prepared[name] = _prepare(name, args)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(str(message), file=sys.stderr)
        return 2
    if args.json_dir is not None:
        args.json_dir.mkdir(parents=True, exist_ok=True)
    cache = _cache_from(args)

    if args.figure == "sweep":
        summary = prepared["sweep"][1].run(jobs=args.jobs, cache=cache, executor=args.executor)
        print(summary.to_text())
        if args.json_dir is not None:
            # Grid names are unconstrained user input — keep them out of
            # path semantics when building the output filename.
            safe_name = re.sub(r"[^\w.-]", "_", summary.name) or "campaign"
            json_path = args.json_dir / f"campaign-{safe_name}.json"
            summary.save_json(json_path)
            summary.save_csv(json_path.with_suffix(".csv"))
            print(f"[written: {json_path} + .csv]")
        return 0

    results: dict[str, FigureResult] = {}
    for name in names:
        t0 = time.time()  # reprolint: ignore[D001] operator-facing elapsed display
        if name == "fig6":
            print(fig6_text)
        else:
            grid, campaign = prepared[name]
            summary = campaign.run(jobs=args.jobs, cache=cache, executor=args.executor)
            out = results[name] = scenarios.project_figure(name, grid, summary)
            if args.chart:
                from ..analysis.charts import grouped_bars

                print(grouped_bars(out))
                print()
            print(out.to_text())
            if args.json_dir is not None:
                out.save_json(args.json_dir / f"{name}.json")
        elapsed = time.time() - t0  # reprolint: ignore[D001] operator-facing elapsed display
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")

    if args.figure == "headline":
        print(scenarios.headline_summary(results["fig9b"], results["fig10b"]))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
