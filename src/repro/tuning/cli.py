"""Command-line interface: ``repro tune <preset|space.json>``.

Usage::

    python -m repro.experiments tune smoke --jobs 2
    python -m repro.experiments tune control-bursty --strategy bayes --budget 12
    python -m repro.experiments tune my_space.json --mix adaptive --budget 8

The positional target is either a tuning preset name (``smoke``,
``control-bursty``) — which bundles a search space *and* an evaluation
mix — or a path to a search-space JSON file, in which case ``--mix``
names the evaluation mix (a sweep preset or grid JSON, the same values
``repro sweep`` accepts).

Every search is resumable: completed trials land in a JSON ledger (by
default under ``<cache-dir>/tuning/``) and re-running the same search
replays them instead of re-simulating.  Simulations inside each trial
go through the ordinary campaign result cache, so even a deleted ledger
re-runs warm.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from ..experiments.campaign import DEFAULT_CACHE_DIR, EXECUTOR_CHOICES, ResultCache, SweepGrid
from .ledger import TrialRecord
from .presets import TUNE_PRESETS, get_preset
from .space import SearchSpace
from .tuner import Tuner

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-tune",
        description="Search β/α/controller configurations with the offline "
        "auto-tuner (deterministic: same seed ⇒ same trajectory).",
    )
    parser.add_argument(
        "target",
        help="a tuning preset "
        f"({', '.join(sorted(TUNE_PRESETS))}) or a search-space JSON path",
    )
    parser.add_argument(
        "--mix",
        default=None,
        help="evaluation mix for a JSON search space: a sweep preset name "
        "or grid JSON path (presets bundle their own mix)",
    )
    parser.add_argument(
        "--strategy",
        default=None,
        help="search strategy: random, successive-halving, bayes — "
        "optionally with options, e.g. 'successive-halving:population=8' "
        "(default: the preset's, else random)",
    )
    parser.add_argument(
        "--objective",
        default=None,
        help="scoring objective: 'pooled-on-time' or "
        "'paired-delta:<baseline cell label>' (default: the preset's, "
        "else pooled-on-time)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="max trials to evaluate, resumed ones included "
        "(default: the preset's, else 8)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="search seed — part of the search identity "
        "(default: the preset's, else 0)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=None,
        help="full-fidelity workload trials per cell "
        "(default: the mix's own value)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker count for each trial's campaign (default: serial)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_CHOICES,
        default="auto",
        help="how --jobs shards simulations (byte-identical under every choice)",
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
        "--ledger",
        type=Path,
        default=None,
        help="trial-ledger path (default: <cache-dir>/tuning/<name>-<key>.json)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not persist the trial ledger (search is not resumable)",
    )
    parser.add_argument(
        "--json-dir",
        type=Path,
        default=None,
        help="directory to write a tune-<name>.json result (stats + records)",
    )
    return parser


def _load_problem(args: argparse.Namespace) -> tuple[str, SearchSpace, list, dict]:
    """Resolve the target into (name, space, mix configs, defaults)."""
    if args.target in TUNE_PRESETS:
        preset = get_preset(args.target)
        defaults = {
            "strategy": preset.strategy,
            "objective": preset.objective,
            "budget": preset.budget,
            "seed": preset.seed,
        }
        return preset.name, preset.space, preset.configs(), defaults
    path = Path(args.target)
    if not path.exists():
        raise ValueError(
            f"{args.target!r} is neither a tuning preset "
            f"({', '.join(sorted(TUNE_PRESETS))}) nor an existing "
            f"search-space JSON path"
        )
    space = SearchSpace.from_json(path)
    if args.mix is None:
        raise ValueError(
            "a JSON search space needs --mix <sweep preset|grid.json> "
            "for the evaluation mix"
        )
    grid = SweepGrid.load(args.mix)
    configs = [cell.config for cell in grid.expand()]
    defaults = {"strategy": "random", "objective": "pooled-on-time", "budget": 8, "seed": 0}
    return path.stem, space, configs, defaults


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        name, space, configs, defaults = _load_problem(args)
        if args.trials is not None:
            if args.trials < 1:
                raise ValueError(f"--trials must be >= 1, got {args.trials}")
            import dataclasses

            configs = [dataclasses.replace(c, trials=args.trials) for c in configs]

        cache = None
        if not args.no_cache:
            cache = ResultCache(args.cache_dir)
            cache.prune_stale()

        tuner = Tuner(
            space,
            configs,
            strategy=args.strategy if args.strategy is not None else defaults["strategy"],
            objective=(
                args.objective if args.objective is not None else defaults["objective"]
            ),
            budget=args.budget if args.budget is not None else defaults["budget"],
            seed=args.seed if args.seed is not None else defaults["seed"],
            cache=cache,
            jobs=args.jobs,
            executor=args.executor,
            name=name,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.no_ledger:
        tuner.ledger_path = None
    elif args.ledger is not None:
        tuner.ledger_path = args.ledger
    else:
        safe_name = re.sub(r"[^\w.-]", "_", name) or "tune"
        tuner.ledger_path = (
            args.cache_dir / "tuning" / f"{safe_name}-{tuner.key[:12]}.json"
        )

    def progress(record: TrialRecord) -> None:
        fid = f" f={record.fidelity:g}" if record.fidelity != 1.0 else ""
        print(
            f"trial {record.index:3d}: {record.score:7.3f}%{fid}  {record.params}"
        )

    try:
        result = tuner.run(progress=progress)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    stats = result.stats()
    print()
    print(
        f"tune {name}: best trial {stats['best_index']} "
        f"scored {stats['best_score']:.3f}% "
        f"({stats['trials']} trials, {stats['resumed']} resumed, "
        f"cache {stats['cache_hits']} hits / {stats['cache_misses']} misses)"
    )
    print(f"best params: {stats['best_params']}")
    if tuner.ledger_path is not None:
        print(f"[ledger: {tuner.ledger_path}]")

    if args.json_dir is not None:
        args.json_dir.mkdir(parents=True, exist_ok=True)
        safe_name = re.sub(r"[^\w.-]", "_", name) or "tune"
        out = args.json_dir / f"tune-{safe_name}.json"
        out.write_text(
            json.dumps(
                {
                    "tuner_stats": stats,
                    "key": tuner.key,
                    "records": [r.to_dict() for r in result.records],
                },
                indent=2,
            )
            + "\n"
        )
        print(f"[written: {out}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
