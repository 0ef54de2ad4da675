#!/usr/bin/env python3
"""Benchmark smoke gate: the mapping-event pipeline may not regress.

Also validates the committed benchmark artifacts without re-running
them (each has a re-run gate in its own pytest entry):

* ``BENCH_control.json`` — shape, internal consistency, and the ISSUE-5
  acceptance inequalities (adaptive ≥ best static β, adaptive
  materially above worst static β);
* ``BENCH_campaign.json`` — executor byte-identity flags, cache
  effectiveness, and (on one core) the serial-resolved plan with the
  auto leg no slower than serial — the ISSUE-6 fix for PR 4's 0.96x
  parallel pathology;
* ``BENCH_estimator.json`` — the committed anchors: identical
  outcomes, naive-over-incremental convolution ratio ≥ 3x, and ≥ 2x the
  committed session-matched events/sec anchor;
* ``BENCH_tuning.json`` — the ISSUE-10 auto-tuner artifact: the
  searched hysteresis configuration matches-or-beats the committed
  hand-set contender and beats the best static β, and its copied
  reference numbers agree with ``BENCH_control.json``.

Runs the estimator benchmark (``benchmarks/bench_sim.py``'s measurement
core) on a *reduced* Fig. 7 workload and compares it against the
committed ``benchmarks/BENCH_estimator.json``:

* ``identical_outcomes`` must be true — the cache/pipeline layers are
  correctness-invisible, whatever the hardware;
* the *incremental-over-naive* events/sec ratio must not fall more than
  ``--max-regression`` (default 20 %) below the committed payload's
  ratio.  Both modes are measured in the same fresh run, so runner
  hardware cancels out — the gate tracks the pipeline's relative
  advantage (what the code controls), not the runner's absolute speed.

Absolute events/sec for both runs are printed for the record.  The
workload is reduced in *trials* (default 1 vs the committed 2), not in
scale: per-event economics depend on queue depths, so only a same-scale
run produces a comparable ratio.

Run directly (CI's bench-smoke job)::

    python tools/check_bench.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

BASELINE = REPO_ROOT / "benchmarks" / "BENCH_estimator.json"
CONTROL = REPO_ROOT / "benchmarks" / "BENCH_control.json"
CAMPAIGN = REPO_ROOT / "benchmarks" / "BENCH_campaign.json"
TUNING = REPO_ROOT / "benchmarks" / "BENCH_tuning.json"

#: Must match ``benchmarks.bench_control.MATERIAL_MARGIN_PP`` (kept
#: literal here so the validator never imports the module under test).
CONTROL_MARGIN_PP = 2.0

#: The ISSUE-6 acceptance bar: the committed estimator artifact must
#: show >= 2x the session-matched PR 4 events/sec baseline.
MIN_SPEEDUP_PR4 = 2.0

#: Anchor-provenance schema: artifact file name → dotted key paths that
#: must exist for the payload to be traceable to the run that produced
#: it (what workload, at what scale, against which baseline).  Every
#: ``BENCH_*.json`` in ``benchmarks/`` must have an entry here; a new
#: artifact without one fails the gate by name instead of sailing
#: through unchecked.  The schema also front-loads every key the live
#: smoke run dereferences (``workload.scale``, ``events_per_sec.*``) so
#: a truncated payload fails with the missing key's name, not a
#: ``KeyError`` traceback.
PROVENANCE_KEYS: dict[str, tuple[str, ...]] = {
    "BENCH_estimator.json": (
        "benchmark",
        "workload.figure",
        "workload.level",
        "workload.pattern",
        "workload.scale",
        "workload.heuristic",
        "workload.pruning",
        "workload.trials",
        "events_per_sec.incremental",
        "events_per_sec.naive",
        "events_per_sec_protocol",
        "pr4_session_matched_events_per_sec",
    ),
    "BENCH_control.json": (
        "benchmark",
        "workload.pattern",
        "workload.levels",
        "workload.trials",
        "workload.base_seed",
        "workload.heuristic",
        "static_grid",
        "controller",
    ),
    "BENCH_campaign.json": (
        "benchmark",
        "workload.figure",
        "workload.scale",
        "workload.trials",
        "workload.total_trials",
        "cpu_count",
        "jobs",
        "resolved_plan",
    ),
    "BENCH_tuning.json": (
        "benchmark",
        "workload.pattern",
        "workload.levels",
        "workload.trials",
        "workload.base_seed",
        "workload.heuristic",
        "search.preset",
        "search.space",
        "search.strategy",
        "search.objective",
        "search.budget",
        "search.seed",
        "references.source",
        "tuner_stats.best_score",
        "tuner_stats.best_params",
    ),
}


def missing_provenance(payload: object, keys: tuple[str, ...]) -> list[str]:
    """Dotted key paths from ``keys`` that ``payload`` does not contain."""
    missing: list[str] = []
    for dotted in keys:
        node = payload
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                missing.append(dotted)
                break
            node = node[part]
    return missing


def check_provenance(path: Path) -> list[str]:
    """Named-key provenance errors for one ``BENCH_*.json`` artifact."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    keys = PROVENANCE_KEYS.get(path.name)
    if keys is None:
        return [
            f"{path.name}: no provenance schema registered — add its anchor "
            f"keys to PROVENANCE_KEYS in tools/check_bench.py"
        ]
    return [
        f"{path.name}: missing provenance key {key!r}"
        for key in missing_provenance(payload, keys)
    ]


def check_control_payload(path: Path) -> list[str]:
    """Shape + consistency errors of the control-plane artifact."""
    errors: list[str] = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]

    for key in ("benchmark", "workload", "static_grid", "controller", "results", "comparison"):
        if key not in payload:
            errors.append(f"{path.name}: missing top-level key {key!r}")
    if errors:
        return errors
    if payload["benchmark"] != "control":
        errors.append(f"{path.name}: benchmark is {payload['benchmark']!r}, not 'control'")

    levels = payload["workload"].get("levels", {})
    if not levels:
        errors.append(f"{path.name}: workload.levels is empty")
    grid_labels = {f"P{int(beta * 100)}" for beta in payload["static_grid"]}
    expected_variants = grid_labels | {"adaptive"}
    if set(payload["results"]) != expected_variants:
        errors.append(
            f"{path.name}: results cover {sorted(payload['results'])}, "
            f"expected {sorted(expected_variants)}"
        )
    for vname, record in payload["results"].items():
        if not isinstance(record.get("pooled_mean_pct"), (int, float)):
            errors.append(f"{path.name}: results[{vname!r}] lacks pooled_mean_pct")
            continue
        missing = set(levels) - set(record.get("per_level", {}))
        if missing:
            errors.append(f"{path.name}: results[{vname!r}] missing levels {sorted(missing)}")
        for lname, cellstats in record.get("per_level", {}).items():
            for field in ("mean_pct", "ci95_pct", "trials"):
                if field not in cellstats:
                    errors.append(
                        f"{path.name}: results[{vname!r}][{lname!r}] lacks {field}"
                    )
    if errors:
        return errors

    cmp = payload["comparison"]
    for key in (
        "best_static", "best_static_pct", "worst_static", "worst_static_pct",
        "adaptive_pct", "adaptive_minus_best_pp", "adaptive_minus_worst_pp",
    ):
        if key not in cmp:
            errors.append(f"{path.name}: comparison lacks {key!r}")
    if errors:
        return errors
    # Internal consistency: the comparison block must agree with results.
    statics = {v: payload["results"][v]["pooled_mean_pct"] for v in grid_labels}
    if abs(cmp["best_static_pct"] - max(statics.values())) > 1e-6:
        errors.append(f"{path.name}: best_static_pct disagrees with results")
    if abs(cmp["worst_static_pct"] - min(statics.values())) > 1e-6:
        errors.append(f"{path.name}: worst_static_pct disagrees with results")
    if abs(cmp["adaptive_pct"] - payload["results"]["adaptive"]["pooled_mean_pct"]) > 1e-6:
        errors.append(f"{path.name}: adaptive_pct disagrees with results")
    # The acceptance inequalities the artifact exists to witness.
    if cmp["adaptive_pct"] < cmp["best_static_pct"] - 1e-9:
        errors.append(
            f"{path.name}: adaptive {cmp['adaptive_pct']:.2f}% < best static "
            f"{cmp['best_static_pct']:.2f}%"
        )
    if cmp["adaptive_pct"] <= cmp["worst_static_pct"] + CONTROL_MARGIN_PP:
        errors.append(
            f"{path.name}: adaptive {cmp['adaptive_pct']:.2f}% not materially "
            f"above worst static {cmp['worst_static_pct']:.2f}%"
        )
    return errors


def check_campaign_payload(path: Path) -> list[str]:
    """Shape + acceptance errors of the executor-layer artifact
    (``benchmarks/bench_campaign.py`` → ``BENCH_campaign.json``)."""
    errors: list[str] = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]

    for key in ("benchmark", "workload", "cpu_count", "resolved_plan", "serial_s",
                "auto_s", "speedup_auto_over_serial", "identical", "cache",
                "warm_fraction_of_serial", "pr4_artifact"):
        if key not in payload:
            errors.append(f"{path.name}: missing top-level key {key!r}")
    if errors:
        return errors
    if payload["benchmark"] != "campaign-sharding":
        errors.append(
            f"{path.name}: benchmark is {payload['benchmark']!r}, not 'campaign-sharding'"
        )
    identical = payload["identical"]
    for leg in ("auto", "process", "warm"):
        if not identical.get(leg):
            errors.append(f"{path.name}: {leg} executor diverged from serial")
    total = payload["workload"].get("total_trials")
    if payload["cache"] != {"hits": total, "misses": total}:
        errors.append(f"{path.name}: cache stats {payload['cache']} != {total} each")
    if payload["warm_fraction_of_serial"] >= 0.25:
        errors.append(
            f"{path.name}: warm re-run at "
            f"{payload['warm_fraction_of_serial']:.1%} of serial — cache ineffective"
        )
    if payload["cpu_count"] == 1:
        # The ISSUE-6 acceptance pair: one core must resolve to the
        # serial plan, and requesting --jobs must no longer cost
        # anything (PR 4's artifact recorded 0.96x).
        if payload["resolved_plan"].get("kind") != "serial":
            errors.append(
                f"{path.name}: one core resolved to "
                f"{payload['resolved_plan']!r}, not the serial plan"
            )
        if payload["speedup_auto_over_serial"] < 1.0:
            errors.append(
                f"{path.name}: auto plan {payload['speedup_auto_over_serial']:.2f}x "
                f"< 1x serial on one core"
            )
    return errors


def check_tuning_payload(path: Path, control_path: Path) -> list[str]:
    """Shape + acceptance errors of the auto-tuner artifact
    (``benchmarks/bench_tuning.py`` → ``BENCH_tuning.json``)."""
    errors: list[str] = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]

    for key in ("benchmark", "workload", "search", "tuner_stats", "trials",
                "references", "comparison"):
        if key not in payload:
            errors.append(f"{path.name}: missing top-level key {key!r}")
    if errors:
        return errors
    if payload["benchmark"] != "tuning":
        errors.append(f"{path.name}: benchmark is {payload['benchmark']!r}, not 'tuning'")

    trials = payload["trials"]
    if not trials:
        errors.append(f"{path.name}: no recorded trials")
        return errors
    for i, record in enumerate(trials):
        for field in ("index", "params", "score", "fidelity"):
            if field not in record:
                errors.append(f"{path.name}: trial {i} lacks {field!r}")
        if record.get("index") != i:
            errors.append(f"{path.name}: trial ledger not contiguous at {i}")
    cmp = payload["comparison"]
    for key in ("tuned_pct", "tuned_params", "hysteresis_pct", "best_static",
                "best_static_pct", "tuned_minus_hysteresis_pp",
                "tuned_minus_best_static_pp"):
        if key not in cmp:
            errors.append(f"{path.name}: comparison lacks {key!r}")
    if errors:
        return errors

    # Internal consistency: the comparison block must agree with the
    # tuner's own stats and with the trial ledger.
    stats = payload["tuner_stats"]
    if abs(cmp["tuned_pct"] - stats["best_score"]) > 1e-9:
        errors.append(f"{path.name}: tuned_pct disagrees with tuner_stats.best_score")
    if cmp["tuned_params"] != stats["best_params"]:
        errors.append(f"{path.name}: tuned_params disagrees with tuner_stats.best_params")
    full_scores = [t["score"] for t in trials if t.get("fidelity", 1.0) >= 1.0]
    if full_scores and abs(max(full_scores) - cmp["tuned_pct"]) > 1e-9:
        errors.append(f"{path.name}: tuned_pct is not the best full-fidelity trial score")

    # The copied reference numbers must agree with the source artifact —
    # a stale copy would make the comparison meaningless.
    try:
        control = json.loads(control_path.read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"{path.name}: reference source unreadable ({exc})")
        return errors
    control_cmp = control["comparison"]
    for mine, theirs in (
        ("hysteresis_pct", "adaptive_pct"),
        ("best_static", "best_static"),
        ("best_static_pct", "best_static_pct"),
    ):
        if payload["references"][mine] != control_cmp[theirs]:
            errors.append(
                f"{path.name}: references.{mine} disagrees with "
                f"{control_path.name} comparison.{theirs}"
            )
    # The acceptance inequalities the artifact exists to witness
    # (ISSUE 10): searched config >= hand-set hysteresis, > best static.
    if cmp["tuned_pct"] < cmp["hysteresis_pct"] - 1e-9:
        errors.append(
            f"{path.name}: tuned {cmp['tuned_pct']:.2f}% < hand-set hysteresis "
            f"{cmp['hysteresis_pct']:.2f}%"
        )
    if cmp["tuned_pct"] <= cmp["best_static_pct"]:
        errors.append(
            f"{path.name}: tuned {cmp['tuned_pct']:.2f}% does not beat the best "
            f"static β ({cmp['best_static_pct']:.2f}%)"
        )
    return errors


def check_estimator_payload(path: Path) -> list[str]:
    """Anchor + consistency errors of the committed estimator artifact
    (the live re-run gate is in ``main``)."""
    errors: list[str] = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]

    for key in ("events_per_sec", "ratio_naive_over_incremental",
                "speedup_pr4_session_matched", "identical_outcomes"):
        if key not in payload:
            errors.append(f"{path.name}: missing key {key!r}")
    if errors:
        return errors
    if not payload["identical_outcomes"]:
        errors.append(f"{path.name}: committed run had divergent outcomes")
    if payload["ratio_naive_over_incremental"] < 3.0:
        errors.append(
            f"{path.name}: naive-over-incremental ratio "
            f"{payload['ratio_naive_over_incremental']:.2f}x < 3x"
        )
    if payload["speedup_pr4_session_matched"] < MIN_SPEEDUP_PR4:
        errors.append(
            f"{path.name}: {payload['speedup_pr4_session_matched']:.2f}x the "
            f"session-matched PR 4 baseline < {MIN_SPEEDUP_PR4:.1f}x (ISSUE 6)"
        )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE, help="committed BENCH_estimator.json"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale (default: the committed payload's scale, so rates compare)",
    )
    parser.add_argument("--trials", type=int, default=1, help="trials per mode")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=float(os.environ.get("BENCH_SMOKE_MAX_REGRESSION", "0.2")),
        help=(
            "allowed fractional drop of the incremental-over-naive events/sec "
            "ratio vs the committed payload's ratio (default 0.2)"
        ),
    )
    parser.add_argument(
        "--control", type=Path, default=CONTROL, help="committed BENCH_control.json"
    )
    parser.add_argument(
        "--campaign", type=Path, default=CAMPAIGN, help="committed BENCH_campaign.json"
    )
    parser.add_argument(
        "--tuning", type=Path, default=TUNING, help="committed BENCH_tuning.json"
    )
    args = parser.parse_args(argv)

    static_errors: list[str] = []
    # Provenance first: every committed BENCH_*.json (plus whichever
    # paths this invocation points at) must name its anchors before the
    # shape checkers dereference them.
    provenance_paths = {args.control, args.campaign, args.baseline, args.tuning}
    provenance_paths.update((REPO_ROOT / "benchmarks").glob("BENCH_*.json"))
    for path in sorted(provenance_paths):
        errors = check_provenance(path)
        static_errors.extend(errors)
        if not errors:
            print(f"provenance OK ({path.name})")
    for label, checker, path in (
        ("control", check_control_payload, args.control),
        ("campaign", check_campaign_payload, args.campaign),
        ("estimator", check_estimator_payload, args.baseline),
        ("tuning", lambda p: check_tuning_payload(p, args.control), args.tuning),
    ):
        errors = checker(path)
        static_errors.extend(errors)
        if not errors:
            print(f"{label} payload OK ({path.name})")
    if static_errors:
        for error in static_errors:
            print(f"FAIL: {error}", file=sys.stderr)
        return 1

    from benchmarks.bench_sim import run_estimator_bench

    baseline = json.loads(args.baseline.read_text())
    base_eps = baseline["events_per_sec"]
    base_ratio = base_eps["incremental"] / base_eps["naive"]
    scale = args.scale if args.scale is not None else baseline["workload"]["scale"]

    fresh = run_estimator_bench(trials=args.trials, scale=scale, json_path=None)
    fresh_eps = fresh["events_per_sec"]
    fresh_ratio = fresh_eps["incremental"] / fresh_eps["naive"]

    print(
        f"bench smoke: scale={scale} trials={args.trials} — incremental "
        f"{fresh_eps['incremental']:.0f} events/s, naive {fresh_eps['naive']:.0f}; "
        f"pipeline advantage {fresh_ratio:.2f}x vs committed {base_ratio:.2f}x, "
        f"identical_outcomes={fresh['identical_outcomes']}"
    )

    if not fresh["identical_outcomes"]:
        print(
            "FAIL: incremental and memoize=False outcomes diverged — the "
            "estimation layers are no longer correctness-invisible.",
            file=sys.stderr,
        )
        return 1
    floor = (1.0 - args.max_regression) * base_ratio
    if fresh_ratio < floor:
        print(
            f"FAIL: incremental-over-naive events/sec ratio {fresh_ratio:.2f}x "
            f"fell below the {floor:.2f}x floor ({args.max_regression:.0%} under "
            f"the committed {base_ratio:.2f}x).",
            file=sys.stderr,
        )
        return 1
    print("bench smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
