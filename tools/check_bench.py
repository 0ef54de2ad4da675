#!/usr/bin/env python3
"""Static validator of the committed benchmark artifacts.

Reads every ``benchmarks/BENCH_*.json`` and checks it without running
any simulation (each artifact has a deterministic re-run gate in its
own pytest entry; wall-clock tracking is ``perfbench/``'s):

* provenance — every artifact names its anchor keys (what workload,
  at what scale, which search); an artifact with no registered schema
  fails by name;
* ``BENCH_control.json`` — shape, internal consistency, and the
  acceptance inequalities (adaptive ≥ best static β, adaptive
  materially above worst static β);
* ``BENCH_tuning.json`` — shape, internal consistency, its copied
  reference numbers agree with ``BENCH_control.json``, and the searched
  hysteresis configuration matches-or-beats the hand-set contender and
  beats the best static β.

Run directly (CI's bench-smoke job)::

    python tools/check_bench.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
CONTROL = BENCH_DIR / "BENCH_control.json"
TUNING = BENCH_DIR / "BENCH_tuning.json"

#: Must match ``benchmarks.bench_control.MATERIAL_MARGIN_PP`` (kept
#: literal here so the validator never imports the module under test).
CONTROL_MARGIN_PP = 2.0

#: Anchor-provenance schema: artifact file name → dotted key paths that
#: must exist for the payload to be traceable to the run that produced
#: it (what workload, at what scale, which search).  Every
#: ``BENCH_*.json`` in ``benchmarks/`` must have an entry here; a new
#: artifact without one fails the gate by name instead of sailing
#: through unchecked.
PROVENANCE_KEYS: dict[str, tuple[str, ...]] = {
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


#: ``BENCH_tuning.json`` ``references`` key → the ``BENCH_control.json``
#: ``comparison`` key it copies.
TUNING_REFERENCES = (
    ("hysteresis_pct", "adaptive_pct"),
    ("best_static", "best_static"),
    ("best_static_pct", "best_static_pct"),
)


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
    stats = payload["tuner_stats"]
    for key in ("best_score", "best_params"):
        if key not in stats:
            errors.append(f"{path.name}: tuner_stats lacks {key!r}")
    references = payload["references"]
    for mine, _ in TUNING_REFERENCES:
        if mine not in references:
            errors.append(f"{path.name}: references lacks {mine!r}")
    if errors:
        return errors

    # Internal consistency: the comparison block must agree with the
    # tuner's own stats and with the trial ledger.
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
    control_cmp = control.get("comparison") if isinstance(control, dict) else None
    if not isinstance(control_cmp, dict):
        errors.append(f"{path.name}: reference source {control_path.name} lacks 'comparison'")
        return errors
    for mine, theirs in TUNING_REFERENCES:
        if theirs not in control_cmp:
            errors.append(
                f"{path.name}: reference source {control_path.name} "
                f"comparison lacks {theirs!r}"
            )
        elif references[mine] != control_cmp[theirs]:
            errors.append(
                f"{path.name}: references.{mine} disagrees with "
                f"{control_path.name} comparison.{theirs}"
            )
    # The acceptance inequalities the artifact exists to witness:
    # searched config >= hand-set hysteresis, > best static.
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


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    all_errors: list[str] = []
    # Provenance first: every committed BENCH_*.json must name its
    # anchors; an artifact with no schema fails here by name.
    for path in sorted({CONTROL, TUNING, *BENCH_DIR.glob("BENCH_*.json")}):
        errors = check_provenance(path)
        all_errors.extend(errors)
        if not errors:
            print(f"provenance OK ({path.name})")
    for label, errors, path in (
        ("control", check_control_payload(CONTROL), CONTROL),
        ("tuning", check_tuning_payload(TUNING, CONTROL), TUNING),
    ):
        all_errors.extend(errors)
        if not errors:
            print(f"{label} payload OK ({path.name})")
    for error in all_errors:
        print(f"FAIL: {error}", file=sys.stderr)
    return 1 if all_errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
