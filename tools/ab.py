#!/usr/bin/env python3
"""Same-session A/B of the working tree against a git ref, on perfbench.

Checks ``<ref>`` out with ``git worktree add`` into a temporary
directory, then runs ``perfbench/run.py`` (untraced) on both trees for
``--pairs`` pairs per workload, swapping which tree runs first on every
pair.  Per workload it prints each end-to-end metric of
``BENCHMARK.json`` as the parent's median with its quartiles, the
change's median, their ratio (change / parent), the pairs the change
won and a verdict (:func:`verdict`), plus whether the outcome digests
agree::

    python tools/ab.py HEAD~1 --pairs 5 --seconds 15 --workload drop-25k
    python tools/ab.py HEAD --pairs 1 --seconds 1 --tiny     # smoke

Exit status 1 when any run failed (non-zero exit, unparsable output, a
failed perfbench check) or any pair's outcome digests differ; 0
otherwise.  The worktree is removed on every exit path.  perfbench
itself is only run, never edited.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Run:
    """One perfbench invocation: its metrics, digest and health."""

    metrics: dict[str, float] = field(default_factory=dict)
    digest: str | None = None
    problem: str | None = None  # None when the run is healthy


@dataclass
class Row:
    """One metric of one workload, summarized over the pairs."""

    name: str
    unit: str
    parent: tuple[float, float, float]  # q1, median, q3
    change: float  # median
    ratio: float  # change median / parent median
    wins: int
    pairs: int
    verdict: str


def parse_run(returncode: int, stdout: str) -> Run:
    """Read perfbench's last-line JSON and its ``determinism`` line."""
    lines = stdout.strip().splitlines()
    run = Run()
    for line in lines:
        if line.startswith("determinism "):
            try:
                run.digest = json.loads(line[len("determinism ") :]).get("digest")
            except ValueError:
                pass
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        run.problem = f"unparsable output (exit {returncode})"
        return run
    run.metrics = {name: float(m["value"]) for name, m in result["metrics"].items()}
    if returncode != 0:
        run.problem = f"exit {returncode}"
    elif not result.get("correct") or result.get("failed"):
        run.problem = f"perfbench checks failed ({result.get('failed')} failed)"
    elif run.digest is None:
        run.problem = "no outcome digest"
    return run


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` by linear interpolation between order
    statistics (``statistics.quantiles(..., method="inclusive")``,
    defined for a single value too)."""
    xs = sorted(values)

    def at(p: float) -> float:
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def verdict(
    parent: tuple[float, float, float],
    change: float,
    wins: int,
    pairs: int,
    higher: bool,
    bound: float | None,
) -> str:
    """How a metric moved, first match wins:

    * ``gain`` — the change won at least 9 pairs in 10 and its median is
      farther from the parent's than the parent's q1–q3 spread;
    * ``worse than bound`` — the change's median is worse than the
      parent's by more than the relative ``bound``;
    * ``unresolved`` — the parent's own q1–q3 spread exceeds the bound,
      so a move within it cannot be told from noise;
    * ``within bound`` — otherwise.

    Without a ``bound`` only ``gain`` is decided (``-`` otherwise).
    """
    q1, med, q3 = parent
    spread = q3 - q1
    if 10 * wins >= 9 * pairs and abs(change - med) > spread:
        return "gain"
    if bound is None:
        return "-"
    worse = change < med * (1.0 - bound) if higher else change > med * (1.0 + bound)
    if worse:
        return "worse than bound"
    if spread > bound * abs(med):
        return "unresolved"
    return "within bound"


def summarize(
    metrics: list[dict], pairs: list[tuple[Run, Run]]
) -> list[Row]:
    """One row per declared end-to-end metric both sides reported.

    ``metrics`` are ``BENCHMARK.json``'s ``end_to_end`` entries;
    ``pairs`` are ``(parent, change)`` runs.  A pair is a win when the
    change is strictly better in the metric's declared direction.
    """
    rows = []
    for m in metrics:
        name = m["name"]
        both = [(p.metrics[name], c.metrics[name]) for p, c in pairs
                if name in p.metrics and name in c.metrics]
        if not both:
            continue
        parent = quartiles([p for p, _ in both])
        change = quartiles([c for _, c in both])[1]
        higher = m["better"] == "higher"
        wins = sum(1 for p, c in both if (c > p if higher else c < p))
        ratio = change / parent[1] if parent[1] else float("nan")
        judged = verdict(parent, change, wins, len(both), higher, m.get("bound"))
        rows.append(Row(name, m["unit"], parent, change, ratio, wins, len(both), judged))
    return rows


def problems(workload: str, pairs: list[tuple[Run, Run]]) -> list[str]:
    """Everything that makes the A/B fail: unhealthy runs and digest
    mismatches between the two trees of a pair."""
    found = []
    for i, (parent, change) in enumerate(pairs):
        for side, run in (("parent", parent), ("change", change)):
            if run.problem is not None:
                found.append(f"{workload} pair {i}: {side} run: {run.problem}")
        if parent.problem is None and change.problem is None and parent.digest != change.digest:
            found.append(
                f"{workload} pair {i}: outcome digest {parent.digest} (parent) "
                f"!= {change.digest} (change)"
            )
    return found


def format_rows(rows: list[Row]) -> str:
    out = [
        f"  {'metric':<16} {'parent median (q1–q3)':>34} {'change':>12} "
        f"{'ratio':>7} {'wins':>6} {'verdict':<17} unit"
    ]
    for r in rows:
        q1, med, q3 = r.parent
        parent = f"{med:.4g} ({q1:.4g}–{q3:.4g})"
        out.append(
            f"  {r.name:<16} {parent:>34} {r.change:>12.4g} {r.ratio:>7.3f} "
            f"{r.wins:>3}/{r.pairs:<2} {r.verdict:<17} {r.unit}"
        )
    return "\n".join(out)


def run_perfbench(tree: Path, args: argparse.Namespace, workload: str) -> Run:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    run = parse_run(proc.returncode, proc.stdout)
    if run.problem is not None and proc.stderr.strip():
        run.problem += ": " + proc.stderr.strip().splitlines()[-1]
    return run


def git(*argv: str) -> str:
    return subprocess.run(
        ["git", *argv], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the parent: any git commit-ish")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--tiny", action="store_true",
                        help="perfbench's tiny inputs (smoke runs)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload or names

    sha = git("rev-parse", "--verify", f"{args.ref}^{{commit}}")
    tmp = Path(tempfile.mkdtemp(prefix="ab-"))
    parent_tree = tmp / "parent"
    found: list[str] = []
    try:
        git("worktree", "add", "--detach", str(parent_tree), sha)
        print(
            f"ab: parent {args.ref} ({sha[:12]}) vs working tree, {args.pairs} "
            f"pair(s), seed {args.seed}, {args.seconds:g} s per run"
            + (", tiny inputs" if args.tiny else "")
        )
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                if i % 2 == 0:
                    parent = run_perfbench(parent_tree, args, workload)
                    change = run_perfbench(ROOT, args, workload)
                else:
                    change = run_perfbench(ROOT, args, workload)
                    parent = run_perfbench(parent_tree, args, workload)
                pairs.append((parent, change))
            bad = problems(workload, pairs)
            found.extend(bad)
            digests = sorted({r.digest for pair in pairs for r in pair if r.digest})
            print(f"{workload}: digest {' / '.join(digests) or '-'}"
                  + (" (mismatch or failure)" if bad else " (equal on every pair)"))
            print(format_rows(summarize(spec["end_to_end"], pairs)))
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(parent_tree)],
            cwd=ROOT, capture_output=True,
        )
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    for line in found:
        print(f"ab: FAIL {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
