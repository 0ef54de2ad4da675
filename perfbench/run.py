"""Benchmark of the mapping core: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload drop-25k --seed 1 --seconds 15 --trace 0

``--trace 0`` measures untraced and prints every end-to-end metric named
in ``BENCHMARK.json``; ``--trace 1`` runs one untraced reference pass and
the same inputs with every layer's entry points wrapped, and prints the
per-layer metrics, the self-time table and the tracing overhead.  Both
modes run the correctness and determinism checks, untimed.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits non-zero before measuring.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from calibrate import HostSpeed, Segments

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up repetitions per run; ``setup_s`` is the program's import time
#: plus their median.
SETUP_REPS = 3
#: Fresh interpreters that import the program per run; the import time
#: in ``setup_s`` is their median.
IMPORT_REPS = 3

# Times one import of the program in a fresh interpreter (NumPy, which
# the host-speed calibration needs too, is imported before the clock).
_IMPORT_PROBE = """\
import sys, time
import numpy
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import workloads
print(time.perf_counter() - t0)
"""


def import_seconds() -> float:
    """Median import time of the program.  It stays raw: the calibration
    loop tracks import work poorly (calibrated medians spread twice as
    widely as raw ones on the reference box)."""
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _import_program():
    """Import the benchmark modules (and with them ``repro``) from ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs, for the smoke test only"
    )
    args = parser.parse_args(argv)

    try:
        workloads = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import_s = import_seconds()
    speed = HostSpeed()
    workdir = ROOT / ".perfbench_tmp"
    workdir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=workdir))
    try:
        return _run(args, spec, workloads, speed, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            workdir.rmdir()
        except OSError:
            pass  # another run still uses it


def _run(args, spec, workloads, speed, import_s: float, scratch: Path) -> int:
    workload = workloads.make(args.workload, args.seed, args.tiny, scratch)
    setup_times = []
    for _ in range(SETUP_REPS):
        seg = Segments(speed)
        workload.setup()
        seg.close()
        setup_times.append(seg.normalized_s)

    ledger = workloads.Ledger()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    if args.trace:
        result, info = workload.trace(ledger)
        metrics = result.metrics
        wanted = spec["per_layer"]
        for note in result.notes:
            print(f"  note: {note}")
        print("  layer self time (traced run):")
        for layer, seconds, share in result.table:
            print(f"    {layer:<16} {seconds:10.4f} s {100.0 * share:6.1f} %")
    else:
        metrics, info = workload.measure(args.seconds, ledger, speed)
        metrics["setup_s"] = (import_s + statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (workloads.peak_rss_mb(), "MB")
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise KeyError(f"workload {args.workload} did not produce {missing}")
    out = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: unit {unit!r}, declared {m['unit']!r}")
        out[m["name"]] = {"value": value, "unit": unit}
        print(f"  {m['name']:<44} {value:>16.6g} {unit}")
    for name, ok in ledger.checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    print("determinism " + json.dumps(info, sort_keys=True))
    print("host " + json.dumps(speed.summary(), sort_keys=True))
    print("setup " + json.dumps({"import_s": import_s, "setup_s": setup_times}))
    print(
        json.dumps(
            {
                "correct": ledger.correct and ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
