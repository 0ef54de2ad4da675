"""Smoke test of the benchmark itself (tiny inputs, about a minute).

Run from the repository root::

    python3 perfbench/smoke.py

For every workload it runs ``run.py --tiny`` untraced and traced and
asserts that the run exits 0, that every end-to-end (untraced) or
per-layer (traced) metric of ``BENCHMARK.json`` is printed with its
unit, that every correctness check passed with nothing failed, and that
the traced run reproduced the untraced run's outcome digest.  It also
checks that the benchmark refuses to run, without printing a result,
from a directory holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_run(spec: dict, workload: str, trace: int) -> str:
    proc = run(workload, trace)
    where = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        assert got is not None, f"{where}: {metric['name']} missing"
        assert got["unit"] == metric["unit"], f"{where}: {metric['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{where}: {metric['name']}"
        if not trace:
            assert got["value"] > 0, f"{where}: {metric['name']} is {got['value']}"
        shown = [line for line in lines if line.split()[:1] == [metric["name"]]]
        assert shown and shown[0].split()[-1] == metric["unit"], f"{where}: {metric['name']}"
    assert not [line for line in lines if "check FAIL" in line], where
    if trace:
        assert any("(unattributed)" in line for line in lines), where
    (det,) = [line for line in lines if line.startswith("determinism ")]
    return json.loads(det.split(" ", 1)[1])["digest"]


def check_refuses_without_program() -> None:
    workdir = ROOT / ".perfbench_tmp"
    workdir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=workdir))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("drop-25k", 0, cwd=bare)
        assert proc.returncode != 0, "ran without the program"
        assert '"metrics"' not in proc.stdout, "printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            workdir.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = check_run(spec, workload, 0)
        traced = check_run(spec, workload, 1)
        assert untraced == traced, f"{workload}: traced digest {traced} != {untraced}"
        print(f"ok {workload}")
    check_refuses_without_program()
    print("ok refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
