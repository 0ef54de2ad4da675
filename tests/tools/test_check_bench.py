"""The static validator of the committed benchmark artifacts.

``tools/check_bench.py`` gates every ``BENCH_*.json`` on a per-artifact
list of anchor keys (what workload, at what scale, which search) so a
truncated or anonymous payload fails with a *named* missing key instead
of a ``KeyError`` somewhere downstream.  These tests pin that behaviour
against the committed payloads and synthetic mutations of them.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"


def _load_check_bench():
    spec = importlib.util.spec_from_file_location(
        "check_bench", REPO_ROOT / "tools" / "check_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_bench():
    return _load_check_bench()


def _committed(name):
    return json.loads((BENCH_DIR / name).read_text())


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestCommittedArtifacts:
    def test_every_committed_artifact_has_a_schema(self, check_bench):
        committed = {p.name for p in BENCH_DIR.glob("BENCH_*.json")}
        assert committed == set(check_bench.PROVENANCE_KEYS)

    def test_committed_artifacts_pass(self, check_bench):
        for name in check_bench.PROVENANCE_KEYS:
            assert check_bench.check_provenance(BENCH_DIR / name) == []

    def test_main_runs_no_simulation(self):
        """The validator is static: it passes on the committed artifacts
        without importing the program (so it cannot run a trial)."""
        code = (
            "import runpy, sys\n"
            "sys.argv = ['check_bench.py']\n"
            "try:\n"
            "    runpy.run_path(sys.argv[0], run_name='__main__')\n"
            "except SystemExit as stop:\n"
            "    assert stop.code == 0, stop.code\n"
            "assert not [m for m in sys.modules if m.split('.')[0] in ('repro', 'numpy')]\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], cwd=REPO_ROOT / "tools", check=True,
            capture_output=True,
        )


def test_every_bench_module_runs_in_ci():
    """A ``benchmarks/bench_*.py`` that no CI step names is never run:
    each must appear on a non-comment line of the workflow."""
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    steps = "\n".join(
        line for line in workflow.splitlines() if not line.lstrip().startswith("#")
    )
    benches = sorted(p.name for p in BENCH_DIR.glob("bench_*.py"))
    assert benches
    assert [name for name in benches if f"benchmarks/{name}" not in steps] == []


class TestNamedFailures:
    def test_missing_nested_key_is_named(self, check_bench, tmp_path):
        payload = _committed("BENCH_tuning.json")
        del payload["search"]["budget"]
        path = _write(tmp_path, "BENCH_tuning.json", payload)
        errors = check_bench.check_provenance(path)
        assert errors == ["BENCH_tuning.json: missing provenance key 'search.budget'"]

    def test_missing_top_level_key_is_named(self, check_bench, tmp_path):
        payload = _committed("BENCH_control.json")
        del payload["static_grid"]
        path = _write(tmp_path, "BENCH_control.json", payload)
        errors = check_bench.check_provenance(path)
        assert errors == ["BENCH_control.json: missing provenance key 'static_grid'"]

    def test_non_mapping_parent_is_named_not_a_crash(self, check_bench, tmp_path):
        payload = _committed("BENCH_tuning.json")
        payload["tuner_stats"] = "oops"
        path = _write(tmp_path, "BENCH_tuning.json", payload)
        errors = check_bench.check_provenance(path)
        assert sorted(errors) == [
            "BENCH_tuning.json: missing provenance key 'tuner_stats.best_params'",
            "BENCH_tuning.json: missing provenance key 'tuner_stats.best_score'",
        ]
        errors = check_bench.check_tuning_payload(path, BENCH_DIR / "BENCH_control.json")
        assert errors == [
            "BENCH_tuning.json: tuner_stats lacks 'best_score'",
            "BENCH_tuning.json: tuner_stats lacks 'best_params'",
        ]

    def test_unregistered_artifact_is_rejected(self, check_bench, tmp_path):
        path = tmp_path / "BENCH_mystery.json"
        path.write_text("{}")
        errors = check_bench.check_provenance(path)
        assert len(errors) == 1
        assert "no provenance schema registered" in errors[0]

    def test_unreadable_artifact_is_reported(self, check_bench, tmp_path):
        path = tmp_path / "BENCH_control.json"
        path.write_text("{not json")
        errors = check_bench.check_provenance(path)
        assert len(errors) == 1
        assert "unreadable" in errors[0]


class TestTuningReferences:
    """``BENCH_tuning.json`` copies three numbers from
    ``BENCH_control.json``; a missing one on either side is an error
    naming the key, not a ``KeyError`` traceback."""

    @pytest.mark.parametrize("key", ["hysteresis_pct", "best_static", "best_static_pct"])
    def test_missing_reference_is_named(self, check_bench, tmp_path, key):
        payload = _committed("BENCH_tuning.json")
        del payload["references"][key]
        path = _write(tmp_path, "BENCH_tuning.json", payload)
        errors = check_bench.check_tuning_payload(path, BENCH_DIR / "BENCH_control.json")
        assert errors == [f"BENCH_tuning.json: references lacks {key!r}"]

    def test_control_without_comparison_is_named(self, check_bench, tmp_path):
        control = _committed("BENCH_control.json")
        del control["comparison"]
        control_path = _write(tmp_path, "BENCH_control.json", control)
        errors = check_bench.check_tuning_payload(BENCH_DIR / "BENCH_tuning.json", control_path)
        assert errors == [
            "BENCH_tuning.json: reference source BENCH_control.json lacks 'comparison'"
        ]
        assert check_bench.check_control_payload(control_path) == [
            "BENCH_control.json: missing top-level key 'comparison'"
        ]
