"""Provenance schema of the committed benchmark artifacts.

``tools/check_bench.py`` gates every ``BENCH_*.json`` on a per-artifact
list of anchor keys (what workload, at what scale, against which
baseline) so a truncated or anonymous payload fails with a *named*
missing key instead of a ``KeyError`` somewhere downstream.  These
tests pin that behaviour against the committed payloads and synthetic
mutations of them.
"""

from __future__ import annotations

import importlib.util
import json
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


class TestCommittedArtifacts:
    def test_every_committed_artifact_has_a_schema(self, check_bench):
        committed = {p.name for p in BENCH_DIR.glob("BENCH_*.json")}
        assert committed == set(check_bench.PROVENANCE_KEYS)

    def test_committed_artifacts_pass(self, check_bench):
        for name in check_bench.PROVENANCE_KEYS:
            assert check_bench.check_provenance(BENCH_DIR / name) == []

    def test_schema_covers_live_run_dereferences(self, check_bench):
        """Keys ``main()`` dereferences on the estimator payload must be
        in the schema, so a truncated payload fails by name before the
        live smoke run KeyErrors on it."""
        keys = set(check_bench.PROVENANCE_KEYS["BENCH_estimator.json"])
        assert {
            "events_per_sec.incremental",
            "events_per_sec.naive",
            "workload.scale",
        } <= keys


class TestNamedFailures:
    def test_missing_nested_key_is_named(self, check_bench, tmp_path):
        payload = json.loads((BENCH_DIR / "BENCH_estimator.json").read_text())
        del payload["workload"]["scale"]
        path = tmp_path / "BENCH_estimator.json"
        path.write_text(json.dumps(payload))
        errors = check_bench.check_provenance(path)
        assert errors == [
            "BENCH_estimator.json: missing provenance key 'workload.scale'"
        ]

    def test_missing_top_level_key_is_named(self, check_bench, tmp_path):
        payload = json.loads((BENCH_DIR / "BENCH_campaign.json").read_text())
        del payload["cpu_count"]
        path = tmp_path / "BENCH_campaign.json"
        path.write_text(json.dumps(payload))
        errors = check_bench.check_provenance(path)
        assert errors == ["BENCH_campaign.json: missing provenance key 'cpu_count'"]

    def test_non_mapping_parent_is_named_not_a_crash(self, check_bench, tmp_path):
        payload = json.loads((BENCH_DIR / "BENCH_estimator.json").read_text())
        payload["events_per_sec"] = "oops"
        path = tmp_path / "BENCH_estimator.json"
        path.write_text(json.dumps(payload))
        errors = check_bench.check_provenance(path)
        assert sorted(errors) == [
            "BENCH_estimator.json: missing provenance key 'events_per_sec.incremental'",
            "BENCH_estimator.json: missing provenance key 'events_per_sec.naive'",
        ]

    def test_unregistered_artifact_is_rejected(self, check_bench, tmp_path):
        path = tmp_path / "BENCH_mystery.json"
        path.write_text("{}")
        errors = check_bench.check_provenance(path)
        assert len(errors) == 1
        assert "no provenance schema registered" in errors[0]

    def test_unreadable_artifact_is_reported(self, check_bench, tmp_path):
        path = tmp_path / "BENCH_estimator.json"
        path.write_text("{not json")
        errors = check_bench.check_provenance(path)
        assert len(errors) == 1
        assert "unreadable" in errors[0]
