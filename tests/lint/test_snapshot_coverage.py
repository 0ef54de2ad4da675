"""D005 snapshot-coverage tests: synthetic specs plus the real tree.

The acceptance property ("removing any attribute from snapshot_service
coverage makes D005 fail") is exercised on a *copy* of the real
modules: strip one covered attribute name from the copied snapshot
source and the rule must fire for exactly that attribute.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.lint import LintConfig, run_lint
from repro.lint.snapshot_coverage import (
    EXCLUSIONS,
    SNAPSHOT_CLASSES,
    SnapshotClassSpec,
    check_snapshot_coverage,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

SNAPSHOT_REL = "src/repro/service/snapshot.py"


def write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# ----------------------------------------------------------------------
# Synthetic minimal cases.
# ----------------------------------------------------------------------
class TestSyntheticSpecs:
    CLS = "src/repro/thing.py"
    SNAP = "src/repro/snap.py"
    SPEC = (SnapshotClassSpec("Thing", CLS),)

    def run(self, tmp_path, cls_src: str, snap_src: str, exclusions=None):
        write(tmp_path, self.CLS, cls_src)
        write(tmp_path, self.SNAP, snap_src)
        return list(
            check_snapshot_coverage(
                tmp_path,
                snapshot_path=self.SNAP,
                classes=self.SPEC,
                exclusions=exclusions or {},
            )
        )

    def test_positive_uncovered_attr(self, tmp_path):
        found = self.run(
            tmp_path,
            "class Thing:\n    def __init__(self):\n        self.a = 1\n        self.b = 2\n",
            "def dump(t):\n    return {'a': t.a}\n",
        )
        assert [v.code for v in found] == ["D005"]
        assert "Thing.b" in found[0].message

    def test_negative_all_covered(self, tmp_path):
        found = self.run(
            tmp_path,
            "class Thing:\n    def __init__(self):\n        self.a = 1\n        self.b = 2\n",
            "def dump(t):\n    return {'a': t.a, 'b': t.b}\n",
        )
        assert found == []

    def test_string_key_counts_as_coverage(self, tmp_path):
        # getattr-over-field-tuple style (how _dump_task works).
        found = self.run(
            tmp_path,
            "class Thing:\n    def __init__(self):\n        self.a = 1\n",
            "FIELDS = ('a',)\ndef dump(t):\n    return {f: getattr(t, f) for f in FIELDS}\n",
        )
        assert found == []

    def test_exclusion_table_suppresses(self, tmp_path):
        found = self.run(
            tmp_path,
            "class Thing:\n    def __init__(self):\n        self.cache = {}\n",
            "def dump(t):\n    return {}\n",
            exclusions={"Thing.cache": "memo cache, rebuilt cold"},
        )
        assert found == []

    def test_exclusion_without_reason_is_violation(self, tmp_path):
        found = self.run(
            tmp_path,
            "class Thing:\n    def __init__(self):\n        self.cache = {}\n",
            "def dump(t):\n    return {}\n",
            exclusions={"Thing.cache": "  "},
        )
        assert [v.code for v in found] == ["D005"]
        assert "no reason" in found[0].message

    @pytest.mark.parametrize(
        "key, why",
        [("Thing.gone", "no longer sets 'gone'"), ("Other.a", "not a snapshot class")],
    )
    def test_stale_exclusion_is_violation(self, tmp_path, key, why):
        found = self.run(
            tmp_path,
            "class Thing:\n    def __init__(self):\n        self.a = 1\n",
            "def dump(t):\n    return {'a': t.a}\n",
            exclusions={key: "was needed once"},
        )
        assert [v.code for v in found] == ["D005"]
        assert f"stale exclusion table entry {key!r}" in found[0].message
        assert why in found[0].message

    def test_dataclass_fields_are_collected(self, tmp_path):
        found = self.run(
            tmp_path,
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Thing:\n"
            "    a: int = 0\n"
            "    b: float = 0.0\n",
            "def dump(t):\n    return {'a': t.a}\n",
        )
        assert [v.code for v in found] == ["D005"]
        assert "Thing.b" in found[0].message

    def test_missing_class_is_reported(self, tmp_path):
        found = self.run(
            tmp_path,
            "class Other:\n    def __init__(self):\n        self.a = 1\n",
            "x = 1\n",
        )
        assert [v.code for v in found] == ["D005"]
        assert "not found" in found[0].message


# ----------------------------------------------------------------------
# The real tree.
# ----------------------------------------------------------------------
class TestRealTree:
    def copy_tree(self, tmp_path: Path) -> Path:
        for spec in SNAPSHOT_CLASSES:
            src = REPO_ROOT / spec.path
            dst = tmp_path / spec.path
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dst)
        snap = tmp_path / SNAPSHOT_REL
        snap.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(REPO_ROOT / SNAPSHOT_REL, snap)
        return tmp_path

    def test_repo_snapshot_coverage_is_clean(self):
        assert list(check_snapshot_coverage(REPO_ROOT)) == []

    @pytest.mark.parametrize("attr", ["busy_time", "completed_count", "defer_count"])
    def test_removing_coverage_fails(self, tmp_path, attr):
        """The ISSUE-9 acceptance property, on a copy of the real tree."""
        root = self.copy_tree(tmp_path)
        snap = root / SNAPSHOT_REL
        text = snap.read_text(encoding="utf-8")
        assert attr in text
        snap.write_text(text.replace(attr, "zzz_gone"), encoding="utf-8")
        found = list(check_snapshot_coverage(root))
        assert any(v.code == "D005" and f".{attr}" in v.message for v in found)

    def test_new_init_attr_without_coverage_fails(self, tmp_path):
        """A PR adding `self.new_field` to Machine.__init__ must trip D005."""
        root = self.copy_tree(tmp_path)
        machine = root / "src/repro/sim/machine.py"
        text = machine.read_text(encoding="utf-8")
        needle = "self.busy_time: float = 0.0"
        assert needle in text
        machine.write_text(
            text.replace(needle, needle + "\n        self.new_field = 0"),
            encoding="utf-8",
        )
        found = list(check_snapshot_coverage(root))
        assert any(v.code == "D005" and "Machine.new_field" in v.message for v in found)

    def test_every_exclusion_has_a_reason(self):
        for key, reason in EXCLUSIONS.items():
            assert reason.strip(), f"exclusion {key} lacks a rationale"

    def test_exclusions_reference_known_classes(self):
        known = {spec.class_name for spec in SNAPSHOT_CLASSES}
        for key in EXCLUSIONS:
            cls, _, attr = key.partition(".")
            assert cls in known and attr, f"malformed exclusion key {key!r}"


class TestSelfCheck:
    def test_repo_lints_clean(self):
        """`repro lint` must exit clean on the repo itself (the CI gate)."""
        report = run_lint(LintConfig(root=REPO_ROOT))
        assert report.ok, "\n".join(v.format() for v in report.active)
        # The waiver budget is deliberate: every waived violation carries
        # a reason (W001 would otherwise have failed `ok` above).
        assert all(v.waiver_reason for v in report.waived)

    def test_repo_scan_covers_the_three_roots(self):
        report = run_lint(LintConfig(root=REPO_ROOT))
        scanned_prefixes = {"src", "tests", "benchmarks"}
        seen = {v.path.split("/")[0] for v in report.violations}
        assert seen <= scanned_prefixes | {"src"}  # violations only from scan roots
        assert report.files_scanned > 100  # the real tree, not a stub
