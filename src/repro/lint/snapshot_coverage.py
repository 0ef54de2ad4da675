"""D005 — snapshot coverage cross-check.

``service/snapshot.py`` serializes a closed set of classes.  Every
instance attribute those classes establish (``self.x = ...`` in
``__init__``, or a dataclass field) must either appear in the
snapshot/restore source — as an attribute access or a string key — or
carry an entry in the :data:`EXCLUSIONS` table below with a one-line
reason.  A PR that adds a field and forgets the snapshot turns from a
Hypothesis-lottery bug into a lint failure at review time.

The "appears in snapshot.py" test is deliberately name-based (any
attribute access or string constant in the module counts): it is cheap,
has no false negatives for removals — deleting ``"busy_time"`` from the
dump *and* restore code makes the name vanish and D005 fire — and its
false-coverage window (two classes sharing a field name) is closed by
reviewing the exclusion table, which is in version control.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterator

from .rules import D005_HINT, Violation

__all__ = ["SnapshotClassSpec", "SNAPSHOT_CLASSES", "EXCLUSIONS", "check_snapshot_coverage"]


@dataclass(frozen=True)
class SnapshotClassSpec:
    """One class whose full mutable state service/snapshot.py owns."""

    class_name: str
    #: Repo-relative path of the module defining the class.
    path: str


#: The classes ``snapshot_service``/``restore_service`` serialize.
#: (``TypeCounters`` is dumped wholesale via ``vars()`` and rebuilt via
#: ``TypeCounters(**counters)`` — field-name coverage is structural, so
#: it is not listed here.)
SNAPSHOT_CLASSES: tuple[SnapshotClassSpec, ...] = (
    SnapshotClassSpec("Task", "src/repro/sim/task.py"),
    SnapshotClassSpec("Machine", "src/repro/sim/machine.py"),
    SnapshotClassSpec("Accounting", "src/repro/core/accounting.py"),
    SnapshotClassSpec("Pruner", "src/repro/core/pruner.py"),
    SnapshotClassSpec("ControllerDriver", "src/repro/control/driver.py"),
    SnapshotClassSpec("ServiceStats", "src/repro/service/service.py"),
    SnapshotClassSpec("SchedulerService", "src/repro/service/service.py"),
)

#: ``Class.attr`` → why the snapshot may ignore it.  Every entry needs a
#: reason; an empty reason is a lint failure.
EXCLUSIONS: dict[str, str] = {
    "Task.deps": "snapshot_service refuses DAG systems, so deps is always ()",
    "Machine.queue_limit": "build-time config; the restore target is built from the same config",
    "Machine.observers": "re-subscribed by the target system's own constructor wiring",
    "Machine.on_reap": "installed by the allocator when the target system is built",
    "Pruner.config": "frozen config; the restore target is built from the same config",
    "Pruner.accounting": "shared Accounting instance, serialized at the snapshot top level",
    "Pruner.toggle": "pure function of (config, setpoints); rebuilt at construction",
    "Pruner._scan_memo": "correctness-invisible memo cache; cold restart re-fills it",
    "ControllerDriver.setpoints": "shared Setpoints cell, restored through the pruner block",
    "SchedulerService.system": "the restore target supplies its own identically-built system",
    "SchedulerService.timeline": "alias of system.sim on the restore target",
    "SchedulerService.clock": "alias of timeline.clock; resumed via clock.resume_at(time)",
    "SchedulerService.gate": (
        "rebuilt from admission_threshold by the restore target's constructor; "
        "ServiceStats carries the ingress tallies"
    ),
    "SchedulerService._idle": "transient pump handshake; snapshot requires a quiescent pump",
    "SchedulerService._pump_task": "transient pump handle; the restore target is not started",
    "SchedulerService._stopping": "transient pump flag; reset by start()",
}


# ----------------------------------------------------------------------
# Attribute harvesting.
# ----------------------------------------------------------------------
def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        node = deco.func if isinstance(deco, ast.Call) else deco
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name == "dataclass":
            return True
    return False


def class_attributes(cls: ast.ClassDef) -> list[tuple[str, int]]:
    """``(attr, line)`` pairs a class establishes on its instances."""
    attrs: dict[str, int] = {}
    if _is_dataclass(cls):
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                ann = ast.unparse(stmt.annotation)
                if not ann.startswith(("ClassVar", "typing.ClassVar")):
                    attrs.setdefault(stmt.target.id, stmt.lineno)
        return sorted(attrs.items())
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for node in ast.walk(stmt):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.setdefault(target.attr, target.lineno)
    return sorted(attrs.items())


def covered_names(snapshot_tree: ast.AST) -> frozenset[str]:
    """Every identifier snapshot.py could be serializing: attribute
    accesses and string constants (dict keys, field tuples)."""
    names: set[str] = set()
    for node in ast.walk(snapshot_tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return frozenset(names)


def check_snapshot_coverage(
    root: Path,
    *,
    snapshot_path: str = "src/repro/service/snapshot.py",
    classes: tuple[SnapshotClassSpec, ...] = SNAPSHOT_CLASSES,
    exclusions: dict[str, str] | None = None,
) -> Iterator[Violation]:
    """Yield a D005 violation per uncovered, unexcluded attribute."""
    excl = EXCLUSIONS if exclusions is None else exclusions
    snap_file = root / snapshot_path
    try:
        snap_tree = ast.parse(snap_file.read_text(encoding="utf-8"))
    except (OSError, SyntaxError) as exc:
        yield Violation(
            code="D005",
            path=snapshot_path,
            line=1,
            col=0,
            message=f"cannot analyze snapshot module: {exc}",
            hint=D005_HINT,
        )
        return
    covered = covered_names(snap_tree)

    for key, reason in sorted(excl.items()):
        if not str(reason).strip():
            yield Violation(
                code="D005",
                path=snapshot_path,
                line=1,
                col=0,
                message=f"exclusion table entry {key!r} has no reason",
                hint="every snapshot-coverage exclusion needs a one-line rationale",
            )

    for spec in classes:
        mod_file = root / spec.path
        try:
            tree = ast.parse(mod_file.read_text(encoding="utf-8"))
        except (OSError, SyntaxError) as exc:
            yield Violation(
                code="D005",
                path=spec.path,
                line=1,
                col=0,
                message=f"cannot analyze {spec.class_name}: {exc}",
                hint=D005_HINT,
            )
            continue
        cls = next(
            (
                node
                for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == spec.class_name
            ),
            None,
        )
        if cls is None:
            yield Violation(
                code="D005",
                path=spec.path,
                line=1,
                col=0,
                message=f"class {spec.class_name} not found (stale SNAPSHOT_CLASSES entry?)",
                hint=D005_HINT,
            )
            continue
        for attr, line in class_attributes(cls):
            if attr in covered:
                continue
            if f"{spec.class_name}.{attr}" in excl:
                continue
            yield Violation(
                code="D005",
                path=spec.path,
                line=line,
                col=0,
                message=(
                    f"{spec.class_name}.{attr} is instance state but never "
                    f"appears in {snapshot_path} — a restored service would "
                    f"silently drop it"
                ),
                hint=D005_HINT,
            )
