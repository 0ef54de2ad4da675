"""Characterization of grid expansion: cell identity is pinned.

Every preset plus one grid that sets every axis expands to exactly the
cells recorded in ``tests/data/grid_cells.json``: the same display
labels, grid coordinates and axis labels, the same ``to_dict()``, and
the same cache payload (fingerprinted without the provenance keys,
whose code digest changes with every source edit).  Any change to how
grid entries resolve, label or order their cells shows up here.

Re-record (only for a deliberate identity change) with::

    PYTHONPATH=src python tests/experiments/test_grid_cells.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.campaign import PRESETS, SweepGrid, _config_payload, _provenance
from repro.sim.rng import fingerprint

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
RECORD = REPO_ROOT / "tests" / "data" / "grid_cells.json"

TINY = {"name": "tiny", "num_tasks": 120, "time_span": 80.0, "num_task_types": 4}

#: One grid with two entries on every table axis, so baseline-once
#: emission, every label suffix and the tuning patch are all exercised.
ALL_AXES = {
    "name": "all-axes",
    "heuristics": ["MM"],
    "levels": [TINY],
    "patterns": ["spiky"],
    "pruning": ["none", "paper", {"threshold": 0.7, "toggle": "always", "defer": False}],
    "dynamics": ["none", {"failures": 1, "mean_downtime": 10.0}],
    "controller": ["none", "hysteresis:high=0.3,label=hot"],
    "dag": ["none", {"layers": 3}],
    "tuning": ["none", {"params": {"beta": 0.6}}],
    "trials": 2,
    "base_seed": 7,
}

GRIDS = {**{name: PRESETS[name] for name in sorted(PRESETS)}, "all-axes": ALL_AXES}


def _payload_digest(config) -> str:
    provenance = set(_provenance())
    payload = {k: v for k, v in _config_payload(config).items() if k not in provenance}
    return fingerprint(payload, length=16)


def snapshot(payload: dict) -> dict:
    grid = SweepGrid.from_dict(payload)
    cells = [
        [
            c.config.display_label,
            c.level,
            c.pattern,
            c.pruning_label,
            c.dynamics_label,
            c.controller_label,
            c.dag_label,
            c.tuning_label,
            _payload_digest(c.config),
        ]
        for c in grid.expand()
    ]
    # Round-trip through JSON so tuples compare equal to recorded lists.
    return json.loads(json.dumps({"grid": grid.to_dict(), "cells": cells}))


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORD.read_text())


@pytest.fixture(autouse=True)
def _repo_cwd(monkeypatch):
    # Trace presets name repo-relative files.
    monkeypatch.chdir(REPO_ROOT)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_cells_match_record(name, recorded):
    assert snapshot(GRIDS[name]) == recorded[name]


def test_record_covers_every_grid(recorded):
    assert sorted(recorded) == sorted(GRIDS)


def test_explicit_labels():
    labels = [c.config.display_label for c in SweepGrid.from_dict(ALL_AXES).expand()]
    assert labels[0] == "MM/base@tiny/spiky/inconsistent"
    assert labels[1] == "MM/base@tiny/spiky/inconsistent/dyn-f1-d10"
    assert "MM/P+hot~tuned-44e962ee@tiny/spiky/inconsistent/dag3/dyn-f1-d10" in labels
    assert "MM/P70-always-nodefer@tiny/spiky/inconsistent" in labels
    churn = [c.config.display_label for c in SweepGrid.preset("churn").expand()]
    assert churn[-1] == "MM/P@tiny/spiky/inconsistent/elastic"


def _record() -> None:
    os.chdir(REPO_ROOT)
    lines = []
    for name in sorted(GRIDS):
        snap = snapshot(GRIDS[name])
        rows = ",\n".join(f"   {json.dumps(row)}" for row in snap["cells"])
        lines.append(
            f' {json.dumps(name)}: {{\n  "grid": {json.dumps(snap["grid"])},\n'
            f'  "cells": [\n{rows}\n  ]\n }}'
        )
    RECORD.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    _record()
