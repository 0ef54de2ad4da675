"""Golden-trace regression suite.

Three canonical traces (static / churn / bursty — committed under
``tests/golden/``) are replayed through fully pinned system
configurations and the resulting ``SimulationResult.to_dict()`` is
diffed *exactly* against committed fixtures.  Any refactor that shifts
schedules — event ordering, RNG stream consumption, estimator changes
with behavioral side effects, churn timing — fails here first, by
design, instead of silently moving every figure.

After an *intentional* behavior change, regenerate with::

    python tools/make_golden.py

and review the fixture diff like code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import pet_matrix
from repro.sim.dynamics import DynamicsSpec
from repro.system.serverless import ServerlessSystem
from repro.workload.trace import load_trace

# The replay recipe must be the regenerator's, not a copy of it — a
# drift between the two would pin fixtures against a different config
# than the one that produced them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from make_golden import case_pruning, run_case_live  # noqa: E402

GOLDEN_DIR = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN_DIR / "cases.json").read_text())


def _diff(expected: dict, actual: dict) -> str:
    """Human-oriented first-divergence report (the assert shows it all,
    this makes the culprit field readable)."""
    lines = []
    for key in sorted(set(expected) | set(actual)):
        if expected.get(key) != actual.get(key):
            lines.append(f"  {key}: expected {expected.get(key)!r} != actual {actual.get(key)!r}")
    return "\n".join(lines)


@pytest.mark.parametrize(
    "case, memoize",
    [(c, True) for c in CASES] + [(c, False) for c in CASES],
    ids=[c["name"] for c in CASES] + [f"{c['name']}-oracle" for c in CASES],
)
def test_golden_trace_replay_is_exact(case, memoize):
    """The incremental estimator reproduces each fixture exactly; the
    from-scratch oracle (``memoize=False``) reproduces every key but the
    estimator's own counters, which differ by design."""
    tasks, spec = load_trace(GOLDEN_DIR / f"{case['name']}.trace.json")
    assert spec is not None  # fixtures carry their generating spec
    system = ServerlessSystem(
        pet_matrix("inconsistent"),
        case["heuristic"],
        pruning=case_pruning(case),
        seed=case["seed"],
        dynamics=DynamicsSpec(**case["dynamics"]) if case["dynamics"] else None,
        memoize=memoize,
    )
    actual = system.run(tasks).to_dict()
    expected = json.loads((GOLDEN_DIR / f"{case['name']}.expected.json").read_text())
    if not memoize:
        del actual["estimator_stats"], expected["estimator_stats"]
    assert actual == expected, (
        f"golden trace {case['name']} diverged — if the behavior change is "
        f"intentional, regenerate with `python tools/make_golden.py`:\n"
        f"{_diff(expected, actual)}"
    )


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_trace_live_service_is_byte_identical(case):
    """Replay-vs-live equivalence: the same golden trace streamed through
    the scheduler *service* under a virtual clock must reproduce the
    committed fixture byte-identically — the sim engine and the live
    driver are two drivers over one mapping core, and this is the proof."""
    tasks, spec = load_trace(GOLDEN_DIR / f"{case['name']}.trace.json")
    assert spec is not None
    actual = run_case_live(case, tasks)
    expected = json.loads((GOLDEN_DIR / f"{case['name']}.expected.json").read_text())
    assert actual == expected, (
        f"live service diverged from golden trace {case['name']}:\n"
        f"{_diff(expected, actual)}"
    )


def test_golden_covers_dynamics_and_static():
    """The suite must keep pinning both regimes: at least one static
    cluster and at least one case with churn."""
    assert any(c["dynamics"] is None for c in CASES)
    assert any(c["dynamics"] for c in CASES)


def test_golden_covers_adaptive_controller():
    """At least one case must pin a controller's setpoint trajectory —
    and its fixture must actually contain one."""
    adaptive = [c for c in CASES if c.get("controller")]
    assert adaptive
    for case in adaptive:
        payload = json.loads(
            (GOLDEN_DIR / f"{case['name']}.expected.json").read_text()
        )
        stats = payload["controller_stats"]
        assert stats["controller"] == case["controller"]["kind"]
        assert stats["trajectory"], "trajectory must be pinned non-empty"


def test_golden_fixtures_round_trip_through_result_dict():
    from repro.metrics.collector import SimulationResult

    for case in CASES:
        payload = json.loads(
            (GOLDEN_DIR / f"{case['name']}.expected.json").read_text()
        )
        assert SimulationResult.from_dict(payload).to_dict() == payload
