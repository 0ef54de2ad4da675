"""Tests for the figure registry at tiny scale.

Each figure runs once at scale 0.15 with one trial; the tests check its
wiring, labels, grid structure, byte identity with the recorded
per-figure grids, and every row of its claims registry.  The same rows
run at bench scale in ``benchmarks/bench_figures.py``.
"""

import dataclasses
import functools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import scenarios
from repro.experiments.campaign import _config_payload, _provenance
from repro.experiments.report import FigureResult
from repro.metrics.robustness import AggregateStats
from repro.sim.rng import fingerprint

TINY = dict(trials=1, base_seed=1, scale=0.15)


class TestLevelSpec:
    def test_levels_keep_paper_ratios(self):
        n15 = scenarios.level_spec("15k").num_tasks
        n20 = scenarios.level_spec("20k").num_tasks
        n25 = scenarios.level_spec("25k").num_tasks
        assert n20 / n15 == pytest.approx(20 / 15, rel=0.01)
        assert n25 / n15 == pytest.approx(25 / 15, rel=0.01)

    def test_scale_preserves_rate(self):
        base = scenarios.level_spec("15k")
        scaled = scenarios.level_spec("15k", scale=2.0)
        assert scaled.mean_arrival_rate == pytest.approx(base.mean_arrival_rate, rel=0.01)
        assert scaled.time_span == pytest.approx(2 * base.time_span)

    def test_unknown_level(self):
        with pytest.raises(KeyError):
            scenarios.level_spec("30k")

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            scenarios.level_spec("15k", scale=0.0)


class TestFig6:
    def test_spikes_stand_out(self):
        """The spiky pattern's peak window is well above its lull."""
        series = scenarios.fig6(base_seed=7, scale=0.4)
        assert len(series) == 4
        for ttype, (_centers, rates) in series.items():
            median = float(np.median(rates))
            assert median > 0, ttype
            assert rates.max() > 1.5 * median, ttype

    def test_series_shape(self):
        series = scenarios.fig6(base_seed=1, scale=0.25, num_types_shown=2)
        assert set(series) == {0, 1}
        centers, rates = series[0]
        assert centers.size == rates.size > 0

    def test_text_rendering(self):
        text = scenarios.fig6_text(base_seed=1, scale=0.25, num_types_shown=2)
        assert "Fig. 6" in text
        assert "type0" in text and "type1" in text


@functools.cache
def _tiny(name: str) -> FigureResult:
    """Each figure runs once per session at TINY (shared by the tests)."""
    return scenarios.run_figure(name, **TINY)


class TestGrids:
    def test_fig7a_structure(self):
        grid = _tiny("fig7a")
        assert isinstance(grid, FigureResult)
        assert grid.rows == ["RR", "MCT", "MET", "KPB"]
        assert len(grid.cols) == 3
        assert all(0 <= grid.get(r, c).mean_pct <= 100 for r in grid.rows for c in grid.cols)

    def test_fig7b_structure(self):
        grid = _tiny("fig7b")
        assert grid.rows == ["MM", "MSD", "MMU"]

    def test_fig8_structure(self):
        grid = _tiny("fig8")
        assert grid.cols == ["0%", "25%", "50%", "75%"]

    def test_fig9_both_patterns(self):
        a = _tiny("fig9a")
        b = _tiny("fig9b")
        assert a.figure_id == "fig9a"
        assert b.figure_id == "fig9b"
        assert a.rows == ["MM", "MSD", "MMU", "MM-P", "MSD-P", "MMU-P"]
        assert a.cols == ["15k", "20k", "25k"]

    def test_fig10_homogeneous(self):
        grid = _tiny("fig10b")
        assert grid.figure_id == "fig10b"
        assert grid.rows == ["FCFS-RR", "SJF", "EDF", "FCFS-RR-P", "SJF-P", "EDF-P"]

    def test_all_figures_registry(self):
        assert set(scenarios.ALL_FIGURES) == {
            "fig6",
            "fig7a",
            "fig7b",
            "fig8",
            "fig9a",
            "fig9b",
            "fig10a",
            "fig10b",
            "churn",
        }


CLAIM_ROWS = [
    (name, claim) for name, figure in scenarios.FIGURES.items() for claim in figure.claims
]


class TestClaims:
    def test_every_paper_figure_makes_a_claim(self):
        assert {name for name, figure in scenarios.FIGURES.items() if not figure.claims} == {
            "churn"
        }

    def test_claim_names_are_unique_per_figure(self):
        for figure in scenarios.FIGURES.values():
            names = [claim.name for claim in figure.claims]
            assert len(names) == len(set(names))

    @pytest.mark.parametrize(
        ("name", "claim"), CLAIM_ROWS, ids=[f"{name}:{claim.name}" for name, claim in CLAIM_ROWS]
    )
    def test_claim_holds(self, name, claim):
        failed = scenarios.failed_claims(_tiny(name))
        assert claim.name not in failed, failed[claim.name]


def _table(figure_id, means, cols=("15k", "25k")):
    """A FigureResult whose every column holds ``means[row]``."""
    return FigureResult(
        figure_id=figure_id,
        title="",
        row_axis="",
        col_axis="",
        rows=list(means),
        cols=list(cols),
        cells={
            r: {c: AggregateStats(m, 0.0, 1, (m,)) for c in cols} for r, m in means.items()
        },
    )


class TestClaimEvaluator:
    """The evaluator's arithmetic on hand-made tables."""

    def test_terms(self):
        result = _table("fig9b", {"MM": 40.0, "MSD": 10.0, "MM-P": 55.0, "MSD-P": 50.0})
        assert scenarios.cell("MSD", "25k").value(result) == 10.0
        assert scenarios.gain("MM", "25k").value(result) == 15.0
        assert scenarios.gain("MSD", "25k").value(result) == 40.0
        assert scenarios.spread(["MM", "MSD"], "25k").value(result) == 30.0
        assert str(scenarios.spread(["MM", "MSD"], "25k")) == "spread(MM, MSD @ 25k)"

    def test_failed_rows_are_named_with_their_values(self):
        # MMU loses 2 pp to pruning, and the gain is the same at every
        # level: only those two rows fail.
        result = _table(
            "fig9b",
            {"MM": 40.0, "MSD": 10.0, "MMU": 60.0, "MM-P": 55.0, "MSD-P": 50.0, "MMU-P": 58.0},
        )
        failed = scenarios.failed_claims(result)
        assert set(failed) == {"pruning-lifts-MMU-at-25k", "gain-grows-with-load"}
        assert failed["pruning-lifts-MMU-at-25k"] == (
            "cell(MMU-P @ 25k) = 58.00 <= cell(MMU @ 25k) = 60.00 - 0"
        )

    @pytest.mark.parametrize(("mm_pruned", "fails"), [(47.0, True), (47.5, False)])
    def test_tolerance_bound_is_exclusive(self, mm_pruned, fails):
        """fig9a's MM row allows 3 pp: landing exactly on it fails."""
        result = _table(
            "fig9a",
            {"MM": 50.0, "MSD": 10.0, "MMU": 10.0, "MM-P": mm_pruned, "MSD-P": 50.0, "MMU-P": 50.0},
        )
        assert ("pruning-lifts-MM-at-25k" in scenarios.failed_claims(result)) is fails


class TestHeadline:
    def test_summary_text(self):
        text = scenarios.headline_summary(_tiny("fig9b"), _tiny("fig10b"))
        assert "max pruning gain" in text
        assert "paper" in text


# ----------------------------------------------------------------------
# Byte identity against tests/data/figure_grids.json, recorded from the
# hand-written per-figure functions the registry replaced.
# ----------------------------------------------------------------------
FIXTURE = json.loads((Path(__file__).parent.parent / "data" / "figure_grids.json").read_text())
OVERRIDES = FIXTURE["settings"]["overrides"]
#: Fixture entry → (figure, run_figure overrides).
CASES = {name: (name, {}) for name in scenarios.FIGURES}
CASES["fig8-overrides"] = ("fig8", OVERRIDES)


def _outcome_key(config, trial: int) -> str:
    """trial_key without the code/dependency provenance, which moves
    with every source edit: the outcome-determining cell identity."""
    provenance = _provenance()
    cell = {k: v for k, v in _config_payload(config).items() if k not in provenance}
    return fingerprint({"cell": cell, "trial": trial}, length=32)


class TestParentFixture:
    def test_fixture_covers_every_figure(self):
        assert set(FIXTURE["figures"]) == set(CASES)
        assert {k: FIXTURE["settings"][k] for k in TINY} == TINY

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_grid_byte_identical(self, case):
        name, overrides = CASES[case]
        result = _tiny(name) if not overrides else scenarios.run_figure(name, **TINY, **overrides)
        assert json.dumps(result.to_dict()) == json.dumps(FIXTURE["figures"][case]["result"])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trial_keys_unchanged(self, case):
        name, overrides = CASES[case]
        grid = dataclasses.replace(
            scenarios.figure_grid(name, TINY["scale"]),
            trials=TINY["trials"],
            base_seed=TINY["base_seed"],
        ).with_pruning(
            threshold=overrides.get("pruning_threshold"),
            dropping_toggle=overrides.get("toggle_alpha"),
            controller=overrides.get("controller"),
        )
        # The figure's own projection, fed per-cell key lists in place
        # of statistics, lays the keys out by (row, col).
        rows = [
            SimpleNamespace(
                heuristic=cell.config.heuristic,
                stats=[_outcome_key(cell.config, t) for t in range(cell.config.trials)],
            )
            for cell in grid.expand()
        ]
        keys = scenarios.project_figure(name, grid, SimpleNamespace(rows=rows)).cells
        assert keys == FIXTURE["figures"][case]["trial_keys"]
