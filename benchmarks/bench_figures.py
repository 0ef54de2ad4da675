"""Figure benches: Figs. 7–10 regenerated from the figure registry.

Each bench runs one :data:`~repro.experiments.scenarios.FIGURES` entry
through :func:`~repro.experiments.scenarios.run_figure`, prints the grid
the paper plots as grouped bars, and checks the paper's claim about its
shape:

* Fig. 7 — impact of the Toggle module: immediate-mode (7a) and
  batch-mode (7b) heuristics under {no dropping, always dropping,
  reactive Toggle};
* Fig. 8 — the task-deferring threshold sweep (0/25/50/75 %) at the
  heaviest oversubscription level (25k-equivalent, spiky arrivals);
* Fig. 9 — the full pruning mechanism on batch-mode heuristics, constant
  (9a) and spiky (9b) arrivals, across the three oversubscription levels;
* Fig. 10 — the same on homogeneous systems (FCFS-RR, SJF, EDF).
"""

import pytest

from benchmarks.conftest import run_figure
from repro.experiments.scenarios import FIGURES

NO_DROP = "no Toggle, no dropping"
ALWAYS = "no Toggle, always dropping"
REACTIVE = "reactive Toggle"


def _fig7a(grid, show):
    # Shape check (§V-C): reactive dropping helps the informed
    # immediate-mode heuristics.
    for h in ("MCT", "KPB"):
        assert grid.get(h, REACTIVE).mean_pct >= grid.get(h, NO_DROP).mean_pct - 2.0


def _fig7b(grid, show):
    # Shape check: dropping (either policy) lifts every batch heuristic.
    for h in ("MM", "MSD", "MMU"):
        assert grid.get(h, REACTIVE).mean_pct >= grid.get(h, NO_DROP).mean_pct - 2.0


def _fig8(grid, show):
    # Shape checks (§V-D): deferring at 50 % lifts the deadline-chasing
    # heuristics far above their no-pruning baseline...
    for h in ("MSD", "MMU"):
        assert grid.get(h, "50%").mean_pct > grid.get(h, "0%").mean_pct
    # ...and the three heuristics converge once deferring is active.
    at50 = [grid.get(h, "50%").mean_pct for h in grid.rows]
    at0 = [grid.get(h, "0%").mean_pct for h in grid.rows]
    assert max(at50) - min(at50) < max(at0) - min(at0)


def _fig9(grid, show):
    # §V-E: pruning strictly helps the deadline-chasing heuristics at the
    # heaviest level, and never substantially hurts MM (whose baseline is
    # already strong; at bench trial counts a small tie is noise).
    for h in ("MSD", "MMU"):
        assert grid.get(f"{h}-P", "25k").mean_pct > grid.get(h, "25k").mean_pct
    assert grid.get("MM-P", "25k").mean_pct > grid.get("MM", "25k").mean_pct - 3.0


def _fig9b(grid, show):
    _fig9(grid, show)
    show(
        f"headline: max pruning gain {grid.max_improvement():+.1f} pp "
        "(paper reports up to +35 pp on batch-mode HC systems)"
    )


def _fig10(grid, show):
    # §V-F: pruning significantly helps homogeneous heuristics too, and
    # the benefit holds at every oversubscription level for EDF (the
    # heuristic the paper highlights).
    for h in ("FCFS-RR", "SJF", "EDF"):
        assert grid.get(f"{h}-P", "25k").mean_pct > grid.get(h, "25k").mean_pct
    for level in grid.cols:
        assert grid.get("EDF-P", level).mean_pct > grid.get("EDF", level).mean_pct


#: Figure → its shape claims.  ``churn`` is not a paper figure and makes
#: no claim, so it has no bench.
CLAIMS = {
    "fig7a": _fig7a,
    "fig7b": _fig7b,
    "fig8": _fig8,
    "fig9a": _fig9,
    "fig9b": _fig9b,
    "fig10a": _fig10,
    "fig10b": _fig10,
}


def test_claims_cover_the_paper_figures():
    assert set(CLAIMS) == set(FIGURES) - {"churn"}


@pytest.mark.parametrize("name", list(CLAIMS))
def test_figure(name, benchmark, show):
    grid = run_figure(benchmark, name)
    show(grid.to_text())
    CLAIMS[name](grid, show)
