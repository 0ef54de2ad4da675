"""The paper's evaluation figures (§V) as declarations over ``SweepGrid``.

A figure is a registry grid plus a row/column projection.  Each
:class:`Figure` in :data:`FIGURES` names the
:class:`~repro.experiments.campaign.SweepGrid` it runs — a
:data:`~repro.experiments.campaign.PRESETS` entry (``fig7b``,
``thresholds`` and ``oversub`` are the Fig. 7b, 8 and 9b grids) or a
one-field variant of one — and how each grid cell lands in the figure's
table: the row is the cell's heuristic (``-P`` suffixed when pruned, for
the pruning-vs-baseline figures) and the column is the display name of
the cell's pruning, level or dynamics entry, given positionally.

:func:`run_figure` expands the grid, runs it as one
:class:`~repro.experiments.campaign.Campaign` — so figures share the
sweeps' result cache, trial sharding and serial ≡ process identity — and
projects the per-cell statistics into a
:class:`~repro.experiments.report.FigureResult`.  β/α/controller
overrides are a grid rewrite (:meth:`SweepGrid.with_pruning
<repro.experiments.campaign.SweepGrid.with_pruning>`) applied before
expansion.  The oversubscription levels and their scale calibration
live in :mod:`~repro.experiments.campaign` (:data:`LEVELS`,
:func:`level_spec`).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace

import numpy as np

from ..metrics.robustness import AggregateStats
from ..sim.rng import stream_seed
from ..workload.arrivals import arrival_rate_series, generate_type_arrivals
from ..workload.spec import ArrivalPattern
from .campaign import LEVELS, PRESETS, Campaign, ResultCache, SweepGrid, level_spec
from .report import CampaignSummary, FigureResult
from .runner import pet_matrix

__all__ = [
    "level_spec",  # re-exported: lives in campaign next to the level resolver
    "Figure",
    "FIGURES",
    "ALL_FIGURES",
    "figure_grid",
    "project_figure",
    "run_figure",
    "fig6",
    "fig6_text",
    "headline_summary",
]


# ----------------------------------------------------------------------
# Fig. 6 — the spiky arrival pattern itself.
# ----------------------------------------------------------------------
def fig6(
    *,
    base_seed: int = 42,
    scale: float = 1.0,
    num_types_shown: int = 4,
    window: float | None = None,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Windowed per-type arrival rates of the spiky pattern (Fig. 6).

    Returns ``{task_type: (window_centers, rates)}`` for the first
    ``num_types_shown`` task types ("For better presentation, only four
    task types are shown").
    """
    spec = level_spec("15k", ArrivalPattern.SPIKY, scale)
    window = window or spec.time_span / 40.0
    pet = pet_matrix()
    per_type = spec.num_tasks / min(spec.num_task_types, pet.num_task_types)
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for ttype in range(num_types_shown):
        rng = np.random.default_rng(stream_seed(base_seed, f"fig6/{ttype}"))
        arrivals = generate_type_arrivals(spec, per_type, rng)
        out[ttype] = arrival_rate_series(arrivals, spec.time_span, window)
    return out


def fig6_text(**kwargs) -> str:
    """ASCII rendering of Fig. 6 (one row per window, columns per type)."""
    series = fig6(**kwargs)
    types = sorted(series)
    centers = series[types[0]][0]
    lines = [
        "Fig. 6: spiky task arrival pattern (tasks per time unit, per type)",
        "time".rjust(8) + "".join(f"type{t}".rjust(10) for t in types),
    ]
    for i, t0 in enumerate(centers):
        row = f"{t0:8.0f}" + "".join(f"{series[t][1][i]:10.2f}" for t in types)
        lines.append(row)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figs. 7–10 (and churn): one declaration each.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure:
    """One figure: the grid it runs and the projection of its cells."""

    title: str
    #: Workload scale → SweepGrid fields (``trials``/``base_seed``/
    #: ``scale`` are set on top).
    grid: Callable[[float], Mapping]
    #: Grid axis whose entry index picks a cell's column.
    col_axis: str
    #: Column display names, one per ``col_axis`` entry, in entry order.
    cols: tuple[str, ...]
    #: The figure's name for its column axis.
    col_name: str
    #: Rows are ``heuristic`` and ``heuristic-P`` (pruning entry 0 is
    #: the baseline) rather than the heuristic alone.
    pruned_rows: bool = False
    notes: str = ""


def _preset(name: str, **changes: object) -> Callable[[float], Mapping]:
    """A PRESETS grid, optionally with some fields replaced."""
    return lambda scale: {**PRESETS[name], **changes}


def _churn_grid(scale: float) -> Mapping:
    """Pruning vs baseline when oversubscription is *caused* by churn.

    The paper's transient-oversubscription claim, stress-tested: the
    same 20k-equivalent spiky workload runs on a static cluster and on
    clusters that lose machines mid-run (in-flight and queued work is
    requeued through admission; failed machines recover after an
    exponential downtime, a fixed share of the scaled span).  Not a
    figure of the paper.
    """
    downtime = level_spec("20k", ArrivalPattern.SPIKY, scale).time_span / 12.0
    return {
        "heuristics": ["MM", "MSD"],
        "levels": ["20k"],
        "pruning": ["none", "paper"],
        "dynamics": [
            "none",
            {"failures": 2, "mean_downtime": downtime},
            {"failures": 5, "mean_downtime": 2.0 * downtime},
        ],
    }


def _toggle(title: str, grid: Callable[[float], Mapping]) -> Figure:
    """A Fig. 7 panel: one column per dropping policy."""
    return Figure(
        title,
        grid,
        col_axis="pruning",
        cols=("no Toggle, no dropping", "no Toggle, always dropping", "reactive Toggle"),
        col_name="dropping policy",
    )


def _oversub(title: str, grid: Callable[[float], Mapping]) -> Figure:
    """A Fig. 9/10 panel: baseline and pruned rows, one column per level."""
    return Figure(
        title,
        grid,
        col_axis="levels",
        cols=tuple(LEVELS),
        col_name="oversubscription level",
        pruned_rows=True,
    )


_HOMOGENEOUS = dict(heuristics=["FCFS-RR", "SJF", "EDF"], heterogeneity=["homogeneous"])

#: The figures run by ``python -m repro.experiments <name>``, by name.
FIGURES: dict[str, Figure] = {
    "fig7a": _toggle(
        "Impact of Toggle on immediate-mode mapping heuristics",
        _preset("fig7b", heuristics=["RR", "MCT", "MET", "KPB"]),
    ),
    "fig7b": _toggle("Impact of Toggle on batch-mode mapping heuristics", _preset("fig7b")),
    "fig8": Figure(
        "Impact of task deferring on batch-mode heuristics (25k-equivalent)",
        _preset("thresholds"),
        col_axis="pruning",
        cols=("0%", "25%", "50%", "75%"),
        col_name="pruning threshold",
        notes="0% threshold = no pruning (the paper's baseline bar).",
    ),
    "fig9a": _oversub(
        "Pruning mechanism on batch-mode heuristics (constant arrivals)",
        _preset("oversub", patterns=["constant"]),
    ),
    "fig9b": _oversub(
        "Pruning mechanism on batch-mode heuristics (spiky arrivals)", _preset("oversub")
    ),
    "fig10a": _oversub(
        "Pruning mechanism on homogeneous systems (constant arrivals)",
        _preset("oversub", patterns=["constant"], **_HOMOGENEOUS),
    ),
    "fig10b": _oversub(
        "Pruning mechanism on homogeneous systems (spiky arrivals)",
        _preset("oversub", **_HOMOGENEOUS),
    ),
    "churn": Figure(
        "Pruning mechanism under machine churn (spiky, 20k-equivalent)",
        _churn_grid,
        col_axis="dynamics",
        cols=("static", "light churn", "heavy churn"),
        col_name="cluster dynamics",
        pruned_rows=True,
        notes="failures kill in-flight work; victims requeue through admission",
    ),
}

#: Every figure the CLI can regenerate (Fig. 6 plots arrivals, not a grid).
ALL_FIGURES: tuple[str, ...] = ("fig6", *FIGURES)


def figure_grid(name: str, scale: float = 1.0) -> SweepGrid:
    """The grid behind figure ``name`` at a workload scale."""
    return SweepGrid.from_dict({**FIGURES[name].grid(scale), "name": name, "scale": scale})


def project_figure(name: str, grid: SweepGrid, summary: CampaignSummary) -> FigureResult:
    """Lay the campaign rows of figure ``name``'s ``grid`` out as its table."""
    figure = FIGURES[name]
    rows = list(grid.heuristics)
    if figure.pruned_rows:
        rows += [f"{h}-P" for h in rows]
    placed: dict[tuple[str, str], AggregateStats] = {}
    for index, row in zip(grid.cell_indices(), summary.rows):
        r = row.heuristic + ("-P" if figure.pruned_rows and index["pruning"] else "")
        placed[r, figure.cols[index[figure.col_axis]]] = row.stats
    return FigureResult(
        figure_id=name,
        title=figure.title,
        row_axis="heuristic (-P = with pruning)" if figure.pruned_rows else "heuristic",
        col_axis=figure.col_name,
        rows=rows,
        cols=list(figure.cols),
        # rows × cols order, not the grid's emission order: to_dict()
        # serializes cells in insertion order.
        cells={r: {c: placed[r, c] for c in figure.cols} for r in rows},
        notes=figure.notes,
    )


def run_figure(
    name: str,
    *,
    trials: int = 10,
    base_seed: int = 42,
    scale: float = 1.0,
    jobs: int | None = None,
    cache: ResultCache | None = None,
    executor: str = "auto",
    pruning_threshold: float | None = None,
    toggle_alpha: int | None = None,
    controller: object = None,
) -> FigureResult:
    """Regenerate figure ``name`` as one campaign over its grid.

    ``pruning_threshold``/``toggle_alpha``/``controller`` (a controller
    grid entry, e.g. ``"hysteresis:low=0.05,high=0.3"``) re-run every
    pruned cell at non-default settings; baseline cells are untouched.
    """
    grid = replace(figure_grid(name, scale), trials=trials, base_seed=base_seed).with_pruning(
        threshold=pruning_threshold, dropping_toggle=toggle_alpha, controller=controller
    )
    summary = Campaign.from_grid(grid).run(jobs=jobs, cache=cache, executor=executor)
    return project_figure(name, grid, summary)


# ----------------------------------------------------------------------
def headline_summary(
    fig9_result: FigureResult, fig10_result: FigureResult
) -> str:
    """The paper's headline claims, recomputed from our grids."""
    best9 = fig9_result.max_improvement()
    best10 = fig10_result.max_improvement()
    mm_gain = max(
        fig9_result.improvement("MM", "MM-P", c) for c in fig9_result.cols
    )
    return (
        f"max pruning gain, heterogeneous batch ({fig9_result.figure_id}): "
        f"{best9:+.1f} pp (paper: up to +35 pp)\n"
        f"max pruning gain, homogeneous ({fig10_result.figure_id}): "
        f"{best10:+.1f} pp (paper: up to +28 pp)\n"
        f"best MM gain: {mm_gain:+.1f} pp (paper: ~+15 pp)"
    )
