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

The paper's statements about a figure's shape (§V) are the figure's
:attr:`Figure.claims`: declarative :class:`Claim` rows read off its
table, which :func:`failed_claims` checks as one evaluator.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
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
    "Term",
    "cell",
    "gain",
    "spread",
    "Claim",
    "failed_claims",
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
# Claims: the paper's statements about a figure's shape, as rows.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Term:
    """One side of a claim: a robustness value (pp) read off a figure."""

    #: ``"cell"`` (the row's mean), ``"gain"`` (``row-P`` minus ``row``)
    #: or ``"spread"`` (max minus min over the rows).
    kind: str
    rows: tuple[str, ...]
    col: str

    def value(self, result: FigureResult) -> float:
        means = [result.get(row, self.col).mean_pct for row in self.rows]
        if self.kind == "cell":
            return means[0]
        if self.kind == "gain":
            return result.improvement(self.rows[0], f"{self.rows[0]}-P", self.col)
        return max(means) - min(means)

    def __str__(self) -> str:
        return f"{self.kind}({', '.join(self.rows)} @ {self.col})"


def cell(row: str, col: str) -> Term:
    """The mean robustness of one cell."""
    return Term("cell", (row,), col)


def gain(row: str, col: str) -> Term:
    """The pruning gain of ``row`` in one column: ``row-P`` minus ``row``."""
    return Term("gain", (row,), col)


def spread(rows: Sequence[str], col: str) -> Term:
    """Max minus min robustness over ``rows`` in one column."""
    return Term("spread", tuple(rows), col)


@dataclass(frozen=True)
class Claim:
    """A shape claim that holds when ``lhs > rhs - tolerance`` (pp)."""

    name: str
    lhs: Term
    rhs: Term
    tolerance: float = 0.0


def failed_claims(result: FigureResult) -> dict[str, str]:
    """The claims of ``result``'s figure that its table breaks, by name,
    each with the values it read."""
    failed: dict[str, str] = {}
    for claim in FIGURES[result.figure_id].claims:
        lhs, rhs = claim.lhs.value(result), claim.rhs.value(result)
        if not lhs > rhs - claim.tolerance:
            failed[claim.name] = (
                f"{claim.lhs} = {lhs:.2f} <= {claim.rhs} = {rhs:.2f} - {claim.tolerance:g}"
            )
    return failed


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
    #: The paper's claims about the table's shape (``churn``, not a
    #: paper figure, makes none).
    claims: tuple[Claim, ...] = ()


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


NO_DROP, ALWAYS, REACTIVE = (
    "no Toggle, no dropping",
    "no Toggle, always dropping",
    "reactive Toggle",
)
_BATCH = ("MM", "MSD", "MMU")
_HOMOGENEOUS_ROWS = ("FCFS-RR", "SJF", "EDF")


def _toggle(
    title: str, grid: Callable[[float], Mapping], claims: tuple[Claim, ...]
) -> Figure:
    """A Fig. 7 panel: one column per dropping policy."""
    return Figure(
        title,
        grid,
        col_axis="pruning",
        cols=(NO_DROP, ALWAYS, REACTIVE),
        col_name="dropping policy",
        claims=claims,
    )


def _oversub(
    title: str, grid: Callable[[float], Mapping], claims: tuple[Claim, ...]
) -> Figure:
    """A Fig. 9/10 panel: baseline and pruned rows, one column per level."""
    return Figure(
        title,
        grid,
        col_axis="levels",
        cols=tuple(LEVELS),
        col_name="oversubscription level",
        pruned_rows=True,
        claims=claims,
    )


def _dropping_lifts(heuristics: Sequence[str], tolerance: float = 0.0) -> tuple[Claim, ...]:
    """Fig. 7 (§V-C): the reactive Toggle beats never dropping."""
    return tuple(
        Claim(f"dropping-lifts-{h}", cell(h, REACTIVE), cell(h, NO_DROP), tolerance)
        for h in heuristics
    )


def _pruning_lifts(
    heuristics: Sequence[str], col: str = "25k", tolerance: float = 0.0
) -> tuple[Claim, ...]:
    """Figs. 9/10 (§V-E/F): the pruned row beats its baseline."""
    return tuple(
        Claim(f"pruning-lifts-{h}-at-{col}", cell(f"{h}-P", col), cell(h, col), tolerance)
        for h in heuristics
    )


_HOMOGENEOUS = dict(heuristics=list(_HOMOGENEOUS_ROWS), heterogeneity=["homogeneous"])
#: §V-F: pruning lifts every homogeneous heuristic at the heaviest
#: level, and EDF (the heuristic the paper highlights) at every level.
_HOMOGENEOUS_CLAIMS = (
    _pruning_lifts(_HOMOGENEOUS_ROWS)
    + _pruning_lifts(["EDF"], "15k")
    + _pruning_lifts(["EDF"], "20k")
)

#: The figures run by ``python -m repro.experiments <name>``, by name.
FIGURES: dict[str, Figure] = {
    "fig7a": _toggle(
        "Impact of Toggle on immediate-mode mapping heuristics",
        _preset("fig7b", heuristics=["RR", "MCT", "MET", "KPB"]),
        # Dropping helps the heuristics that use completion-time
        # information, and KPB is the strongest immediate heuristic.
        _dropping_lifts(["MCT", "KPB"])
        + (
            Claim("KPB-beats-RR", cell("KPB", REACTIVE), cell("RR", REACTIVE)),
            Claim("KPB-near-MET", cell("KPB", REACTIVE), cell("MET", REACTIVE), 1.0),
        ),
    ),
    "fig7b": _toggle(
        "Impact of Toggle on batch-mode mapping heuristics",
        _preset("fig7b"),
        _dropping_lifts(_BATCH, tolerance=2.0),
    ),
    "fig8": Figure(
        "Impact of task deferring on batch-mode heuristics (25k-equivalent)",
        _preset("thresholds"),
        col_axis="pruning",
        cols=("0%", "25%", "50%", "75%"),
        col_name="pruning threshold",
        notes="0% threshold = no pruning (the paper's baseline bar).",
        # §V-D: deferring at 50 % lifts the deadline-chasing heuristics,
        # and the three converge once deferring is active.
        claims=(
            Claim("deferring-lifts-MSD", cell("MSD", "50%"), cell("MSD", "0%")),
            Claim("deferring-lifts-MMU", cell("MMU", "50%"), cell("MMU", "0%")),
            Claim("deferring-equalizes", spread(_BATCH, "0%"), spread(_BATCH, "50%")),
        ),
    ),
    "fig9a": _oversub(
        "Pruning mechanism on batch-mode heuristics (constant arrivals)",
        _preset("oversub", patterns=["constant"]),
        # MM's constant-arrival baseline is already strong: pruning must
        # not hurt it by more than noise.
        _pruning_lifts(["MSD", "MMU"]) + _pruning_lifts(["MM"], tolerance=3.0),
    ),
    "fig9b": _oversub(
        "Pruning mechanism on batch-mode heuristics (spiky arrivals)",
        _preset("oversub"),
        # §V-E: pruning lifts every batch heuristic, the deadline chasers
        # most; it narrows their spread, and its gain grows with load.
        _pruning_lifts(_BATCH)
        + (
            Claim("MSD-gains-more-than-MM", gain("MSD", "25k"), gain("MM", "25k")),
            Claim(
                "pruning-equalizes",
                spread(_BATCH, "25k"),
                spread([f"{h}-P" for h in _BATCH], "25k"),
            ),
            Claim("gain-grows-with-load", gain("MSD", "25k"), gain("MSD", "15k")),
        ),
    ),
    "fig10a": _oversub(
        "Pruning mechanism on homogeneous systems (constant arrivals)",
        _preset("oversub", patterns=["constant"], **_HOMOGENEOUS),
        _HOMOGENEOUS_CLAIMS,
    ),
    "fig10b": _oversub(
        "Pruning mechanism on homogeneous systems (spiky arrivals)",
        _preset("oversub", **_HOMOGENEOUS),
        _HOMOGENEOUS_CLAIMS,
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
