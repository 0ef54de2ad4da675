"""Figure/table and campaign reporting.

Two result containers live here:

* :class:`FigureResult` — a labelled grid of robustness statistics, one
  per paper figure.
  :func:`~repro.experiments.scenarios.run_figure` returns one; it prints as an
  aligned text table (the textual equivalent of the paper's bar/line
  charts) and serializes to JSON.
* :class:`CampaignSummary` — the flat per-cell record of a
  :class:`~repro.experiments.campaign.Campaign` run: one
  :class:`CampaignRow` per experimental cell plus run-level bookkeeping
  (wall-clock, worker count, cache hits/misses).  Serializes to both
  JSON and CSV for downstream analysis.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping

from ..metrics.compare import PairedComparison, compare_paired_stats
from ..metrics.robustness import AggregateStats

__all__ = ["FigureResult", "CampaignRow", "CampaignSummary"]


@dataclass
class FigureResult:
    """A grid of aggregated robustness values for one paper figure.

    ``cells[row_label][col_label]`` → :class:`AggregateStats`.
    """

    figure_id: str
    title: str
    row_axis: str
    col_axis: str
    rows: list[str]
    cols: list[str]
    cells: dict[str, dict[str, AggregateStats]]
    notes: str = ""

    def get(self, row: str, col: str) -> AggregateStats:
        return self.cells[row][col]

    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Aligned table: mean ± 95 % CI of tasks completed on time (%)."""
        col_width = max(14, *(len(c) + 2 for c in self.cols))
        row_width = max(10, *(len(r) + 2 for r in self.rows))
        lines = [
            f"{self.figure_id}: {self.title}",
            f"(rows: {self.row_axis}; cols: {self.col_axis}; "
            f"values: % tasks completed on time, mean ± 95% CI)",
            "",
            " " * row_width + "".join(c.rjust(col_width) for c in self.cols),
        ]
        for r in self.rows:
            cells = []
            for c in self.cols:
                stat = self.cells[r][c]
                cells.append(f"{stat.mean_pct:5.1f} ±{stat.ci95_pct:4.1f}".rjust(col_width))
            lines.append(r.ljust(row_width) + "".join(cells))
        if self.notes:
            lines += ["", self.notes]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "row_axis": self.row_axis,
            "col_axis": self.col_axis,
            "rows": self.rows,
            "cols": self.cols,
            "cells": {
                r: {
                    c: {
                        "mean_pct": s.mean_pct,
                        "ci95_pct": s.ci95_pct,
                        "trials": s.trials,
                    }
                    for c, s in row.items()
                }
                for r, row in self.cells.items()
            },
            "notes": self.notes,
        }

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    # ------------------------------------------------------------------
    def improvement(self, base_row: str, pruned_row: str, col: str) -> float:
        """Percentage-point robustness gain of pruning for one column."""
        return self.cells[pruned_row][col].mean_pct - self.cells[base_row][col].mean_pct

    def max_improvement(self, suffix: str = "-P") -> float:
        """Largest pruning gain across the grid (the paper's headline
        'up to 35 percentage points')."""
        best = float("-inf")
        for row in self.rows:
            pruned = row + suffix
            if pruned not in self.cells:
                continue
            for col in self.cols:
                best = max(best, self.improvement(row, pruned, col))
        return best


# ======================================================================
# Campaign-level reporting
# ======================================================================
@dataclass(frozen=True)
class CampaignRow:
    """One experimental cell of a campaign, with its aggregated outcome."""

    label: str           #: unique cell id, e.g. ``"MM/P@15k/spiky/inconsistent"``
    heuristic: str
    level: str           #: oversubscription level name (``"15k"`` …)
    pattern: str         #: arrival pattern (``"spiky"`` / ``"constant"`` …)
    heterogeneity: str
    pruning: str         #: pruning-variant label (``"base"``, ``"P"``, ``"D75"`` …)
    stats: AggregateStats
    dynamics: str = "static"  #: cluster-dynamics label (``"static"``, ``"churn"`` …)
    controller: str = ""      #: β/α controller label ("" = no control plane)
    #: Mean (over trials) of the largest final per-type sufferage score —
    #: the fairness module's pressure gauge; 0.0 when telemetry was off.
    max_sufferage: float = 0.0
    dag: str = "none"         #: DAG-axis label (``"none"`` = independent tasks)
    #: Mean (over trials) of proactive drops cascaded from dropped DAG
    #: ancestors; 0.0 for independent-task workloads.
    cascade_drops: float = 0.0
    #: Per-depth outcome counts summed over trials (``{"0": {"on_time":
    #: …, …}, …}``, string depth keys); empty for independent tasks and
    #: then omitted from the JSON payload.
    depths: Mapping = field(default_factory=dict)
    #: Tuning-axis label (``"none"`` = cell ran its grid config as-is).
    tuning: str = "none"

    def to_dict(self) -> dict:
        payload = {
            "label": self.label,
            "heuristic": self.heuristic,
            "level": self.level,
            "pattern": self.pattern,
            "heterogeneity": self.heterogeneity,
            "pruning": self.pruning,
            "dynamics": self.dynamics,
            "controller": self.controller,
            "max_sufferage": self.max_sufferage,
            "stats": self.stats.to_dict(),
        }
        # Emitted only for DAG cells: summaries of independent-task
        # campaigns keep their exact pre-DAG payload.
        if self.dag != "none" or self.depths or self.cascade_drops:
            payload["dag"] = self.dag
            payload["cascade_drops"] = self.cascade_drops
            payload["depths"] = {k: dict(v) for k, v in self.depths.items()}
        # Emitted only for tuned cells: pre-tuning summaries (and every
        # untuned campaign) keep their exact prior payload.
        if self.tuning != "none":
            payload["tuning"] = self.tuning
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> CampaignRow:
        return cls(
            label=payload["label"],
            heuristic=payload["heuristic"],
            level=payload["level"],
            pattern=payload["pattern"],
            heterogeneity=payload["heterogeneity"],
            pruning=payload["pruning"],
            # Pre-dynamics summaries lack the field: they ran static.
            dynamics=payload.get("dynamics", "static"),
            # Pre-control-plane summaries lack these: no controller ran
            # and fairness telemetry was not collected.
            controller=payload.get("controller", ""),
            max_sufferage=float(payload.get("max_sufferage", 0.0)),
            # Pre-DAG summaries lack these: tasks were independent.
            dag=payload.get("dag", "none"),
            cascade_drops=float(payload.get("cascade_drops", 0.0)),
            depths=dict(payload.get("depths", {})),
            # Pre-tuning summaries lack the field: cells ran untuned.
            tuning=payload.get("tuning", "none"),
            stats=AggregateStats.from_dict(payload["stats"]),
        )


#: CSV column order of a campaign summary (stable — downstream notebooks
#: key on these names; new columns are appended, never inserted).
CAMPAIGN_CSV_FIELDS = (
    "label",
    "heuristic",
    "level",
    "pattern",
    "heterogeneity",
    "pruning",
    "dynamics",
    "trials",
    "mean_pct",
    "ci95_pct",
    "controller",
    "max_sufferage",
    "dag",
    "cascade_drops",
    "tuning",
)


@dataclass
class CampaignSummary:
    """Aggregated outcome of one campaign run.

    ``rows`` holds one :class:`CampaignRow` per cell in grid-expansion
    order; run-level bookkeeping records how the campaign executed
    (worker count, wall-clock, result-cache hits/misses), so a summary
    read back from disk documents its own provenance.
    """

    name: str
    rows: list[CampaignRow]
    wall_s: float = 0.0
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0

    # ------------------------------------------------------------------
    def get(self, label: str) -> AggregateStats:
        """Stats of the cell with the given label (exact match)."""
        for row in self.rows:
            if row.label == label:
                return row.stats
        raise KeyError(f"no campaign cell labelled {label!r}")

    @property
    def labels(self) -> list[str]:
        return [row.label for row in self.rows]

    def compare(self, base_label: str, variant_label: str) -> PairedComparison:
        """Paired significance test between two cells (same seeds/spec)."""
        return compare_paired_stats(self.get(base_label), self.get(variant_label))

    # ------------------------------------------------------------------
    def to_text(self) -> str:
        """Aligned per-cell table plus the run-level footer."""
        width = max(24, *(len(r.label) + 2 for r in self.rows)) if self.rows else 24
        lines = [
            f"campaign {self.name}: {len(self.rows)} cells",
            "",
            "cell".ljust(width) + "robustness (% on time, mean ± 95% CI)",
        ]
        for row in self.rows:
            lines.append(
                row.label.ljust(width)
                + f"{row.stats.mean_pct:5.1f} ± {row.stats.ci95_pct:4.1f}"
                + f"   (n={row.stats.trials})"
            )
        lines += [
            "",
            f"[{self.jobs} worker(s), {self.wall_s:.1f}s wall; "
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses]",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "rows": [row.to_dict() for row in self.rows],
            "wall_s": self.wall_s,
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> CampaignSummary:
        return cls(
            name=payload["name"],
            rows=[CampaignRow.from_dict(r) for r in payload["rows"]],
            wall_s=float(payload.get("wall_s", 0.0)),
            jobs=int(payload.get("jobs", 1)),
            cache_hits=int(payload.get("cache_hits", 0)),
            cache_misses=int(payload.get("cache_misses", 0)),
        )

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load_json(cls, path: str | Path) -> CampaignSummary:
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Flat per-cell CSV (columns: ``CAMPAIGN_CSV_FIELDS``)."""
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CAMPAIGN_CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in self.rows:
            writer.writerow(
                {
                    "label": row.label,
                    "heuristic": row.heuristic,
                    "level": row.level,
                    "pattern": row.pattern,
                    "heterogeneity": row.heterogeneity,
                    "pruning": row.pruning,
                    "dynamics": row.dynamics,
                    "trials": row.stats.trials,
                    "mean_pct": f"{row.stats.mean_pct:.6f}",
                    "ci95_pct": f"{row.stats.ci95_pct:.6f}",
                    "controller": row.controller,
                    "max_sufferage": f"{row.max_sufferage:.6f}",
                    "dag": row.dag,
                    "cascade_drops": f"{row.cascade_drops:.6f}",
                    "tuning": row.tuning,
                }
            )
        return buf.getvalue()

    def save_csv(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())
