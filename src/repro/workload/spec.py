"""Workload specifications (§V-B).

The paper feeds a determined number of tasks per time unit within a finite
time span, across twelve task types, under two arrival patterns:

* **constant** — per-type inter-arrival gaps drawn from a Gamma
  distribution whose variance is 10 % of its mean;
* **spiky** (default) — the constant pattern modulated by periodic demand
  spikes: during a spike the arrival rate rises to 3× the base (lull)
  rate, and each spike lasts one third of the lull period (Fig. 6).

Deadlines follow Eq. 4:  ``δ_i = arr_i + avg_i + β·avg_all`` with β drawn
uniformly from [0.8, 2.5] per task.

The paper's default scale is 15k–25k tasks over ~3000 time units; the
library default is a 0.1× scale (same *rates*, shorter span) so the full
experiment suite runs on a laptop.  ``paper_scale()`` restores the
original size.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

__all__ = ["ArrivalPattern", "WorkloadSpec", "PAPER_TIME_SPAN"]

#: Approximate time span of the paper's workload trials (Fig. 6 x-axis).
PAPER_TIME_SPAN = 3000.0


class ArrivalPattern(enum.Enum):
    CONSTANT = "constant"
    SPIKY = "spiky"
    #: Inhomogeneous Poisson (thinning) under the spiky rate profile —
    #: the same mean load as SPIKY but with true Poisson dispersion.
    POISSON = "poisson"
    #: Two-state Markov-modulated Poisson process (random burst onsets
    #: with exponential dwell times, unlike SPIKY's periodic spikes).
    BURSTY = "bursty"
    #: Replay a recorded trace (CSV/JSON) instead of generating arrivals.
    TRACE = "trace"


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one workload trial."""

    num_tasks: int = 1500
    time_span: float = 300.0
    num_task_types: int = 12
    pattern: ArrivalPattern = ArrivalPattern.SPIKY
    #: Gamma inter-arrival variance as a fraction of the mean gap (§V-B-A).
    variance_fraction: float = 0.1
    #: Spike amplitude relative to the lull rate ("up to three times").
    spike_amplitude: float = 3.0
    #: Spike duration as a fraction of the lull period ("one third").
    spike_duration_fraction: float = 1.0 / 3.0
    #: Number of demand spikes across the span (Fig. 6 shows ~4).
    num_spikes: int = 4
    #: Deadline slack multiplier range for Eq. 4's β.
    beta_range: tuple[float, float] = (0.8, 2.5)
    #: BURSTY pattern: burst-state rate relative to the quiet rate.
    burst_amplitude: float = 5.0
    #: BURSTY pattern: long-run fraction of time spent in the burst state.
    burst_fraction: float = 0.2
    #: BURSTY pattern: expected quiet→burst cycles across the span.
    burst_cycles: float = 8.0
    #: TRACE pattern: path of the trace to replay (CSV or JSON trace).
    trace_path: str = ""
    #: Tasks trimmed from each end of the trace when computing metrics
    #: ("the first and last 100 tasks … are removed from the data").
    #: ``None`` scales the paper's 100 with workload size.
    trim_edge_tasks: int | None = None
    #: TRACE pattern: on-disk format of ``trace_path`` — ``"auto"``
    #: (by extension), ``"csv"``, ``"json"``, or an external adapter
    #: (``"azure"``, ``"gcluster"`` — see :mod:`repro.workload.adapters`).
    trace_format: str = "auto"
    #: TRACE pattern: deterministic downsampling rate in (0, 1]; each
    #: trial keeps a per-trial random subset of the replayed tasks
    #: (dependency-closed for DAG traces).  1.0 replays the full trace.
    trace_sample: float = 1.0
    #: Synthetic DAG workloads: number of dependency layers (0 keeps the
    #: paper's independent-task model).  Tasks are partitioned into
    #: arrival-ordered layers and each non-root task draws parents from
    #: the previous layer.
    dag_layers: int = 0
    #: Probability that a non-root task gains each candidate parent edge.
    dag_edge_prob: float = 0.5
    #: Cap on the number of parents per task.
    dag_max_parents: int = 2

    def __post_init__(self) -> None:
        if self.num_tasks <= 0:
            raise ValueError("num_tasks must be positive")
        if self.time_span <= 0:
            raise ValueError("time_span must be positive")
        if self.num_task_types <= 0:
            raise ValueError("num_task_types must be positive")
        if isinstance(self.pattern, str):
            object.__setattr__(self, "pattern", ArrivalPattern(self.pattern))
        if not 0 < self.spike_duration_fraction < 1:
            raise ValueError("spike_duration_fraction must be in (0, 1)")
        if self.spike_amplitude < 1:
            raise ValueError("spike_amplitude must be >= 1")
        lo, hi = self.beta_range
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid beta_range {self.beta_range}")
        if self.burst_amplitude < 1:
            raise ValueError("burst_amplitude must be >= 1")
        if not 0 < self.burst_fraction < 1:
            raise ValueError("burst_fraction must be in (0, 1)")
        if self.burst_cycles <= 0:
            raise ValueError("burst_cycles must be positive")
        if self.pattern is ArrivalPattern.TRACE and not self.trace_path:
            raise ValueError(
                "pattern 'trace' needs trace_path (build specs with "
                "repro.workload.trace.trace_spec to keep num_tasks/time_span "
                "consistent with the file)"
            )
        if not 0 < self.trace_sample <= 1:
            raise ValueError("trace_sample must be in (0, 1]")
        if self.trace_sample < 1 and self.pattern is not ArrivalPattern.TRACE:
            raise ValueError("trace_sample only applies to trace workloads")
        if self.trim_edge_tasks is not None and self.trim_edge_tasks < 0:
            raise ValueError(f"trim_edge_tasks must be >= 0, got {self.trim_edge_tasks}")
        if self.dag_layers < 0:
            raise ValueError("dag_layers must be >= 0")
        if self.dag_layers:
            if self.pattern is ArrivalPattern.TRACE:
                raise ValueError(
                    "dag_layers does not apply to trace workloads — trace "
                    "files carry explicit dependency edges (JSON v3)"
                )
            if self.dag_layers < 2:
                raise ValueError("dag_layers must be >= 2 (roots plus one layer)")
            if not 0 <= self.dag_edge_prob <= 1:
                raise ValueError("dag_edge_prob must be in [0, 1]")
            if self.dag_max_parents < 1:
                raise ValueError("dag_max_parents must be >= 1")

    # ------------------------------------------------------------------
    @property
    def mean_arrival_rate(self) -> float:
        """Tasks per time unit across all types — the paper's x-axis
        "Task Arrival Rate (oversubscription level)"."""
        return self.num_tasks / self.time_span

    @property
    def trim_count(self) -> int:
        """Edge tasks excluded from metrics at each end."""
        if self.trim_edge_tasks is not None:
            return self.trim_edge_tasks
        # The paper trims 100 of 15000+; keep the same 1/150 proportion at
        # reduced scales, but never trim more than 10% of the trace.
        return min(max(self.num_tasks // 150, 1), self.num_tasks // 10)

    def with_(self, **changes: object) -> WorkloadSpec:
        return replace(self, **changes)

    def scaled(self, scale: float) -> WorkloadSpec:
        """Stretch the workload at constant arrival rate.

        The single scaling policy shared by named oversubscription
        levels and custom sweep levels: task count and span grow
        together (so tasks/unit is unchanged), the spike count grows
        with the span (so the spike *period* — the Fig. 6 regime — is
        preserved), and at least 10 tasks / 1 spike remain.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        if scale == 1.0:
            return self
        if self.pattern is ArrivalPattern.TRACE:
            raise ValueError("trace workloads replay a fixed file and cannot be scaled")
        return self.with_(
            num_tasks=max(int(self.num_tasks * scale), 10),
            time_span=self.time_span * scale,
            num_spikes=max(int(round(self.num_spikes * scale)), 1),
        )

    @classmethod
    def paper_scale(cls, num_tasks: int = 15000, **overrides: object) -> WorkloadSpec:
        """Full-size trial: 15k/20k/25k tasks over ~3000 time units."""
        defaults = dict(
            num_tasks=num_tasks, time_span=PAPER_TIME_SPAN, trim_edge_tasks=100
        )
        defaults.update(overrides)
        return cls(**defaults)
