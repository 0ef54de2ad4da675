"""Result collection: per-task outcomes rolled up into robustness stats.

The paper's robustness metric is the percentage of tasks completing
before their deadlines (§I).  :class:`SimulationResult` snapshots one
trial; per-type breakdowns support the fairness analysis, machine
utilizations support the energy/cost extension.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from collections.abc import Callable, Iterable, Mapping, Sequence
from operator import attrgetter

from ..sim.cluster import Cluster
from ..sim.task import Task, TaskStatus

__all__ = ["SimulationResult", "TypeOutcome", "tally_outcomes"]

#: The :class:`TypeOutcome` field each terminal status counts under;
#: every other status counts as ``unfinished``.
_OUTCOME_FIELD = {
    TaskStatus.COMPLETED_ON_TIME: "on_time",
    TaskStatus.COMPLETED_LATE: "late",
    TaskStatus.DROPPED_MISSED: "dropped_missed",
    TaskStatus.DROPPED_PROACTIVE: "dropped_proactive",
}

#: ``SimulationResult``'s telemetry sections in payload order, each with
#: whether :meth:`SimulationResult.to_dict` emits it when empty (the
#: sparse ones keep results without that subsystem byte-identical to
#: payloads from before it existed).
_TELEMETRY = (
    ("estimator_stats", True),
    ("dynamics_stats", True),
    ("controller_stats", False),
    ("fairness_stats", False),
    ("dag_stats", False),
)


@dataclass(frozen=True)
class TypeOutcome:
    """Outcome tallies for one task type."""

    total: int = 0
    on_time: int = 0
    late: int = 0
    dropped_missed: int = 0
    dropped_proactive: int = 0
    unfinished: int = 0

    @property
    def robustness(self) -> float:
        """On-time completion ratio within this type (0 when empty)."""
        return self.on_time / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> TypeOutcome:
        return cls(**{k: int(v) for k, v in payload.items()})


def tally_outcomes(
    tasks: Iterable[Task], group: Callable[[Task], int]
) -> dict[int, TypeOutcome]:
    """Outcome counts of ``tasks`` per ``group(task)``, in group order."""
    counts = Counter((group(t), _OUTCOME_FIELD.get(t.status, "unfinished")) for t in tasks)
    rows: dict[int, dict[str, int]] = {}
    for (key, outcome), n in counts.items():
        rows.setdefault(key, {})[outcome] = n
    return {
        key: TypeOutcome(total=sum(row.values()), **row)
        for key, row in sorted(rows.items())
    }


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated outcome of one simulation trial."""

    total: int
    on_time: int
    late: int
    dropped_missed: int
    dropped_proactive: int
    unfinished: int
    defer_decisions: int
    mapping_events: int
    makespan: float
    per_type: Mapping[int, TypeOutcome] = field(default_factory=dict)
    machine_busy_time: tuple[float, ...] = ()
    #: Completion-estimator counters for the trial (hits / misses /
    #: invalidations / evictions / convolutions / convolutions_avoided) —
    #: the estimation layer's cache efficiency is a first-class metric.
    estimator_stats: Mapping[str, int] = field(default_factory=dict)
    #: Cluster-churn counters (failures / recoveries / scale_ups /
    #: scale_downs / skipped / evicted / requeued / interrupted) from
    #: the dynamics driver; empty for the paper's static clusters.
    #: ``evicted`` counts tasks churn pulled off machines; ``requeued``
    #: the subset that re-entered admission.  The remainder was dropped
    #: at readmission — reactively on already-passed deadlines, or
    #: proactively by an admission gate when one is installed.
    dynamics_stats: Mapping[str, int] = field(default_factory=dict)
    #: Control-plane telemetry (``repro.control``): controller name,
    #: tick/update counts, and the applied β/α setpoint trajectory as
    #: ``[time, β, α]`` rows.  Empty unless a controller was configured;
    #: serialized sparsely (see :meth:`to_dict`).
    controller_stats: Mapping = field(default_factory=dict)
    #: Final per-type sufferage scores of the Fairness module
    #: (``{"factor": c, "scores": {task_type: γ_k}}``, string keys for
    #: JSON stability).  Collected with the control plane — empty unless
    #: a controller (the static one counts) was configured.
    fairness_stats: Mapping = field(default_factory=dict)
    #: DAG-workload telemetry (``{"edges", "max_depth", "released",
    #: "held_peak", "cascade_drops", "depths": {depth: outcome counts}}``,
    #: string depth keys for JSON stability).  Empty unless the workload
    #: carried dependency edges; serialized sparsely like the control
    #: stats (see :meth:`to_dict`).
    dag_stats: Mapping = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def robustness(self) -> float:
        """Fraction of tasks completed on time — the paper's metric."""
        return self.on_time / self.total if self.total else 0.0

    @property
    def robustness_pct(self) -> float:
        return 100.0 * self.robustness

    @property
    def dropped(self) -> int:
        return self.dropped_missed + self.dropped_proactive

    @property
    def miss_ratio(self) -> float:
        """Fraction of tasks that did not complete on time."""
        return 1.0 - self.robustness

    @property
    def requeues(self) -> int:
        """Churn-evicted task readmissions (0 on static clusters)."""
        return int(self.dynamics_stats.get("requeued", 0))

    @property
    def max_sufferage(self) -> float:
        """Largest final per-type sufferage score (0 without telemetry)."""
        scores = self.fairness_stats.get("scores", {}) if self.fairness_stats else {}
        return max((float(v) for v in scores.values()), default=0.0)

    @property
    def controller_updates(self) -> int:
        """Setpoint changes the control plane applied (0 without one)."""
        return int(self.controller_stats.get("updates", 0)) if self.controller_stats else 0

    @property
    def cascade_drops(self) -> int:
        """Proactive drops cascaded from dropped DAG ancestors (0 for
        independent-task workloads)."""
        return int(self.dag_stats.get("cascade_drops", 0)) if self.dag_stats else 0

    def utilization(self) -> tuple[float, ...]:
        if self.makespan <= 0:
            return tuple(0.0 for _ in self.machine_busy_time)
        return tuple(b / self.makespan for b in self.machine_busy_time)

    # ------------------------------------------------------------------
    @classmethod
    def from_tasks(
        cls,
        tasks: Sequence[Task],
        *,
        cluster: Cluster | None = None,
        makespan: float = 0.0,
        defer_decisions: int = 0,
        mapping_events: int = 0,
        **telemetry: Mapping | None,
    ) -> SimulationResult:
        """Roll task terminal states up into one result record.

        ``telemetry`` takes the telemetry sections by field name
        (``estimator_stats=…``); ``None`` or an omitted one is empty.
        """
        unknown = telemetry.keys() - {name for name, _ in _TELEMETRY}
        if unknown:
            raise TypeError(f"unknown telemetry sections: {sorted(unknown)}")
        per_type = tally_outcomes(tasks, attrgetter("task_type"))
        return cls(
            **{
                f.name: sum(getattr(o, f.name) for o in per_type.values())
                for f in fields(TypeOutcome)
            },
            defer_decisions=defer_decisions,
            mapping_events=mapping_events,
            makespan=makespan,
            per_type=per_type,
            machine_busy_time=(
                tuple(m.busy_time for m in cluster.machines) if cluster else ()
            ),
            **{name: dict(telemetry.get(name) or {}) for name, _ in _TELEMETRY},
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Round-trippable plain-dict form (the campaign cache's on-disk
        format).  ``from_dict(to_dict())`` reproduces the result exactly:
        counters are ints, times are floats, and key order is stable.

        ``estimator_stats``/``dynamics_stats`` are always emitted; the
        controller, fairness and DAG sections *only when non-empty*, so
        results of configurations without those subsystems keep the exact
        payload from before them, and historical golden fixtures and
        cached campaign trials stay byte-identical.
        """
        payload = {
            "total": self.total,
            "on_time": self.on_time,
            "late": self.late,
            "dropped_missed": self.dropped_missed,
            "dropped_proactive": self.dropped_proactive,
            "unfinished": self.unfinished,
            "defer_decisions": self.defer_decisions,
            "mapping_events": self.mapping_events,
            "makespan": self.makespan,
            "per_type": {str(k): v.to_dict() for k, v in self.per_type.items()},
            "machine_busy_time": list(self.machine_busy_time),
        }
        for name, always in _TELEMETRY:
            section = getattr(self, name)
            if always or section:
                payload[name] = dict(section)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> SimulationResult:
        """Inverse of :meth:`to_dict`."""
        return cls(
            total=int(payload["total"]),
            on_time=int(payload["on_time"]),
            late=int(payload["late"]),
            dropped_missed=int(payload["dropped_missed"]),
            dropped_proactive=int(payload["dropped_proactive"]),
            unfinished=int(payload["unfinished"]),
            defer_decisions=int(payload["defer_decisions"]),
            mapping_events=int(payload["mapping_events"]),
            makespan=float(payload["makespan"]),
            per_type={
                int(k): TypeOutcome.from_dict(v)
                for k, v in payload.get("per_type", {}).items()
            },
            machine_busy_time=tuple(float(b) for b in payload.get("machine_busy_time", ())),
            # JSON-native sections (no coercion): their producers build
            # them from plain ints, floats and lists, so a load → dump
            # round-trip is already exact.
            **{name: dict(payload.get(name, {})) for name, _ in _TELEMETRY},
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        line = (
            f"{self.on_time}/{self.total} on time ({self.robustness_pct:.1f}%), "
            f"{self.late} late, {self.dropped_missed} reactive drops, "
            f"{self.dropped_proactive} proactive drops, "
            f"{self.defer_decisions} defers"
        )
        if self.dynamics_stats:
            line += (
                f", {self.dynamics_stats.get('failures', 0)} failures"
                f"/{self.requeues} requeues"
            )
        return line
