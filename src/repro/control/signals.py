"""Control-plane observation and actuation records.

Two small data objects form the boundary between the simulation and the
controllers:

* :class:`ControlSignals` — an immutable snapshot of everything a
  controller may observe at one mapping event (cumulative outcome
  counters, the since-last-event miss horizon, queue depths, per-type
  sufferage, the live setpoints).
  Controllers never see the simulator, the cluster, or a clock other
  than ``now`` — a controller is a pure function of its config and the
  stream of snapshots, which is the subsystem's determinism contract.
* :class:`Setpoints` — the one mutable cell holding the live pruning
  threshold β and Toggle α.  The :class:`~repro.core.pruner.Pruner` and
  the reactive :class:`~repro.core.toggle.Toggle` read it on every
  decision; the :class:`~repro.control.driver.ControllerDriver` is the
  only writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

__all__ = ["Setpoints", "ControlSignals"]


@dataclass
class Setpoints:
    """Live β/α actuated by the control plane.

    Without a controller the values are the frozen
    :class:`~repro.core.config.PruningConfig` constants and never move,
    so the default path is bit-identical to pre-control-plane behavior.
    Fairness sufferage offsets apply *on top* of the live β exactly as
    they applied on top of the static one (effective threshold
    ``β − γ_k``, clamped to [0, 1]).
    """

    beta: float
    alpha: int

    def clamp(self) -> None:
        """Keep β in [0, 1] and α non-negative whatever a controller emits."""
        self.beta = min(max(self.beta, 0.0), 1.0)
        self.alpha = max(int(self.alpha), 0)


@dataclass(frozen=True)
class ControlSignals:
    """What one controller tick gets to see (one mapping event's view)."""

    #: Simulation time of the mapping event.
    now: float
    #: Mapping-event ordinal (the allocator's counter, 1-based here).
    mapping_events: int
    #: Deadline misses since the previous mapping event (the Toggle's
    #: own oversubscription signal, pre-flush).
    misses_since_last_event: int
    # -- cumulative outcome counters ------------------------------------
    arrived: int
    on_time: int
    late: int
    dropped_missed: int
    dropped_proactive: int
    defers: int
    # -- live backlog ----------------------------------------------------
    #: Tasks waiting in machine queues across the cluster.
    queued: int
    #: Tasks pooled in the batch queue (0 in immediate mode).
    batch_queued: int
    #: Tasks executing right now.
    running: int
    #: Per-type sufferage scores γ_k (live view of the Fairness module).
    sufferage: Mapping[int, float] = field(default_factory=dict)
    # -- current setpoints ----------------------------------------------
    beta: float = 0.5
    alpha: int = 0

    # ------------------------------------------------------------------
    @property
    def outcomes(self) -> int:
        """Tasks that reached a terminal state."""
        return self.on_time + self.late + self.dropped_missed + self.dropped_proactive

    @property
    def misses(self) -> int:
        """Cumulative deadline misses (late completions + reactive drops)."""
        return self.late + self.dropped_missed

    @property
    def miss_rate(self) -> float:
        """Fraction of outcomes that missed their deadline (0 when none)."""
        return self.misses / self.outcomes if self.outcomes else 0.0

    @property
    def drop_rate(self) -> float:
        """Fraction of outcomes that were dropped (either kind)."""
        if not self.outcomes:
            return 0.0
        return (self.dropped_missed + self.dropped_proactive) / self.outcomes

    @property
    def on_time_rate(self) -> float:
        """Fraction of outcomes that completed on time (0 when none)."""
        return self.on_time / self.outcomes if self.outcomes else 0.0

    @property
    def backlog(self) -> int:
        """Everything admitted but not yet running or finished."""
        return self.queued + self.batch_queued

    @property
    def max_sufferage(self) -> float:
        """Largest per-type sufferage score (0 when fairness is quiet)."""
        return max(self.sufferage.values(), default=0.0)
