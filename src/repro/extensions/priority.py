"""Value/priority-aware pruning (§VII future work).

"Another future plan is to work on pruning methods that incorporate
cost/priority of tasks, when considering dropping each individual task."

:class:`ValueAwarePruner` extends the base :class:`~repro.core.Pruner` so
the pruning bar depends on what a task is *worth*:

* every task carries a ``value`` (revenue if it completes on time) and an
  integer ``priority`` class;
* the effective pruning threshold of a task is scaled down by its value
  weight — a high-value task must look *really* hopeless before it is
  pruned, while a low-value task is pruned at the first sign of trouble;
* tasks at or above ``protect_priority`` are never proactively pruned
  (only reactive deadline drops can remove them).

The expected-value view: mapping a task yields expected revenue
``chance × value`` while occupying capacity proportional to its expected
execution time; pruning when ``chance ≤ β_k × weight(value)`` approximates
keeping only positive-density work.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ..core.accounting import Accounting
from ..core.config import PruningConfig
from ..core.pruner import Pruner
from ..sim.task import Task

__all__ = ["ValueAwarePruner", "inverse_value_weight"]


def inverse_value_weight(value: float, *, pivot: float = 1.0) -> float:
    """Default weight: ``pivot / (pivot + value)`` ∈ (0, 1].

    ``value = 0`` → weight 1 (full threshold, easiest to prune);
    ``value = pivot`` → threshold halved; large values → rarely pruned.
    """
    if value < 0:
        raise ValueError("task value must be non-negative")
    return pivot / (pivot + value)


class ValueAwarePruner(Pruner):
    """A :class:`~repro.core.Pruner` whose bar scales with task value."""

    def __init__(
        self,
        config: PruningConfig,
        accounting: Accounting | None = None,
        *,
        weight_fn: Callable[[float], float] = inverse_value_weight,
        protect_priority: int | None = None,
    ) -> None:
        super().__init__(config, accounting)
        self.weight_fn = weight_fn
        self.protect_priority = protect_priority

    # ------------------------------------------------------------------
    # The base Pruner's drop scan, defer check and gate scan are reused
    # as-is; value awareness plugs in through the two hooks.
    def _scan_skip(self, task: Task) -> bool:
        return (
            self.protect_priority is not None
            and task.priority >= self.protect_priority
        )

    def _scan_threshold(self, task: Task) -> float:
        base = self.fairness.effective_threshold(
            self.setpoints.beta, task.task_type
        )
        weight = self.weight_fn(task.value)
        if not 0.0 <= weight <= 1.0 or math.isnan(weight):
            raise ValueError(f"weight function returned {weight}, expected [0, 1]")
        return base * weight

    # ------------------------------------------------------------------
    @staticmethod
    def attach(system, **kwargs) -> ValueAwarePruner:
        """Swap a running :class:`~repro.system.ServerlessSystem`'s pruner
        for a value-aware one (before submitting the workload)."""
        if system.pruner is None:
            raise ValueError("system was built without a pruning config")
        pruner = ValueAwarePruner(
            system.pruner.config, system.accounting, **kwargs
        )
        system.pruner = pruner
        system.allocator.pruner = pruner
        return pruner
