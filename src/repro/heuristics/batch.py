"""Batch-mode mapping heuristics for heterogeneous systems (§III-C).

All three share phase 1 (best machine = minimum expected completion time)
and differ only in phase 2's winner selection:

* **MM**  (MinCompletion–MinCompletion): winner has the globally minimum
  expected completion time — the classic Min-Min.
* **MSD** (MinCompletion–Soonest Deadline): winner has the soonest
  deadline; ties break by minimum expected completion time.
* **MMU** (MinCompletion–MaxUrgency): winner maximizes urgency
  ``U = 1 / (deadline - E[completion])`` (Eq. 3).
"""

from __future__ import annotations

import numpy as np

from .base import TwoPhaseBatchHeuristic

__all__ = ["MinMin", "MSD", "MMU"]


class MinMin(TwoPhaseBatchHeuristic):
    """MinCompletion-MinCompletion (MM)."""

    name = "MM"

    def select_winner(
        self, best_completion: np.ndarray, deadlines: np.ndarray, active: np.ndarray
    ) -> int:
        return int(np.argmin(best_completion))


class MSD(TwoPhaseBatchHeuristic):
    """MinCompletion-Soonest Deadline."""

    name = "MSD"

    def select_winner(
        self, best_completion: np.ndarray, deadlines: np.ndarray, active: np.ndarray
    ) -> int:
        # Only a task that can finish somewhere is a candidate: a soonest
        # deadline on an ``inf`` completion must not win the slot.
        candidate = active & np.isfinite(best_completion)
        d = np.where(candidate, deadlines, np.inf)
        soonest = d.min()
        # Tie-break on minimum expected completion time (paper §III-C-b).
        tied = np.flatnonzero(candidate & (d == soonest))
        return int(tied[np.argmin(best_completion[tied])])


class MMU(TwoPhaseBatchHeuristic):
    """MinCompletion-MaxUrgency (Eq. 3): ``U = 1 / (deadline - E[C])``.

    The formula is applied exactly as printed: a task whose expected
    completion already exceeds its deadline gets *negative* urgency and is
    only selected after every positive-urgency task — mirroring the
    paper's observation that MMU chases short-deadline tasks and thus
    benefits the most from pruning.
    """

    name = "MMU"

    #: Guard against division by zero when slack is exactly 0.
    _SLACK_EPS = 1e-9

    def select_winner(
        self, best_completion: np.ndarray, deadlines: np.ndarray, active: np.ndarray
    ) -> int:
        slack = deadlines - best_completion
        slack = np.where(np.abs(slack) < self._SLACK_EPS, self._SLACK_EPS, slack)
        urgency = 1.0 / slack
        urgency = np.where(active & np.isfinite(best_completion), urgency, -np.inf)
        return int(np.argmax(urgency))
