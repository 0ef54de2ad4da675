"""Fairness module (§IV-D): sufferage scores per task type.

Pruning purely by chance of success is biased toward task types with short
execution times.  The Fairness module tracks a *sufferage score* γ_k per
task type k:

* each on-time completion of type k: ``γ_k -= c``
* each (proactive) drop of type k:   ``γ_k += c``

where ``c`` is the *fairness factor*.  γ_k then offsets the pruning
threshold for that type: a task of type k is pruned only when its chance
of success ≤ ``β - γ_k`` (Fig. 5 steps 6 and 10) — types that suffered
many drops get a lower effective bar and survive longer.

Sufferage is floored at zero: on-time completions repay accumulated
suffering but never push γ_k negative.  (A negative score would *raise*
the effective threshold of frequently-succeeding types without bound,
eventually pruning every task of a type that is doing well — the opposite
of the module's purpose.)  The ceiling defaults to 1.0 so a maximally
suffered type has effective threshold 0, i.e. is never pruned.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["FairnessTracker"]


class FairnessTracker:
    """Sufferage scores γ_k and effective-threshold computation."""

    def __init__(
        self,
        fairness_factor: float = 0.05,
        *,
        enabled: bool = True,
        clamp: float = 1.0,
    ) -> None:
        if fairness_factor < 0:
            raise ValueError("fairness_factor must be >= 0")
        if clamp <= 0:
            raise ValueError("clamp must be positive")
        self.c = float(fairness_factor)
        self.enabled = enabled
        self.clamp = float(clamp)
        self._scores: defaultdict[int, float] = defaultdict(float)
        #: Bumped on every score mutation.  An unchanged epoch proves the
        #: whole γ table — hence every effective threshold — is unchanged,
        #: which is what lets the Pruner's drop scan skip machines whose
        #: chance arrays the estimator also proved unchanged.
        self.epoch = 0

    # ------------------------------------------------------------------
    def score(self, task_type: int) -> float:
        """Current sufferage score γ_k (0 when fairness is disabled)."""
        if not self.enabled:
            return 0.0
        return self._scores[task_type]

    def scores(self) -> dict[int, float]:
        return dict(self._scores)

    def stats(self) -> dict:
        """Telemetry payload for ``SimulationResult.fairness_stats``: the
        factor and the final scores, string-keyed in type order."""
        return {
            "factor": self.c,
            "scores": {str(k): float(v) for k, v in sorted(self._scores.items())},
        }

    def effective_threshold(self, base_threshold: float, task_type: int) -> float:
        """``β - γ_k`` clamped to [0, 1] (Fig. 5 steps 6/10)."""
        eff = base_threshold - self.score(task_type)
        return min(max(eff, 0.0), 1.0)

    # ------------------------------------------------------------------
    def note_on_time_completion(self, task_type: int) -> None:
        """Fig. 5 step 2: γ_k ← γ_k − c (floored at zero)."""
        if not self.enabled:
            return
        self.epoch += 1
        self._scores[task_type] = max(self._scores[task_type] - self.c, 0.0)

    def note_drop(self, task_type: int) -> None:
        """Fig. 5 step 6 side effect: γ_k ← γ_k + c."""
        if not self.enabled:
            return
        self.epoch += 1
        self._scores[task_type] = min(self._scores[task_type] + self.c, self.clamp)

    def reset(self) -> None:
        self.epoch += 1
        self._scores.clear()
