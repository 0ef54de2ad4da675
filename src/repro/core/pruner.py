"""The Pruner (§IV, Fig. 4/5): probabilistic task dropping and deferring.

The Pruner is a *decision* component: it computes chances of success and
says which tasks to drop from machine queues (Fig. 5 steps 3–6) and which
freshly-mapped tasks to defer back to the batch queue (steps 9–10).  The
resource allocator (:mod:`repro.system.allocator`) *enacts* those
decisions — removing tasks from queues, flipping statuses, recording
metrics — so the Pruner stays pluggable into any allocation system, which
is the paper's headline design property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

# Only the dependency-free signals module is imported at module level:
# the registry imports the controllers, which import core.config — a
# cycle if resolved while ``repro.control`` itself is mid-import.
from ..control.signals import ControlSignals, Setpoints
from ..sim.cluster import Cluster
from ..sim.machine import Machine
from ..sim.task import Task
from .accounting import Accounting

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..system.completion import CompletionEstimator
from ..system.completion import near_tie
from .config import PruningConfig
from .fairness import FairnessTracker
from .toggle import Toggle, make_toggle

__all__ = ["Pruner", "DropDecision"]


@dataclass(frozen=True)
class DropDecision:
    """One proactive drop chosen by the drop scan."""

    task: Task
    machine: Machine
    chance: float
    effective_threshold: float


class Pruner:
    """Probabilistic task pruning mechanism (Fig. 4).

    Parameters
    ----------
    config:
        The :class:`~repro.core.config.PruningConfig` (threshold β,
        dropping toggle α, fairness factor c, enable switches).
    accounting:
        Shared :class:`~repro.core.accounting.Accounting` instance; the
        allocator records events into it, the Pruner consumes them.
    """

    def __init__(self, config: PruningConfig, accounting: Accounting | None = None) -> None:
        self.config = config
        self.accounting = accounting if accounting is not None else Accounting()
        self.fairness = FairnessTracker(
            config.fairness_factor, enabled=config.enable_fairness
        )
        #: Live β/α.  Without a controller these stay the frozen config
        #: constants (bit-identical to pre-control-plane behavior); with
        #: one, the driver moves them as load is observed.
        self.setpoints = Setpoints(
            beta=config.pruning_threshold, alpha=config.dropping_toggle
        )
        self.toggle: Toggle = make_toggle(config, self.setpoints)
        # Deferred import: breaks the core ↔ control module cycle (see
        # the module-level import note above).
        from ..control.registry import make_driver

        #: The control plane (``None`` unless ``config.controller`` is set).
        self.driver = make_driver(config.controller, config, self.setpoints)
        #: machine_id -> (chances array, fairness epoch, β) of the last
        #: *no-drop* scan of that machine.  When the estimator hands back
        #: the *same array object* (its proof that neither the queue nor
        #: the running task's base changed) under the same fairness
        #: epoch and β, the scan's decisions are provably identical —
        #: nothing to drop — and the per-task threshold loop is skipped
        #: (see ``drop_scan``).
        self._scan_memo: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Fig. 5 step 0 (beyond the paper) — controller tick.
    # ------------------------------------------------------------------
    def control_tick(
        self,
        cluster: Cluster,
        now: float,
        *,
        mapping_events: int,
        batch_queued: int = 0,
    ) -> None:
        """Feed the control plane one mapping-event snapshot (no-op when
        no controller is configured).

        Runs *before* fairness/toggle/drop-scan so the event's own
        decisions already use the fresh setpoints, and before the
        accounting horizon flush so ``misses_since_last_event`` is the
        same signal the Toggle sees.
        """
        if self.driver is None:
            return
        acc = self.accounting
        queued = 0
        running = 0
        for machine in cluster.machines:
            queued += len(machine.queue)
            if machine.running is not None:
                running += 1
        self.driver.tick(
            ControlSignals(
                now=now,
                mapping_events=mapping_events,
                misses_since_last_event=acc.misses_since_last_event,
                **acc.totals(),
                queued=queued,
                batch_queued=batch_queued,
                running=running,
                sufferage=self.fairness.scores(),
                beta=self.setpoints.beta,
                alpha=self.setpoints.alpha,
            )
        )

    # ------------------------------------------------------------------
    # Fig. 5 step 2 — fairness update from completions since last event.
    # ------------------------------------------------------------------
    def update_fairness(self) -> None:
        for task in self.accounting.on_time_since_last_event():
            self.fairness.note_on_time_completion(task.task_type)

    # ------------------------------------------------------------------
    # Fig. 5 step 3 — Toggle consultation.
    # ------------------------------------------------------------------
    def dropping_engaged(self) -> bool:
        return self.config.enable_dropping and self.toggle.dropping_engaged(
            self.accounting
        )

    # ------------------------------------------------------------------
    # Fig. 5 steps 4–6 — drop scan over machine queues.
    # ------------------------------------------------------------------
    def _scan_skip(self, task: Task) -> bool:
        """Hook: tasks pruning must never drop or defer (subclass policy)."""
        return False

    def _scan_threshold(self, task: Task) -> float:
        """Hook: effective pruning threshold for ``task`` (β − γ_k), for
        drops and defers alike.

        β is the *live* setpoint — the frozen config constant unless a
        controller moved it; fairness offsets apply on top either way.
        """
        return self.fairness.effective_threshold(
            self.setpoints.beta, task.task_type
        )

    def drop_scan(
        self,
        cluster: Cluster,
        estimator: CompletionEstimator,
        now: float,
    ) -> list[DropDecision]:
        """Select queued tasks whose chance of success ≤ β − γ_k.

        The scan walks each machine queue front-to-back and applies drop
        decisions *cumulatively*: once a task is marked for dropping, the
        chance of the tasks behind it is recomputed without the dropped
        task's PET in the convolution chain (§II — "their PCT is changed
        in a way that their compound uncertainty is reduced").  Fairness
        scores update as drops are decided, exactly as the pseudo-code's
        in-loop ``γ_k ← γ_k + c``.

        The whole cluster's opening pass is **one** batched chance query
        (:meth:`~repro.system.completion.CompletionEstimator.
        cluster_queue_chances`).  After a drop at queue index ``i`` the
        scan *resumes from ``i``*: only the suffix behind the dropped
        task is re-queried (:meth:`~repro.system.completion.
        CompletionEstimator.queue_chances_suffix`), matching the
        estimator's suffix-only re-convolution.  Tasks in front of a
        drop are never re-examined — their PCTs are untouched by a drop
        behind them, and within one scan effective thresholds only
        *decrease* (``note_drop`` raises γ_k), so a survivor stays a
        survivor; the resumed scan is decision-for-decision identical to
        a restart-from-front rescan at a fraction of the work.

        With the base-class hooks, thresholds are looked up per task
        type: ``β − γ_k`` is computed once per type per scan, and a drop
        recomputes only the type whose γ it moved.
        """
        decisions: list[DropDecision] = []
        machines = [m for m in cluster.machines if m.queue]
        if not machines:
            return decisions
        # The memo shortcut is only sound while the scan hooks are the
        # base-class ones (pure functions of chance / fairness / β); a
        # subclass override (e.g. priority classes) may consult state the
        # memo key cannot see.
        pristine = (
            type(self)._scan_skip is Pruner._scan_skip
            and type(self)._scan_threshold is Pruner._scan_threshold
        )
        memo = self._scan_memo
        beta = self.setpoints.beta
        # Pristine thresholds per task type, valid until that type's γ
        # moves (``note_drop`` below pops it).
        thresholds: dict[int, float] = {}
        all_chances = estimator.cluster_queue_chances(machines, now)
        for machine, chances in zip(machines, all_chances):
            fepoch = self.fairness.epoch
            if pristine:
                prior = memo.get(machine.machine_id)
                if (
                    prior is not None
                    and prior[0] is chances
                    and prior[1] == fepoch
                    and prior[2] == beta
                ):
                    # Same chance values (same array object: the estimator
                    # reused its cached scan), same thresholds — the last
                    # scan dropped nothing here, so neither would this one.
                    continue
            dropped = False
            tasks = list(machine.queue)
            idx = 0
            base = 0  # queue index of chances[0]; the scan never looks back
            while idx < len(tasks):
                task = tasks[idx]
                if self._scan_skip(task):
                    idx += 1
                    continue
                chance = float(chances[idx - base])
                if pristine:
                    eff = thresholds.get(task.task_type)
                    if eff is None:
                        eff = thresholds[task.task_type] = self._scan_threshold(task)
                else:
                    eff = self._scan_threshold(task)
                if near_tie(chance, eff):
                    # Near a tie the factored chance may round to the
                    # other side of the threshold than the chain does;
                    # decide on the chain.
                    chance = estimator.chain_chance(task, machine, now, idx)
                if chance <= eff:
                    decisions.append(DropDecision(task, machine, chance, eff))
                    self.fairness.note_drop(task.task_type)
                    thresholds.pop(task.task_type, None)
                    dropped = True
                    machine.remove(task)  # invalidates only the chain suffix
                    del tasks[idx]
                    if idx >= len(tasks):
                        break  # dropped the tail: nothing behind to re-judge
                    # Survivors behind the drop shifted onto index `idx`;
                    # re-query their chances against the shortened chain.
                    chances = estimator.queue_chances_suffix(machine, now, start=idx)
                    base = idx
                else:
                    idx += 1
            if pristine:
                if dropped:
                    memo.pop(machine.machine_id, None)
                else:
                    memo[machine.machine_id] = (chances, fepoch, beta)
        return decisions

    # ------------------------------------------------------------------
    # Doomed-subgraph gate scan (beyond the paper) — held DAG tasks.
    # ------------------------------------------------------------------
    def gate_scan(
        self,
        held: list[Task],
        cluster: Cluster,
        estimator: CompletionEstimator,
        now: float,
    ) -> list[DropDecision]:
        """Select held (unreleased) DAG tasks whose propagated chance of
        success ≤ β − γ_k on *every* online machine.

        A held task has no queue position yet, so its Eq. 2 chance is
        evaluated hypothetically at the tail of each machine
        (:meth:`~repro.system.completion.CompletionEstimator.chances_for`,
        which multiplies in the critical-path dependency factor) and the
        *best* placement is judged against the effective threshold — a
        task is only doomed if no machine could save it; near a tie the
        best placement is re-read from the chain.  The allocator cascades
        each decision to the task's transitive dependents.
        """
        decisions: list[DropDecision] = []
        if not held:
            return decisions
        machines = cluster.online_machines()
        if not machines:
            return decisions
        grid = estimator.chances_for(held, machines, now)
        for i, task in enumerate(held):
            if self._scan_skip(task):
                continue
            best = int(grid[i].argmax())
            chance = float(grid[i, best])
            eff = self._scan_threshold(task)
            if near_tie(chance, eff):
                chains = [estimator.chain_chance(task, m, now) for m in machines]
                chance = max(chains)
                best = chains.index(chance)
            if chance <= eff:
                decisions.append(
                    DropDecision(task, machines[best], chance, eff)
                )
                self.fairness.note_drop(task.task_type)
        return decisions

    # ------------------------------------------------------------------
    # Fig. 5 steps 9–10 — defer check for a freshly mapped task.
    # ------------------------------------------------------------------
    def should_defer(
        self,
        task: Task,
        chance: float,
        machine: Machine | None = None,
        estimator: CompletionEstimator | None = None,
        now: float = 0.0,
    ) -> bool:
        """Whether a task the heuristic just mapped to ``machine`` must be
        pulled back.  Given the ``estimator``, a ``chance`` near the
        threshold is re-read from the chain before deciding."""
        if not self.config.enable_deferring or self._scan_skip(task):
            return False
        eff = self._scan_threshold(task)
        if estimator is not None and near_tie(chance, eff):
            chance = estimator.chain_chance(task, machine, now)
        return chance <= eff

    # ------------------------------------------------------------------
    def end_mapping_event(self) -> None:
        """Flush the per-event accounting buffers (end of Fig. 5)."""
        self.accounting.flush_event()
