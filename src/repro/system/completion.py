"""Completion-time estimation: Eq. 1 (PCT chains) and Eq. 2 (chance of success).

Two views of the same machine state:

* **Scalar view** — expected completion times, used by every mapping
  heuristic (MCT, MM, MSD, MMU, EDF, SJF ...).  O(queue) additions, no
  convolutions.
* **Probabilistic view** — full PCT distributions obtained by convolving
  PETs along the machine queue (Eq. 1), used by the pruning mechanism to
  compute chance of success (Eq. 2).

The paper notes (§V-A) that repeated convolution cost is contained via
"task grouping and memorization of partial results".  This module does
it at two levels.

**Queued-task chances** (``cluster_queue_chances``, ``queue_chances``,
``queue_chances_suffix`` — the drop scan) factor the running task out
of Eq. 1.  The k-th queued task's PCT is ``b ⊛ Q_k``, where ``b`` is
the running task's conditioned completion belief (a unit delta when the
machine is idle) and ``Q_k = pet_0 ⊛ … ⊛ pet_k`` depends on the queued
task types alone, so Eq. 2 is one dot product per task::

    F_k(d) = Σ_j b[j] · F_{Q_k}(K − j),   K = floor(d − offset_k + tol)

(:func:`~repro.stochastic.pmf.convolved_cdf_at`).  ``Q_k`` comes from a
product cache keyed on ``(machine type, t_0, …, t_k)``, shared across
machines and clock ticks; ``b`` from a cache of conditioned shapes per
cut index.  When the clock moves the running task's conditioning cut,
the queue is re-answered without a convolution, and each machine's
chance array is memoized until its queue or cut changes.  Entries the
horizon or ``max_support`` would truncate are read from the chain, and
so is a chance the drop scan finds within :data:`TIE_MARGIN` of its
threshold (:meth:`CompletionEstimator.chain_chance`): the two forms
differ by a few ulps, which must not move a decision.

**PCT chains** (``pct_for_new``, ``availability_pct``, ``chances_for``,
``chances_for_pairs``, ``chance_of_success`` — consumers of whole
distributions) keep an **incremental prefix-convolution cache** per
machine:

* ``chain[0]`` is the completion belief of the running task (or a delta
  at ``now`` when idle); ``chain[k]`` is the PCT of the k-th queued task.
* The estimator subscribes to the machines' structured queue-delta
  notifications (:class:`~repro.sim.cluster.QueueObserver`).  A mutation
  at queue index ``i`` invalidates only the suffix ``chain[i+1:]`` — an
  enqueue costs one convolution, a mid-queue drop re-convolves only the
  tasks behind it, and untouched machines keep their whole chain.
* Advancing simulation time does not throw the chain away: entries are
  **re-anchored** via zero-copy offset fix-up (no convolution), replaying
  the same float additions a from-scratch rebuild would perform so the
  cached chain stays bit-identical to a fresh one.  Entries whose
  truncation/trimming made them anchor-dependent fall back to real
  convolution.
* Grid queries (``chances_for``, ``chances_for_pairs``) deduplicate
  distinct (task type, machine) pairs before any distribution work and
  answer every deadline in one :func:`~repro.stochastic.pmf.batch_cdf_at`
  pass; ``cluster_expected_available`` is the scalar mirror for the
  batch heuristics' phase 1.
* Every real convolution runs through
  :meth:`~repro.stochastic.pmf.PMF.convolve_truncated`, which pays only
  the arithmetic of one step (no intermediate PMF, no mass sums for
  tail-free operands, cumulative sums built lazily on the first CDF
  query), and the running task's base records how it depends on ``now``
  so re-validation is integer arithmetic, not a rebuilt-and-compared PMF
  (see ``docs/architecture.md`` → "the mapping-event hot path").

Two modes, one per job:

* ``memoize=True`` — the caches above (the simulator's path);
* ``memoize=False`` — the from-scratch oracle: every query rebuilds the
  base, reconvolves the queue products (and, where a consumer needs
  them, the chain) and evaluates the same formulas; the incremental mode
  must match it bitwise.

A running task's completion belief is its start-anchored PCT conditioned
on it not having finished yet (``PMF.condition_at_least(now)``); the
scalar view uses the conditioned finite mean.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Protocol

import numpy as np

from ..sim.machine import Machine
from ..sim.task import Task
from ..stochastic.pmf import (
    CDF_REL_EPS,
    CDF_TOL_CAP,
    DEFAULT_MAX_SUPPORT,
    PMF,
    batch_cdf_at,
    convolved_cdf_at,
)
from ..stochastic.pmf import _EPS as _PMF_EPS
from ..stochastic.pmf import _finish_conv

__all__ = ["ExecutionModel", "CompletionEstimator", "LRUCache", "TIE_MARGIN"]

#: Capacity of the estimator's LRU caches (PET products and conditioned
#: running-task bases).
CACHE_CAPACITY = 4096

#: Relative distance from a decision threshold within which a
#: queued-task chance is re-read from the chain
#: (:meth:`CompletionEstimator.chain_chance`).  Factored and chain
#: chances sum the same non-negative products in a different order, so
#: they differ by a few ulps of the value (≤ 7.8e-16 over ``drop-25k``;
#: the reference test bounds it at 4e-15).  A chance farther than
#: ``TIE_MARGIN · threshold`` from its threshold therefore lies on the
#: same side of it as the chain's; a nearer one, such as an exact tie
#: that the two round apart, is decided on the chain.
TIE_MARGIN = 1e-9


class ExecutionModel(Protocol):
    """What the estimator needs from a PET (or ETC) matrix."""

    def pmf(self, task_type: int, machine_type: int) -> PMF: ...
    def mean(self, task_type: int, machine_type: int) -> float: ...


class LRUCache:
    """A bounded mapping evicting the least-recently-*used* entry.

    ``dict`` preserves insertion order; :meth:`get` re-inserts on hit so
    the front of the dict is always the coldest entry.  Unlike the old
    clear-everything-at-capacity policy, a full cache evicts exactly one
    victim per insert and hot entries survive.  ``None`` is the miss
    value of :meth:`get`, so it is never stored.
    """

    __slots__ = ("capacity", "evictions", "_data")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.evictions = 0
        self._data: dict = {}

    def get(self, key):
        # Most lookups miss, and a default-``pop`` miss costs far less
        # than a raised and caught ``KeyError``.
        data = self._data
        value = data.pop(key, None)
        if value is not None:
            data[key] = value
        return value

    def put(self, key, value) -> None:
        data = self._data
        if key in data:
            del data[key]
        elif len(data) >= self.capacity:
            del data[next(iter(data))]
            self.evictions += 1
        data[key] = value

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data


#: Shared single-bin probability array backing every idle-machine base
#: (``delta(now)``).  Sharing one array gives availability PMFs of idle
#: machines a stable identity across re-anchoring, which is what lets
#: cached new-task PCTs survive clock ticks (see ``pct_for_new``).  PMFs
#: are immutable by convention, so the sharing is safe.
_DELTA_PROBS = np.ones(1, dtype=np.float64)
_DELTA_CUMSUM = np.ones(1, dtype=np.float64)

#: One queue position's entry of ``_MachineState.products``: the PET's
#: offset, then ``Q_k``'s probabilities and cumulative sums.
_Product = tuple[float, "np.ndarray | None", "np.ndarray | None"]

#: Shared empty chance array for machines with empty queues.
_EMPTY_CHANCES = np.zeros(0, dtype=np.float64)


def _delta(t: float) -> PMF:
    """Value-identical to ``PMF.delta(t)`` but zero-copy."""
    return PMF._from_parts(_DELTA_PROBS, t, 0.0, _DELTA_CUMSUM)


class _NewPct:
    """A cached new-task PCT (``availability ⊛ PET``), re-anchorable.

    Validity is keyed on the *identity* of the availability PMF's
    probability array: chain rebuilds allocate fresh arrays, while pure
    re-anchoring shares them, so ``avail_probs is chain[-1].probs`` says
    exactly "same distribution up to its anchor".
    """

    __slots__ = ("avail_probs", "avail_offset", "avail_tail", "built_at", "pct", "reanchorable", "pet_offset")

    def __init__(self, avail: PMF, built_at: float, pct: PMF, reanchorable: bool, pet_offset: float) -> None:
        self.avail_probs = avail.probs
        self.avail_offset = avail.offset
        self.avail_tail = avail.tail
        self.built_at = built_at
        self.pct = pct
        self.reanchorable = reanchorable
        self.pet_offset = pet_offset


class _MachineState:
    """Incremental per-machine PCT state (the prefix-convolution cache).

    ``chain`` holds the valid prefix only — invalidation truncates the
    list.  ``pet_offsets[k]`` is the grid offset of the PET convolved at
    step ``k+1`` and ``reanchorable[k]`` records whether that entry can be
    re-anchored by pure offset arithmetic (no truncation fold, no trim,
    no tail mass — see ``_extend_chain``).
    """

    __slots__ = (
        "machine",
        "chain",
        "pet_offsets",
        "reanchorable",
        "anchor",
        "base_sig",
        "base_kind",
        "base_cut",
        "base_src_offset",
        "base_token",
        "release_mean",
        "new_pct",
        "version_seen",
        "products",
        "chances_memo",
        "scalar_chain",
        "scalar_version",
        "scalar_release",
    )

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.chain: list[PMF] | None = None
        self.pet_offsets: list[float] = []
        self.reanchorable: list[bool] = []
        self.anchor: float = math.nan
        self.base_sig: tuple = ()
        #: ``products[k]`` describes queue position ``k``: the offset of
        #: the PET there and the probabilities and cumulative sums of
        #: the running-task-free product ``Q = pet_0 ⊛ … ⊛ pet_k``
        #: (``None`` once a product is not a clean full-support one).
        #: Only the valid prefix is kept.  It depends on the queue
        #: alone, so a new running-task base leaves it in place.
        self.products: list[_Product] = []
        #: Last full chance array of the queue with its key (see
        #: ``CompletionEstimator._memo_chances``).
        self.chances_memo: tuple[tuple, float | None, np.ndarray] | None = None
        #: Scalar (expected-value) chain cache for the incremental mode;
        #: valid for one (machine.version, release time) pair.
        self.scalar_chain: list[float] | None = None
        self.scalar_version: int = -1
        self.scalar_release: float = math.nan
        #: How the base (chain[0]) depends on the query time: "idle" —
        #: re-anchored by offset replay; "uncut" — the shifted PET,
        #: conditioning was a no-op; "interior" — conditioned at grid
        #: index ``base_cut``; "tdep" — shape depends on ``now`` itself
        #: (collapsed belief or truncation-clipped), rebuild on any tick.
        self.base_kind: str = "idle"
        self.base_cut: int = 0
        self.base_src_offset: float = math.nan
        #: Product-cache key prefix when ``chain[0]`` is a *pure* base —
        #: an idle delta (``(machine_type,)``) or an unconditioned,
        #: untruncated shifted PET (``(machine_type, running_type)``).
        #: ``None`` means chain products are anchor-dependent and must
        #: not be shared across machines (see ``_extend_chain``).
        self.base_token: tuple | None = None
        #: Cached ``chain[0].finite_mean()`` for the scalar view; valid
        #: exactly as long as the base itself (None = not computed).
        self.release_mean: float | None = None
        #: task_type -> cached availability ⊛ PET result
        self.new_pct: dict[int, _NewPct] = {}
        self.version_seen: int = machine.version

    def reset(self) -> None:
        self.chain = None
        self.pet_offsets.clear()
        self.reanchorable.clear()
        self.anchor = math.nan
        self.base_sig = ()
        self.base_kind = "idle"
        self.base_cut = 0
        self.base_src_offset = math.nan
        self.base_token = None
        self.release_mean = None
        self.new_pct.clear()

    def truncate_suffix(self, index: int) -> None:
        """Drop chain entries and products derived from queue positions
        ``>= index``."""
        if self.chain is not None and len(self.chain) > index + 1:
            del self.chain[index + 1 :]
            del self.pet_offsets[index:]
            del self.reanchorable[index:]
        del self.products[index:]
        self.new_pct.clear()


class CompletionEstimator:
    """Estimates completion times and success probabilities on machines.

    Parameters
    ----------
    model:
        A :class:`~repro.stochastic.PETMatrix` (probabilistic) or
        :class:`~repro.stochastic.ETCMatrix` (deterministic baseline —
        chance of success degenerates to a 0/1 step).
    horizon:
        PCT chains are truncated ``horizon`` time units past ``now``;
        beyond-horizon mass is folded into the PMF tail, i.e. treated as
        "certainly late".  Must exceed the largest deadline slack in the
        workload for chance values to be exact.
    condition_running:
        When True (default) the running task's PCT is conditioned on the
        task still being unfinished at ``now``.
    memoize:
        ``True`` — delta-invalidated prefix cache; ``False`` — the
        from-scratch oracle, no caching.  Anything else is rejected.
    """

    def __init__(
        self,
        model: ExecutionModel,
        *,
        horizon: float = 512.0,
        condition_running: bool = True,
        memoize: bool = True,
        max_support: int = DEFAULT_MAX_SUPPORT,
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if not isinstance(memoize, bool):
            raise ValueError(f"memoize must be True or False, got {memoize!r}")
        self.model = model
        self.horizon = float(horizon)
        self.condition_running = condition_running
        self.memoize = memoize
        self.max_support = max_support
        #: §V-A "task grouping and memorization of partial results": pure
        #: PET products keyed on (machine type, task-type sequence).  A
        #: chain whose base is an unconditioned shifted PET (or an idle
        #: delta) and whose entries never hit truncation is, up to its
        #: anchor, a *pure product* of PET distributions — a function of
        #: the type sequence alone.  Queue type-sequences recur heavily
        #: (affinity-driven heuristics keep feeding each machine the same
        #: few types), so after a completion the rebuilt chain's products
        #: are usually already here and cost a dict lookup instead of an
        #: ``np.convolve``.  Values are the (probs, cumsum) array pair;
        #: offsets/tails are replayed per use with the exact float
        #: arithmetic of the sequential path (see ``_extend_chain``).
        self._product_cache = LRUCache(CACHE_CAPACITY)
        #: Conditioned-base shape cache.  Conditioning a running task's
        #: PCT on "still running at ``now``" (§II) depends on the wall
        #: clock only through the integer cut index ``ceil(now - start -
        #: pet.offset)``: the renormalized kept-mass array and tail are a
        #: pure (bitwise-deterministic) function of ``(task type, machine
        #: type, cut)``.  Machines re-derive the same conditioned shapes
        #: every mapping event while a long task runs, so the division +
        #: normalization is replayed from here; only the anchor arithmetic
        #: (which tracks the start time) is recomputed per use.
        self._cond_cache = LRUCache(CACHE_CAPACITY)
        #: Dense scalar means table when the model has one (PETMatrix /
        #: ETCMatrix both do); lets the scalar view index the array
        #: directly instead of bouncing through ``model.mean``.
        self._means = getattr(model, "means", None)
        self._states: dict[int, _MachineState] = {}
        #: Last ``cluster_expected_available`` answer with its key
        #: ``(now, machines, versions)``; incremental mode only.
        self._avail_memo: tuple[tuple, np.ndarray] | None = None
        # Stats counters (exposed through cache_stats / SimulationResult).
        self.cache_hits = 0
        self.cache_misses = 0
        self.invalidations = 0
        self.convolutions = 0
        self.convolutions_avoided = 0
        self.chance_evaluations = 0
        # Chance-of-success observation for the control plane
        # (:mod:`repro.control`).  Accumulated at the query boundary —
        # *above* every cache layer — so the running mean is identical
        # across memoize modes; off by default so the paper's
        # configurations pay nothing for it.
        self.observe_chances = False
        self.chance_obs_count = 0
        self.chance_obs_sum = 0.0
        #: DAG workloads: the system wires the run's DependencyTracker
        #: here.  When set, chance queries (a) record each parent task's
        #: own Eq. 2 estimate for its dependents' critical-path factors
        #: and (b) multiply held tasks' chances by that factor.  Queued/
        #: mapped tasks always have completed parents (factor 1), so the
        #: hot cached paths stay untouched; ``None`` costs nothing.
        self.dag = None

    # ------------------------------------------------------------------
    # Scalar (expected-value) view — heuristics
    # ------------------------------------------------------------------
    def expected_available(self, machine: Machine, now: float) -> float:
        """Expected time the machine finishes everything currently queued."""
        chain = self._scalar_chain(machine, now)
        return chain[-1]

    def cluster_expected_available(
        self, machines: Sequence[Machine], now: float
    ) -> np.ndarray:
        """Scalar availability of every machine in one array — phase 1 of
        the batch heuristics' virtual-queue planner consumes this (the
        cluster-wide face of the scalar view).

        Incremental mode remembers the last answer, keyed on ``now``, the
        machines and their versions: a batch mapping event re-plans with
        no machine touched between rounds whenever the pruner defers the
        whole plan.  A repeat costs one key compare and counts one cache
        hit per machine — the hits the per-machine scalar chains would
        have scored.  Callers get a fresh copy (planners mutate it).
        """
        if self.memoize:
            key = (now, tuple(machines), tuple([m.version for m in machines]))
            memo = self._avail_memo
            if memo is not None and memo[0] == key:
                self.cache_hits += len(machines)
                return memo[1].copy()
        avail = np.fromiter(
            (self._scalar_chain(m, now)[-1] for m in machines),
            dtype=np.float64,
            count=len(machines),
        )
        if not self.memoize:
            return avail
        self._avail_memo = (key, avail)
        return avail.copy()

    def expected_release(self, machine: Machine, now: float) -> float:
        """Expected time the *running* task (if any) finishes."""
        return self._scalar_chain(machine, now)[0]

    def expected_completion(
        self,
        task_type: int,
        machine: Machine,
        now: float,
        extra_load: float = 0.0,
    ) -> float:
        """Expected completion of a new ``task_type`` task appended to the
        queue, optionally after ``extra_load`` time units of virtually
        planned work (used by batch heuristics' virtual queues)."""
        return (
            self.expected_available(machine, now)
            + extra_load
            + self.model.mean(task_type, machine.machine_type)
        )

    def _scalar_chain(self, machine: Machine, now: float) -> list[float]:
        """``chain[0]`` = expected release of the running task (or ``now``
        if idle); ``chain[k]`` = expected completion of the k-th queued
        task.  The last entry is the expected availability.

        Incremental mode caches the chain on the machine state, keyed on
        ``(version, release time)``: the queue part of the chain is a
        pure function of those two, so the cache survives clock ticks as
        long as the running task's conditioned release mean does (an
        O(1) field compare).  The oracle recomputes it every call.
        """
        if machine.running is None:
            t = now
        elif self.condition_running:
            t = self._release_mean(machine, now)
            if math.isnan(t):
                t = now
        else:
            run_mean = self.model.mean(machine.running.task_type, machine.machine_type)
            started = machine.running_started_at
            assert started is not None
            t = max(now, started + run_mean)

        state: _MachineState | None = None
        if self.memoize:
            state = self._state_for(machine)
            if (
                state.scalar_chain is not None
                and state.scalar_version == machine.version
                and state.scalar_release == t
            ):
                self.cache_hits += 1
                return state.scalar_chain
            self.cache_misses += 1

        chain = [t]
        means = self._means
        if means is None:
            for queued in machine.queue:
                t = t + self.model.mean(queued.task_type, machine.machine_type)
                chain.append(t)
        else:
            # Same left-to-right additions, indexing the dense means
            # table directly (``model.mean`` is a float() of the same
            # cell, so values are bit-identical).
            mtype = machine.machine_type
            for queued in machine.queue:
                t = t + means[queued.task_type, mtype]
                chain.append(t)

        if state is not None:
            state.scalar_chain = chain
            state.scalar_version = machine.version
            state.scalar_release = chain[0]
        return chain

    def _release_mean(self, machine: Machine, now: float) -> float:
        """Conditioned expected release of the running task.

        Reuses the incremental chain's base when it is provably current
        (same conditioning cut, truncation untouched): the scalar view
        then costs a cached float instead of rebuilding the conditioned
        PCT.  When no current base exists, one is *established* in the
        machine state — a later probabilistic query on the same machine
        starts from it instead of rebuilding.  The returned value is
        identical to the reference computation either way.
        """
        if not self.memoize:
            return self._running_pct(machine, now).finite_mean()
        state = self._states.get(machine.machine_id)
        if (
            state is not None
            and state.machine is machine
            and state.release_mean is not None
            and state.version_seen == machine.version
            and state.chain is not None
            and (now == state.anchor or self._base_still_valid(state, now))
        ):
            # Fast path: the cached base provably equals a fresh build at
            # ``now`` (any running-task change bumps the version and any
            # observer event resets release_mean), so no signature tuple
            # needs building.
            return state.release_mean
        state = self._synced_state(machine)
        base = self._established_base(state, machine, now)
        if state.release_mean is None:
            state.release_mean = base.finite_mean()
        return state.release_mean

    def _established_base(self, state: _MachineState, machine: Machine, now: float) -> PMF:
        """The running machine's ``chain[0]`` at ``now``: the state's own
        when the recorded base facts prove it current, otherwise built
        and installed as the start of a fresh chain (the rest of the
        chain is extended only when a consumer needs it).  ``state``
        must come from :meth:`_synced_state`."""
        sig = self._base_signature(machine)
        if not (
            state.chain
            and state.base_sig == sig
            and (now == state.anchor or self._base_still_valid(state, now))
        ):
            state.reset()
            state.chain = [self._build_base(state, machine, now)]
            state.base_sig = sig
            state.anchor = now
        return state.chain[0]

    # ------------------------------------------------------------------
    # Probabilistic view — pruning (Eq. 1 / Eq. 2)
    # ------------------------------------------------------------------
    def _running_pct(self, machine: Machine, now: float) -> PMF:
        """Belief over when the running task completes (no convolution)."""
        running = machine.running
        assert running is not None
        started = machine.running_started_at
        assert started is not None
        pct = self.model.pmf(running.task_type, machine.machine_type).shift(started)
        if self.condition_running:
            pct = pct.condition_at_least(now)
        return pct.truncate(now + self.horizon)

    def availability_pct(self, machine: Machine, now: float) -> PMF:
        """PCT of the *last* task currently on the machine (Eq. 1's
        ``PCT(i-1, j)``): when the machine would start one more task."""
        chain = self._pct_chain(machine, now)
        return chain[-1]

    def _pct_chain(self, machine: Machine, now: float) -> list[PMF]:
        """``chain[0]`` = availability after the running task (delta(now)
        when idle); ``chain[k]`` = PCT of the k-th queued task."""
        if self.memoize:
            return self._incremental_chain(machine, now)
        return self._build_chain(machine, now)

    def _build_chain(self, machine: Machine, now: float) -> list[PMF]:
        """Reference path: full Eq. 1 reconvolution of the queue."""
        base = PMF.delta(now) if machine.running is None else self._running_pct(machine, now)
        chain = [base]
        cutoff = now + self.horizon
        for queued in machine.queue:
            pet = self.model.pmf(queued.task_type, machine.machine_type)
            base = base.convolve(pet, max_support=self.max_support).truncate(cutoff)
            self.convolutions += 1
            chain.append(base)
        return chain

    # -- incremental mode ----------------------------------------------
    def _state_for(self, machine: Machine) -> _MachineState:
        state = self._states.get(machine.machine_id)
        if state is None or state.machine is not machine:
            state = _MachineState(machine)
            self._states[machine.machine_id] = state
            machine.subscribe(self)
        return state

    def _synced_state(self, machine: Machine) -> _MachineState:
        """The machine's state, wiped if a mutation bypassed the
        notification protocol (fail safe)."""
        state = self._state_for(machine)
        if state.version_seen != machine.version:
            state.reset()
            state.products.clear()
            state.version_seen = machine.version
        return state

    def _incremental_chain(self, machine: Machine, now: float) -> list[PMF]:
        state = self._synced_state(machine)
        qlen = len(machine.queue)
        cutoff = now + self.horizon
        before = self.convolutions

        reused = state.chain is not None and self._rebase(state, machine, now, cutoff)
        if not reused:
            state.reset()
            if machine.running is None:
                state.chain = [_delta(now)]
                state.base_token = (machine.machine_type,)
            else:
                state.chain = [self._build_base(state, machine, now)]
            state.base_sig = self._base_signature(machine)
            state.anchor = now

        chain = state.chain
        assert chain is not None
        if len(chain) > qlen + 1:  # defensive; observers should prevent this
            state.truncate_suffix(qlen)
        extended = len(chain) < qlen + 1
        if extended:
            self._extend_chain(state, machine, cutoff)

        performed = self.convolutions - before
        self.convolutions_avoided += max(qlen - performed, 0)
        if reused and not extended and performed == 0:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        return chain

    @staticmethod
    def _base_signature(machine: Machine) -> tuple:
        if machine.running is None:
            return ("idle",)
        return ("run", machine.running.task_id, machine.running_started_at)

    def _rebase(self, state: _MachineState, machine: Machine, now: float, cutoff: float) -> bool:
        """Re-anchor the cached chain to ``now``; False → rebuild needed.

        For an idle machine the whole chain is anchored at the query time,
        so the offsets are replayed with the same left-to-right additions
        a rebuild would perform (``now + pet_0 + pet_1 + ...``).  For a
        running machine the chain is anchored at the task's start time and
        only the base's conditioning can change its shape; the chain is
        kept iff the freshly conditioned base is bitwise-identical to the
        cached one.  Entries flagged non-re-anchorable (truncated/trimmed/
        tail-carrying) are dropped and re-convolved by ``_extend_chain``.
        """
        sig = self._base_signature(machine)
        if state.base_sig != sig:
            return False
        chain = state.chain
        assert chain is not None

        if machine.running is None:
            if now == state.anchor:
                return True
            new_chain: list[PMF] = [_delta(now)]
            offset = now
            keep = len(chain) - 1
            for k in range(keep):
                if not state.reanchorable[k]:
                    keep = k
                    break
                offset = offset + state.pet_offsets[k]
                entry = chain[k + 1]
                moved = PMF._from_parts(entry.probs, offset, entry.tail, entry._cumsum)
                if moved.truncate(cutoff) is not moved:
                    keep = k
                    break
                new_chain.append(moved)
            if keep < len(chain) - 1:
                del state.pet_offsets[keep:]
                del state.reanchorable[keep:]
            state.chain = new_chain
            state.anchor = now
            return True

        # Running machine: chain offsets are absolute (anchored at the
        # start time), but conditioning may reshape the base as time
        # passes — verify it did not.  At an unchanged `now` (repeat
        # queries within one mapping event) nothing can have moved.
        # The check is pure arithmetic against the facts recorded when
        # the base was built (`_build_base`): no fresh conditioned PCT is
        # constructed just to be compared and thrown away.
        if now == state.anchor:
            return True
        if not self._base_still_valid(state, now):
            return False
        # Truncation horizons moved with `now`; keep only entries provably
        # unaffected (no tail, finite support within the new cutoff).
        keep = len(chain) - 1
        for k in range(keep):
            if not state.reanchorable[k] or chain[k + 1].max_time > cutoff:
                keep = k
                break
        if keep < len(chain) - 1:
            del chain[keep + 1 :]
            del state.pet_offsets[keep:]
            del state.reanchorable[keep:]
        state.anchor = now
        return True

    def _build_base(self, state: _MachineState, machine: Machine, now: float) -> PMF:
        """The running-machine base, recording how it depends on ``now``.

        Bit-identical to :meth:`_running_pct` (same operations, same
        order); additionally classifies the result so `_rebase` can
        decide validity at a later query time by arithmetic alone:

        * ``"uncut"`` — conditioning was a no-op (``now`` at or before
          the belief's support); stays valid while that holds.
        * ``"interior"`` — mass below ``now`` was removed at grid index
          ``base_cut``; stays valid while the cut index is unchanged.
        * ``"tdep"`` — the belief collapsed to a delta/tail at ``now``
          or truncation clipped it: its very shape tracks the clock, so
          any new ``now`` forces a rebuild.
        """
        running = machine.running
        assert running is not None
        started = machine.running_started_at
        assert started is not None
        pet = self.model.pmf(running.task_type, machine.machine_type)
        src_offset = pet.offset + started
        kind, cut = "uncut", 0
        if not self.condition_running:
            pct = pet.shift(started)
        elif pet.probs.size == 0:
            kind = "tdep"
            pct = pet.shift(started).condition_at_least(now)
        else:
            cut = int(math.ceil(now - src_offset))
            if cut <= 0:
                kind = "uncut"
                pct = pet.shift(started)  # condition_at_least is a no-op here
            elif cut < pet.probs.size:
                ckey = (running.task_type, machine.machine_type, cut)
                hit = self._cond_cache.get(ckey)
                if hit is not None:
                    probs, lo, ctail = hit
                    kind = "interior"
                    # Anchor replayed with the miss path's exact additions
                    # (constructor trim adds ``lo``; ``+ 0`` when it never
                    # trimmed is a bitwise no-op on a positive float).
                    pct = PMF._from_parts(probs, (src_offset + cut) + lo, ctail)
                else:
                    # Mirror condition_at_least's interior branch: when the
                    # kept mass vanishes the belief collapses to delta(now)
                    # — a shape that tracks the clock, not the cut index.
                    kept = pet.probs[cut:]
                    total = float(kept.sum()) + pet.tail
                    if total > _PMF_EPS:
                        kind = "interior"
                        pct = PMF(kept / total, src_offset + cut, pet.tail / total)
                        # The constructor's leading trim (division by the
                        # positive normalizer never maps mass to zero, so
                        # the zero pattern of ``kept`` is the trim pattern).
                        nz = np.flatnonzero(kept > 0.0)
                        lo = int(nz[0]) if nz.size else 0
                        self._cond_cache.put(ckey, (pct.probs, lo, pct.tail))
                    else:
                        kind = "tdep"
                        pct = pet.shift(started).condition_at_least(now)
            else:
                kind = "tdep"
                pct = pet.shift(started).condition_at_least(now)
        truncated = pct.truncate(now + self.horizon)
        if truncated is not pct:
            kind = "tdep"
        state.base_kind = kind
        state.base_cut = cut
        state.base_src_offset = src_offset
        # Pure base: the belief's probability array is a deterministic
        # function of types alone ("uncut" — still the PET's own array)
        # or of types plus the integer cut index ("interior" — the
        # conditioned shape; bitwise-pure per the cond-cache argument
        # above).  Chain products over a pure base join the §V-A product
        # cache under that token.
        if kind == "uncut" and truncated.probs is pet.probs:
            state.base_token = (machine.machine_type, running.task_type)
        elif kind == "interior" and truncated is pct:
            state.base_token = (machine.machine_type, (running.task_type, cut))
        else:
            state.base_token = None
        return truncated

    def _base_still_valid(self, state: _MachineState, now: float) -> bool:
        """Whether the cached running-machine base equals a fresh build
        at ``now`` — decided from the recorded base facts, no PMF built."""
        if now < state.anchor:  # simulation time is monotone; fail safe
            return False
        kind = state.base_kind
        if kind == "tdep":
            return False
        if not self.condition_running:
            return True  # unclipped, unconditioned: time-independent
        cut = int(math.ceil(now - state.base_src_offset))
        if kind == "uncut":
            return cut <= 0
        return cut == state.base_cut  # "interior"

    def _append_pet(self, prev: PMF, pet: PMF, cutoff: float) -> PMF:
        """``prev ⊛ pet`` truncated at ``cutoff``, counting convolutions.

        A unit point mass on the left degenerates to a zero-copy shift of
        the PET (``1.0 * p == p`` bitwise), sparing the array multiply a
        literal ``convolve`` would perform.  Only real convolutions are
        counted here; callers account for avoided work (a caller knows
        its naive cost, this helper does not).

        The real convolutions go through the allocation-lean
        :meth:`~repro.stochastic.pmf.PMF.convolve_truncated` fast path —
        bit-identical to ``convolve(...).truncate(...)``.
        """
        if (
            prev.probs.size == 1
            and prev.probs[0] == 1.0
            and prev.tail == 0.0
            and pet.tail == 0.0
            and pet.probs.size <= self.max_support
        ):
            return pet.shift(prev.offset).truncate(cutoff)
        self.convolutions += 1
        return prev.convolve_truncated(pet, cutoff=cutoff, max_support=self.max_support)

    def _extend_chain(self, state: _MachineState, machine: Machine, cutoff: float) -> None:
        """Convolve PETs for queued tasks not yet covered by the chain.

        §V-A "task grouping and memorization of partial results", taken
        across machines: while the chain prefix is a *pure product* — the
        base is an idle delta or an unconditioned shifted PET
        (``state.base_token``) and every entry so far is re-anchorable —
        an entry's probability array is a function of the machine type
        and the task-type sequence alone, independent of anchor times and
        machine identity.  Those arrays are memoized in
        ``_product_cache`` keyed on that sequence, so a queue pattern
        already seen on any same-type machine costs a dict lookup instead
        of an ``np.convolve``.  Replayed entries use the same
        left-to-right offset additions and the same finishing arithmetic
        (:func:`~repro.stochastic.pmf._finish_conv`) as a fresh
        convolution, keeping the chain bit-identical to the uncached
        computation.  Only full-support, untrimmed, tail-free products
        are stored; any impure step disables keying for the rest of the
        chain.
        """
        chain = state.chain
        assert chain is not None
        queue = machine.queue
        mtype = machine.machine_type
        model_pmf = self.model.pmf
        cache = self._product_cache
        key = state.base_token
        if key is not None:
            covered = len(chain) - 1
            if all(state.reanchorable[:covered]):
                for k in range(covered):
                    key = key + (queue[k].task_type,)
            else:
                key = None
        while len(chain) < len(queue) + 1:
            queued = queue[len(chain) - 1]
            pet = model_pmf(queued.task_type, mtype)
            prev = chain[-1]
            nxt = None
            cacheable = False
            if key is not None:
                key = key + (queued.task_type,)
                cacheable = (
                    prev.tail == 0.0
                    and pet.tail == 0.0
                    and prev.probs.size > 1
                    and pet.probs.size > 1
                )
                if cacheable:
                    pair = cache.get(key)
                    if pair is not None:
                        probs, cumsum = pair
                        offset = prev.offset + pet.offset
                        if offset + probs.size - 1 <= cutoff:
                            nxt = PMF._from_parts(probs, offset, 0.0, cumsum)
                        else:
                            nxt = _finish_conv(probs, offset, 0.0, cutoff, self.max_support)
            if nxt is None:
                nxt = self._append_pet(prev, pet, cutoff)
                if (
                    cacheable
                    and nxt.tail == 0.0
                    and nxt.offset == prev.offset + pet.offset
                    and nxt.probs.size == prev.probs.size + pet.probs.size - 1
                ):
                    cache.put(key, (nxt.probs, nxt.cumulative()))
            # Re-anchorable iff the convolution neither trimmed nor folded
            # mass: offset is the plain float add and no tail appeared.
            re_ok = nxt.tail == 0.0 and nxt.offset == prev.offset + pet.offset
            state.reanchorable.append(re_ok)
            state.pet_offsets.append(pet.offset)
            chain.append(nxt)
            if not re_ok:
                key = None

    # -- queue-delta notifications (QueueObserver protocol) -------------
    def _observed(self, machine: Machine) -> _MachineState | None:
        state = self._states.get(machine.machine_id)
        if state is None or state.machine is not machine:
            return None
        state.version_seen = machine.version
        return state

    def on_enqueue(self, machine: Machine, index: int) -> None:
        state = self._observed(machine)
        if state is None:
            return
        # The existing prefix stays valid.  Better: if the enqueued task's
        # new-task PCT was just computed against the current availability
        # (the allocator's defer check immediately precedes dispatch), that
        # product *is* the chain extension — promote it instead of paying
        # the convolution again on the next query.
        chain = state.chain
        if chain is None:
            return
        if len(chain) == index + 1:
            entry = state.new_pct.get(machine.queue[index].task_type)
            avail = chain[-1]
            if (
                entry is not None
                and entry.reanchorable
                and entry.avail_probs is avail.probs
                and entry.avail_offset == avail.offset
                and entry.avail_tail == avail.tail
            ):
                # The next chain query's qlen-minus-performed accounting
                # registers this as an avoided convolution.
                chain.append(entry.pct)
                state.pet_offsets.append(entry.pet_offset)
                state.reanchorable.append(True)
        state.new_pct.clear()
        self.invalidations += 1

    def on_dequeue(self, machine: Machine, index: int) -> None:
        self.on_drop(machine, index)

    def on_drop(self, machine: Machine, index: int) -> None:
        state = self._observed(machine)
        if state is not None:
            if state.chain is not None:
                self.invalidations += 1
            state.truncate_suffix(index)

    def on_start(self, machine: Machine) -> None:
        state = self._observed(machine)
        if state is not None:
            state.reset()
            self.invalidations += 1

    def on_finish(self, machine: Machine) -> None:
        state = self._observed(machine)
        if state is not None:
            state.reset()
            self.invalidations += 1

    def on_offline(self, machine: Machine) -> None:
        """Machine failed/drained: its queue (and possibly its running
        task) vanished wholesale — no suffix survives."""
        state = self._observed(machine)
        if state is not None:
            state.reset()
            state.products.clear()
            self.invalidations += 1

    def on_online(self, machine: Machine) -> None:
        state = self._observed(machine)
        if state is not None:
            state.reset()
            self.invalidations += 1

    # ------------------------------------------------------------------
    def pct_for_new(self, task_type: int, machine: Machine, now: float) -> PMF:
        """Eq. 1: PCT of a new task appended to the machine's queue.

        In incremental mode the ``availability ⊛ PET`` result is cached
        per (machine, task type) and validated by the *identity* of the
        availability distribution: as long as the machine's chain merely
        re-anchored in time, the cached product re-anchors with it (zero
        convolutions).  Within one mapping event every task of the same
        type therefore shares this PCT, and across events it survives
        until the machine's queue actually changes.
        """
        if self.memoize:
            chain = self._pct_chain(machine, now)
            state = self._state_for(machine)
            avail = chain[-1]
            cutoff = now + self.horizon
            entry = state.new_pct.get(task_type)
            if (
                entry is not None
                and entry.avail_probs is avail.probs
                and entry.avail_tail == avail.tail
            ):
                if entry.reanchorable:
                    pct = entry.pct
                    offset = avail.offset + entry.pet_offset
                    if pct.offset != offset:
                        pct = PMF._from_parts(pct.probs, offset, 0.0, pct._cumsum)
                    if pct.max_time <= cutoff:
                        entry.pct = pct
                        entry.avail_offset = avail.offset
                        entry.built_at = now
                        self.cache_hits += 1
                        self.convolutions_avoided += 1
                        return pct
                elif entry.avail_offset == avail.offset and entry.built_at == now:
                    self.cache_hits += 1
                    self.convolutions_avoided += 1
                    return entry.pct
            self.cache_misses += 1
            pet = self.model.pmf(task_type, machine.machine_type)
            before = self.convolutions
            pct = self._append_pet(avail, pet, cutoff)
            if self.convolutions == before:  # zero-copy shift path
                self.convolutions_avoided += 1
            reanchorable = pct.tail == 0.0 and pct.offset == avail.offset + pet.offset
            state.new_pct[task_type] = _NewPct(avail, now, pct, reanchorable, pet.offset)
            return pct

        avail = self.availability_pct(machine, now)
        pet = self.model.pmf(task_type, machine.machine_type)
        self.convolutions += 1
        return avail.convolve(pet, max_support=self.max_support).truncate(now + self.horizon)

    def observed_mean_chance(self) -> float | None:
        """Running mean of every chance-of-success answered so far.

        ``None`` until the first query or while ``observe_chances`` is
        off.  The accumulator sits at the query boundary (above every
        cache layer), so the mean is a function of the *answers* — and
        answers are identical across memoize modes — which is what lets
        adaptive controllers consume it without breaking mode identity.
        """
        if not self.chance_obs_count:
            return None
        return self.chance_obs_sum / self.chance_obs_count

    def _observe_chance_array(self, values: np.ndarray) -> None:
        """Fold one batch of answered chances into the running mean."""
        self.chance_obs_count += int(values.size)
        self.chance_obs_sum += float(values.sum())

    def chance_of_success(self, task: Task, machine: Machine, now: float) -> float:
        """Eq. 2 for a task about to be appended to ``machine``'s queue.

        DAG workloads: the task's own estimate feeds its dependents'
        factors, and the returned chance carries the multiplicative
        critical-path factor of its ancestors (1.0 once all parents
        completed, so released tasks are unaffected).
        """
        chance = self.pct_for_new(task.task_type, machine, now).cdf_at(task.deadline)
        if self.dag is not None:
            self.dag.note_estimate(task.task_id, float(chance))
            factor = self.dag.chance_factor(task)
            if factor < 1.0:
                chance = chance * factor
        if self.observe_chances:
            self.chance_obs_count += 1
            self.chance_obs_sum += float(chance)
        return chance

    def queue_chances(
        self, machine: Machine, now: float, start: int = 0
    ) -> list[tuple[Task, float]]:
        """Chance of success of queued tasks from index ``start`` on, in
        FCFS order — the pruner's drop scan (Fig. 5 steps 4–5) consumes
        this.  After a drop at index ``i`` the scan re-queries only
        ``start=i`` (the suffix the drop invalidated), so post-drop work
        scales with the tasks behind the dropped one, not the queue."""
        chances = self.queue_chances_suffix(machine, now, start)
        return [
            (task, float(c)) for task, c in zip(machine.queue[start:], chances)
        ]

    def queue_chances_suffix(
        self, machine: Machine, now: float, start: int = 0
    ) -> np.ndarray:
        """Raw ndarray variant of :meth:`queue_chances` (no tuple boxing)."""
        if start == 0:
            chances = self._memo_chances(machine, now)
        else:
            chances = self._factored_chances(
                machine, now, start, self._queue_base(machine, now)
            )[0]
        if self.dag is not None:
            # Queued tasks have completed parents (factor 1) — nothing
            # to multiply — but their own estimates feed their
            # dependents' critical-path factors.
            for task, c in zip(machine.queue[start:], chances):
                self.dag.note_estimate(task.task_id, float(c))
        if self.observe_chances:
            self._observe_chance_array(chances)
        return chances

    def chain_chance(self, machine: Machine, now: float, index: int) -> float:
        """Eq. 2 for queue position ``index``, read from the
        left-associated PCT chain instead of the factored form.

        The two agree to a few ulps; the drop scan asks for this value
        only when a factored chance lies within a relative
        :data:`TIE_MARGIN` of its threshold, so that its decisions are
        exactly the chain's.
        """
        self.chance_evaluations += 1
        entry = self._pct_chain(machine, now)[index + 1]
        return entry.cdf_at(machine.queue[index].deadline)

    def cluster_queue_chances(
        self, machines: Sequence[Machine], now: float
    ) -> list[np.ndarray]:
        """Chances of every queued task on every machine — the pruner's
        whole opening drop scan in one call.  Returns one chance array
        per machine, aligned with its FCFS queue.

        In incremental mode a machine whose queue and running-task base
        are unchanged since the last query gets last query's array
        object back (see :meth:`_memo_chances`), so per-event work tracks
        the machines an event actually touched, not the cluster.
        """
        results = [self._memo_chances(machine, now) for machine in machines]
        if self.dag is not None:
            # Feed queued parents' estimates to the tracker (factor 1
            # applies to the queued tasks themselves — their parents all
            # completed — so the cached arrays above stay exact).
            for machine, chances in zip(machines, results):
                for task, c in zip(machine.queue, chances):
                    self.dag.note_estimate(task.task_id, float(c))
        if self.observe_chances:
            # Observe the *answers* (cached reuses included): the answer
            # stream is identical across memoize modes even when the
            # work to produce it is not.
            for chances in results:
                self._observe_chance_array(chances)
        return results

    def _memo_chances(self, machine: Machine, now: float) -> np.ndarray:
        """The whole queue's chances, reusing last query's array when the
        inputs provably did not change (incremental mode).

        The key is ``(machine.version, base kind, cut)``: the version
        pins the queue (types, order, deadlines) and the running task;
        for a running task whose base is unconditioned (``"uncut"``) or
        conditioned at cut index ``cut`` (``"interior"``) the base is a
        pure function of that cut, so the chances are too.  Idle and
        clock-tracking (``"tdep"``) bases put ``now`` in the key, and so
        does an answer in which the horizon made some entry take the
        chain path.  A hit returns the *same array object*, which the
        pruner's scan memo relies on.
        """
        if not machine.queue:
            return _EMPTY_CHANCES
        if not self.memoize:
            return self._factored_chances(machine, now, 0, self._queue_base(machine, now))[0]
        state = self._synced_state(machine)
        if machine.running is None:
            base = _delta(now)
            key: tuple = (machine.version, "idle", now)
        else:
            base = self._established_base(state, machine, now)
            kind = state.base_kind
            key = (machine.version, kind, now if kind == "tdep" else state.base_cut)
        memo = state.chances_memo
        if memo is not None and memo[0] == key and (memo[1] is None or memo[1] == now):
            self.cache_hits += 1
            return memo[2]
        self.cache_misses += 1
        chances, clock_bound = self._factored_chances(machine, now, 0, base)
        state.chances_memo = (key, now if clock_bound else None, chances)
        return chances

    def _queue_base(self, machine: Machine, now: float) -> PMF:
        """``chain[0]`` without the rest of the chain."""
        if machine.running is None:
            return _delta(now)
        if self.memoize:
            return self._established_base(self._synced_state(machine), machine, now)
        return self._running_pct(machine, now)

    def _factored_chances(
        self, machine: Machine, now: float, start: int, base: PMF
    ) -> tuple[np.ndarray, bool]:
        """Eq. 2 for queue positions ``start..`` with the running task
        factored out of Eq. 1.

        The k-th chain entry is ``b ⊛ Q_k``: ``b`` is the base (the
        conditioned running PCT, a unit delta when idle) and
        ``Q_k = pet_0 ⊛ … ⊛ pet_k`` depends on the queue alone.  So
        ``F_k(d) = Σ_j b[j] · F_{Q_k}(K − j)`` with
        ``K = floor(d − offset_k + tol)``, where ``offset_k`` is the
        chain's own left-to-right offset sum and ``tol`` the
        :meth:`~repro.stochastic.pmf.PMF.cdf_at` grid-boundary
        tolerance: one :func:`~repro.stochastic.pmf.convolved_cdf_at`
        per task, and a moved conditioning cut costs no convolution.

        An entry whose chain would fold or truncate mass — a base or
        product with tail mass, a product past ``max_support``, or an
        entry reaching past ``now + horizon`` — is answered from the
        chain itself, as before.  The test reads machine state only, so
        both modes take the same branch.  Returns the chances and
        whether any entry took the chain path (its answer is then tied
        to ``now``).
        """
        queue = machine.queue
        count = len(queue) - start
        if count <= 0:
            return _EMPTY_CHANCES, False
        products = self._queue_products(machine)
        b = base.probs
        b_cum = base.cumulative() if base.tail == 0.0 and b.size else None
        span = b.size - 2  # entry k's last bin is offset_k + |Q_k| + span
        max_last = self.max_support - 1
        cutoff = now + self.horizon
        offset = base.offset
        chain = None
        out = np.empty(count, dtype=np.float64)
        for k, (pet_offset, _, q_cum) in enumerate(products):
            offset = offset + pet_offset
            if k < start:
                continue
            d = queue[k].deadline
            if b_cum is not None and q_cum is not None:
                last = q_cum.size + span
                if last <= max_last and offset + last <= cutoff:
                    x = d - offset + min(
                        CDF_REL_EPS * max(1.0, abs(d), abs(offset)), CDF_TOL_CAP
                    )
                    out[k - start] = (
                        convolved_cdf_at(b, b_cum, q_cum, last if x >= last else math.floor(x))
                        if x >= 0.0
                        else 0.0
                    )
                    continue
            if chain is None:
                chain = self._pct_chain(machine, now)
            out[k - start] = chain[k + 1].cdf_at(d)
        self.chance_evaluations += count
        return out, chain is not None

    def _queue_products(self, machine: Machine) -> list[_Product]:
        """``(pet_k.offset, Q_k.probs, Q_k.cumulative())`` for every queue
        position ``k``, where ``Q_k = pet_0 ⊛ … ⊛ pet_k`` (both arrays
        ``None`` once a step trims or folds mass, which sends that entry
        and every later one to the chain).

        Incremental mode keeps the valid prefix in the machine state and
        takes new products from the §V-A product cache, keyed
        ``(machine type, t_0, …, t_k)`` — the idle-base chain key, since
        an idle machine's chain entries *are* these products.  The
        oracle convolves every product from scratch on every query.
        Either way a product is built by :meth:`PMF.convolve_truncated`
        from its predecessor and counted in ``convolutions``.
        """
        queue = machine.queue
        cache = None
        products: list[_Product]
        if self.memoize:
            products = self._synced_state(machine).products
            if len(products) == len(queue):
                return products
            cache = self._product_cache
        else:
            products = []
        mtype = machine.machine_type
        model_pmf = self.model.pmf
        done = len(products)
        key = (mtype,) + tuple([queue[k].task_type for k in range(done)])
        prev = None
        if done and products[-1][1] is not None:
            _, probs, cum = products[-1]
            prev = PMF._from_parts(probs, 0.0, 0.0, cum)
        for k in range(done, len(queue)):
            ttype = queue[k].task_type
            pet = model_pmf(ttype, mtype)
            key = key + (ttype,)
            q: PMF | None = None
            if k == 0:
                if pet.tail == 0.0:
                    q = pet
            elif prev is not None:
                hit = cache.get(key) if cache is not None else None
                if hit is not None:
                    self.convolutions_avoided += 1
                    q = PMF._from_parts(hit[0], 0.0, 0.0, hit[1])
                else:
                    self.convolutions += 1
                    q = prev.convolve_truncated(pet, cutoff=math.inf, max_support=self.max_support)
                    if q.tail != 0.0 or q.probs.size != prev.probs.size + pet.probs.size - 1:
                        q = None
                    elif cache is not None:
                        cache.put(key, (q.probs, q.cumulative()))
            if q is None:
                products.append((pet.offset, None, None))
            else:
                products.append((pet.offset, q.probs, q.cumulative()))
            prev = q
        return products

    def chances_for(
        self, tasks: Sequence[Task], machines: Sequence[Machine], now: float
    ) -> np.ndarray:
        """Eq. 2 grid: chance of each task appended to each machine, now.

        Returns a ``(len(tasks), len(machines))`` array.  The grid is
        deduplicated before any distribution work happens: a new-task PCT
        is computed once per *distinct* (task type, machine) pair across
        the whole cluster, and every CDF lookup happens in one indexed
        :func:`batch_cdf_at` pass — an admission controller's or
        allocator's whole scan is a single batched query.
        """
        pmfs: list[PMF] = []
        uniq: dict[tuple[int, int], int] = {}
        index = np.empty(len(tasks) * len(machines), dtype=np.int64)
        pos = 0
        for task in tasks:
            ttype = task.task_type
            for machine in machines:
                key = (ttype, machine.machine_id)
                slot = uniq.get(key)
                if slot is None:
                    slot = uniq[key] = len(pmfs)
                    pmfs.append(self.pct_for_new(ttype, machine, now))
                index[pos] = slot
                pos += 1
        deadlines = np.repeat(
            np.fromiter((t.deadline for t in tasks), dtype=np.float64, count=len(tasks)),
            len(machines),
        )
        self.chance_evaluations += index.size
        grid = batch_cdf_at(pmfs, deadlines, index).reshape(
            len(tasks), len(machines)
        )
        if self.dag is not None:
            # Held tasks' chances carry the multiplicative critical-path
            # factor of their (incomplete) ancestors — this is the query
            # the pruner's doomed-subgraph gate scan consumes.
            factors = np.fromiter(
                (self.dag.chance_factor(t) for t in tasks),
                dtype=np.float64,
                count=len(tasks),
            )
            if np.any(factors < 1.0):
                grid = grid * factors[:, None]
        if self.observe_chances:
            self._observe_chance_array(grid)
        return grid

    def chances_for_pairs(
        self, pairs: Iterable[tuple[Task, Machine]], now: float
    ) -> np.ndarray:
        """Eq. 2 for explicit (task, machine) placements, batched.

        This is the allocator's defer-check query: one entry per planned
        placement, evaluated against the machines' *current* queues,
        deduplicated per distinct (task type, machine) pair like
        :meth:`chances_for`.
        """
        pairs = list(pairs)
        pmfs: list[PMF] = []
        uniq: dict[tuple[int, int], int] = {}
        index = np.empty(len(pairs), dtype=np.int64)
        deadlines = np.empty(len(pairs), dtype=np.float64)
        for pos, (task, machine) in enumerate(pairs):
            key = (task.task_type, machine.machine_id)
            slot = uniq.get(key)
            if slot is None:
                slot = uniq[key] = len(pmfs)
                pmfs.append(self.pct_for_new(task.task_type, machine, now))
            index[pos] = slot
            deadlines[pos] = task.deadline
        self.chance_evaluations += index.size
        chances = batch_cdf_at(pmfs, deadlines, index)
        if self.dag is not None:
            # Planned placements are released tasks (parents completed,
            # factor 1); recording their estimates keeps dependents'
            # factors fresh between queue scans.
            for pos, (task, _machine) in enumerate(pairs):
                self.dag.note_estimate(task.task_id, float(chances[pos]))
        if self.observe_chances:
            self._observe_chance_array(chances)
        return chances

    # ------------------------------------------------------------------
    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/invalidation/convolution counters for this estimator."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "invalidations": self.invalidations,
            "evictions": self._product_cache.evictions + self._cond_cache.evictions,
            "convolutions": self.convolutions,
            "convolutions_avoided": self.convolutions_avoided,
            "chance_evaluations": self.chance_evaluations,
        }
