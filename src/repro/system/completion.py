"""Completion-time estimation: Eq. 1 (PCT chains) and Eq. 2 (chance of success).

Two views of the same machine state:

* **Scalar view** — expected completion times, used by every mapping
  heuristic (MCT, MM, MSD, MMU, EDF, SJF ...).  O(queue) additions, no
  convolutions.
* **Probabilistic view** — chances of success (Eq. 2) read from the PCT
  distributions that convolving PETs along the machine queue gives
  (Eq. 1), used by the pruning mechanism.

The paper notes (§V-A) that repeated convolution cost is contained via
"task grouping and memorization of partial results".  Every chance here
comes from one representation that factors the running task out of
Eq. 1.  The task at queue position ``k`` has PCT ``b ⊛ Q_k``, where
``b`` is the running task's conditioned completion belief (a unit delta
when the machine is idle) and ``Q_k = pet_0 ⊛ … ⊛ pet_k`` depends on
the queued task types alone.  So Eq. 2 is one dot product per task::

    F_k(d) = Σ_j b[j] · F_{Q_k}(K − j),   K = floor(d − offset_k + tol)

(:func:`~repro.stochastic.pmf.convolved_cdf_at`), where ``offset_k`` is
the chain's own left-to-right offset sum and ``tol`` the
:meth:`~repro.stochastic.pmf.PMF.cdf_at` grid-boundary tolerance.  A new
task of type ``t`` appended to an ``n``-task queue reads the same sum
with Eq. 1's own split, ``PCT(n − 1) ⊛ pet_t``: the machine's
availability ``A = b ⊛ Q_{n-1}`` (``Q_{n-1}`` itself when idle), which
does not depend on ``t``, against the PET's cumulative sums.

* ``Q_k`` comes from a product cache keyed on ``(machine type, t_0, …,
  t_k)``, shared across machines and clock ticks.  Each machine keeps
  its queue's products with the queued task behind each.  When the
  machine's ``version`` has moved, the state is reconciled against the
  machine itself: the products are cut at the first queue position that
  holds a different task, and the base is dropped when the running task
  changed.
* ``b`` comes from a cache of conditioned shapes per cut index, and the
  base records how it depends on ``now``, so a clock tick that leaves
  the running task's conditioning cut in place costs no convolution.
  Each machine's queued-task chance array and its availability ``A`` are
  memoized until its queue or cut changes, so a new task type costs no
  convolution.
* Grid queries (``chances_for``, ``chances_for_pairs``) read each
  machine's availability once per query; ``cluster_expected_available``
  is the scalar mirror for the batch heuristics' phase 1.

The left-associated chain ``b ⊛ pet_0 ⊛ … ⊛ pet_k``, built from scratch
(:meth:`CompletionEstimator._build_chain`), is the fallback.  It answers
the entries the horizon or ``max_support`` would truncate (and tailed
bases or PETs), and it decides a chance that lies within
:data:`TIE_MARGIN` of its decision threshold
(:meth:`CompletionEstimator.chain_chance`): the factored and chain forms
differ by a few ulps, which must not move a decision.

Two modes, one per job:

* ``memoize=True`` — the caches above (the simulator's path);
* ``memoize=False`` — the from-scratch oracle: every query rebuilds the
  base, reconvolves the queue products and the availability and
  evaluates the same formulas; the incremental mode must match it
  bitwise.

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

__all__ = ["ExecutionModel", "CompletionEstimator", "LRUCache", "TIE_MARGIN", "near_tie"]

#: Capacity of the estimator's LRU caches (PET products and conditioned
#: running-task bases).
CACHE_CAPACITY = 4096

#: Relative distance from a decision threshold within which a chance is
#: re-read from the chain (:meth:`CompletionEstimator.chain_chance`).
#: Factored and chain chances sum the same non-negative products in a
#: different order, so they differ by a few ulps of the value (≤ 7.8e-16
#: over ``drop-25k``; the reference test bounds it at 4e-15).  A chance
#: farther than ``TIE_MARGIN · threshold`` from its threshold therefore
#: lies on the same side of it as the chain's; a nearer one, such as an
#: exact tie that the two round apart, is decided on the chain.
TIE_MARGIN = 1e-9


def near_tie(chance: float, threshold: float) -> bool:
    """Whether a factored ``chance`` is too near ``threshold`` to decide
    on: the decision must then be taken on the chain's value."""
    return abs(chance - threshold) < TIE_MARGIN * threshold


#: :meth:`CompletionEstimator.cache_stats` key → the counter attribute
#: behind it, in payload order.
_STATS = (
    ("hits", "cache_hits"),
    ("misses", "cache_misses"),
    ("invalidations", "invalidations"),
    ("evictions", "evictions"),
    ("convolutions", "convolutions"),
    ("convolutions_avoided", "convolutions_avoided"),
    ("chance_evaluations", "chance_evaluations"),
)


class ExecutionModel(Protocol):
    """What the estimator needs from a PET (or ETC) matrix."""

    def pmf(self, task_type: int, machine_type: int) -> PMF: ...
    def mean(self, task_type: int, machine_type: int) -> float: ...


class LRUCache:
    """A bounded mapping evicting the least-recently-*used* entry.

    ``dict`` preserves insertion order; :meth:`get` re-inserts on hit so
    the front of the dict is always the coldest entry.  A full cache
    evicts exactly one victim per insert, so hot entries survive.
    ``None`` is the miss value of :meth:`get`, so it is never stored.
    """

    __slots__ = ("capacity", "_data")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self._data: dict = {}

    def get(self, key):
        # Most lookups miss, and a default-``pop`` miss costs far less
        # than a raised and caught ``KeyError``.
        data = self._data
        value = data.pop(key, None)
        if value is not None:
            data[key] = value
        return value

    def put(self, key, value) -> bool:
        """Store ``value``; whether that evicted the coldest entry."""
        data = self._data
        evicted = False
        if key in data:
            del data[key]
        elif len(data) >= self.capacity:
            del data[next(iter(data))]
            evicted = True
        data[key] = value
        return evicted

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data


#: Shared single-bin probability array backing every idle-machine base
#: (``delta(now)``), so an idle machine's query allocates no base.  PMFs
#: are immutable by convention, so the sharing is safe.
_DELTA_PROBS = np.ones(1, dtype=np.float64)
_DELTA_CUMSUM = np.ones(1, dtype=np.float64)

#: One queue position's product entry: the PET's offset, then ``Q``'s
#: probabilities and cumulative sums (both ``None`` once a product is
#: not a clean full-support one).
_Product = tuple[float, "np.ndarray | None", "np.ndarray | None"]

#: A machine's availability ``A = b ⊛ Q_{n-1}`` (Eq. 1's ``PCT(n − 1)``):
#: its probabilities and cumulative sums (both ``None`` where the
#: factored form does not apply) and its offset, summed left to right
#: as the chain does.
_Availability = tuple["np.ndarray | None", "np.ndarray | None", float]

#: Shared empty chance array for machines with empty queues.
_EMPTY_CHANCES = np.zeros(0, dtype=np.float64)


def _delta(t: float) -> PMF:
    """Value-identical to ``PMF.delta(t)`` but zero-copy."""
    return PMF._from_parts(_DELTA_PROBS, t, 0.0, _DELTA_CUMSUM)


def _base_parts(base: PMF) -> tuple[np.ndarray, np.ndarray | None]:
    """A base's probabilities and cumulative sums (``None`` when it has
    tail mass or no support: the factored form then does not apply)."""
    b = base.probs
    return b, base.cumulative() if base.tail == 0.0 and b.size else None


def _factored_cdf_at(
    b: np.ndarray,
    b_cum: np.ndarray | None,
    q_cum: np.ndarray | None,
    offset: float,
    d: float,
    cutoff: float,
    max_support: int,
) -> float | None:
    """``cdf_at(d)`` of the PCT ``b ⊛ Q`` anchored at ``offset``, without
    forming it: :meth:`PMF.cdf_at`'s tolerance and clamp around
    :func:`convolved_cdf_at`.

    ``None`` where the chain would fold or truncate mass — a base or
    product with tail mass (``b_cum`` / ``q_cum`` is ``None``), more
    than ``max_support`` bins, or a bin past ``cutoff``; the chain
    answers those.
    """
    if b_cum is None or q_cum is None:
        return None
    last = q_cum.size + b.size - 2  # index of the PCT's last bin
    if last >= max_support or offset + last > cutoff:
        return None
    x = d - offset + min(CDF_REL_EPS * max(1.0, abs(d), abs(offset)), CDF_TOL_CAP)
    if not x >= 0.0:
        return 0.0
    return convolved_cdf_at(b, b_cum, q_cum, last if x >= last else math.floor(x))


class _MachineState:
    """Incremental per-machine state: the running task's base, the
    queue's products and the memoized answers built on them."""

    __slots__ = (
        "machine",
        "base",
        "anchor",
        "base_sig",
        "base_kind",
        "base_cut",
        "base_src_offset",
        "release_mean",
        "version_seen",
        "version_first",
        "products",
        "queued",
        "product_key",
        "chances_memo",
        "avail_memo",
        "scalar_chain",
        "scalar_version",
        "scalar_release",
    )

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        #: The running task's conditioned completion belief, valid at
        #: ``anchor`` (``None`` until built; idle machines use ``_delta``).
        self.base: PMF | None = None
        self.anchor: float = math.nan
        self.base_sig: tuple = ()
        #: ``products[k]`` describes queue position ``k``: the offset of
        #: the PET there and the probabilities and cumulative sums of
        #: the running-task-free product ``Q = pet_0 ⊛ … ⊛ pet_k``.
        #: Only the valid prefix is kept.  It depends on the queue
        #: alone, so a new running-task base leaves it in place.
        self.products: list[_Product] = []
        #: The queued task behind each entry of ``products``.
        self.queued: list[Task] = []
        #: Product-cache key of the last entry of ``products``:
        #: ``(machine type, t_0, …, t_k)``.
        self.product_key: tuple = (machine.machine_type,)
        #: Last full chance array of the queue with its key (see
        #: ``CompletionEstimator._memo_chances``).
        self.chances_memo: tuple[tuple, float | None, np.ndarray] | None = None
        #: Last availability with the same key and the convolutions it
        #: cost (see ``CompletionEstimator._availability``).
        self.avail_memo: tuple[tuple, _Availability, int] | None = None
        #: Scalar (expected-value) chain cache for the incremental mode;
        #: valid for one (machine.version, release time) pair.
        self.scalar_chain: list[float] | None = None
        self.scalar_version: int = -1
        self.scalar_release: float = math.nan
        #: How the base depends on the query time: "idle" — no base;
        #: "uncut" — the shifted PET, conditioning was a no-op;
        #: "interior" — conditioned at grid index ``base_cut``; "tdep" —
        #: shape depends on ``now`` itself (collapsed belief or
        #: truncation-clipped), rebuild on any tick.
        self.base_kind: str = "idle"
        self.base_cut: int = 0
        self.base_src_offset: float = math.nan
        #: Cached ``base.finite_mean()`` for the scalar view; valid
        #: exactly as long as the base itself (None = not computed).
        self.release_mean: float | None = None
        #: The machine's version when the state was last reconciled with
        #: it (:meth:`CompletionEstimator._synced_state`) and when the
        #: estimator first read it (invalidations count the steps since).
        self.version_seen: int = machine.version
        self.version_first: int = machine.version

    def reset(self) -> None:
        """Forget the base (the running task or its belief changed)."""
        self.base = None
        self.anchor = math.nan
        self.base_sig = ()
        self.base_kind = "idle"
        self.base_cut = 0
        self.base_src_offset = math.nan
        self.release_mean = None

    def truncate_suffix(self, index: int) -> None:
        """Drop the products of queue positions ``>= index``."""
        del self.products[index:]
        del self.queued[index:]
        self.product_key = self.product_key[: index + 1]


class CompletionEstimator:
    """Estimates completion times and success probabilities on machines.

    Parameters
    ----------
    model:
        A :class:`~repro.stochastic.PETMatrix` (probabilistic) or
        :class:`~repro.stochastic.ETCMatrix` (deterministic baseline —
        chance of success degenerates to a 0/1 step).
    horizon:
        PCTs are truncated ``horizon`` time units past ``now``;
        beyond-horizon mass is folded into the PMF tail, i.e. treated as
        "certainly late".  Must exceed the largest deadline slack in the
        workload for chance values to be exact.
    memoize:
        ``True`` — product caches reconciled with each machine's queue;
        ``False`` — the from-scratch oracle, no caching.  Anything else
        is rejected.
    max_support:
        Most finite-support bins a PCT keeps; overflow mass is folded
        into its tail.
    """

    def __init__(
        self,
        model: ExecutionModel,
        *,
        horizon: float = 512.0,
        memoize: bool = True,
        max_support: int = DEFAULT_MAX_SUPPORT,
    ) -> None:
        if not horizon > 0:
            raise ValueError(f"horizon must be positive, got {horizon!r}")
        if not isinstance(max_support, int) or max_support <= 0:
            raise ValueError(f"max_support must be a positive integer, got {max_support!r}")
        if not isinstance(memoize, bool):
            raise ValueError(f"memoize must be True or False, got {memoize!r}")
        self.model = model
        self.horizon = float(horizon)
        self.memoize = memoize
        self.max_support = max_support
        #: §V-A "task grouping and memorization of partial results": pure
        #: PET products ``Q = pet_0 ⊛ … ⊛ pet_k`` keyed on (machine type,
        #: task-type sequence), as (probs, cumsum) pairs.  Queue
        #: type-sequences recur heavily (affinity-driven heuristics keep
        #: feeding each machine the same few types), so after a queue
        #: change the products are usually already here and cost a dict
        #: lookup instead of an ``np.convolve``.
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
        # Stats counters (exposed through cache_stats / SimulationResult).
        self.cache_hits = 0
        self.cache_misses = 0
        #: The part of :attr:`invalidations` no current state accounts
        #: for: steps of replaced states, or a resumed count.
        self._invalidations_retired = 0
        self.evictions = 0  #: entries either cache evicted
        self.convolutions = 0
        self.convolutions_avoided = 0
        self.chance_evaluations = 0
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
        cluster-wide face of the scalar view).  A fresh array: planners
        accumulate into it."""
        return np.fromiter(
            (self._scalar_chain(m, now)[-1] for m in machines),
            dtype=np.float64,
            count=len(machines),
        )

    def expected_release(self, machine: Machine, now: float) -> float:
        """Expected time the *running* task (if any) finishes."""
        return self._scalar_chain(machine, now)[0]

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
        else:
            t = self._release_mean(machine, now)
            if math.isnan(t):
                t = now

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

        Reuses the machine state's base when it is provably current
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
            and (now == state.anchor or self._base_still_valid(state, now))
        ):
            # Fast path: the cached base provably equals a fresh build at
            # ``now`` (any running-task change steps the version, and
            # reconciling with a new running task resets release_mean),
            # so no signature tuple needs building.
            return state.release_mean
        state = self._synced_state(machine)
        base = self._established_base(state, machine, now)
        if state.release_mean is None:
            state.release_mean = base.finite_mean()
        return state.release_mean

    def _established_base(self, state: _MachineState, machine: Machine, now: float) -> PMF:
        """The running machine's base at ``now``: the state's own when
        the recorded base facts prove it current, otherwise built and
        installed.  ``state`` must come from :meth:`_synced_state`."""
        sig = (machine.running.task_id, machine.running_started_at)
        if not (
            state.base is not None
            and state.base_sig == sig
            and (now == state.anchor or self._base_still_valid(state, now))
        ):
            state.reset()
            state.base = self._build_base(state, machine, now)
            state.base_sig = sig
            state.anchor = now
        return state.base

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
        return pct.condition_at_least(now).truncate(now + self.horizon)

    def availability_pct(self, machine: Machine, now: float) -> PMF:
        """PCT of the *last* task currently on the machine (Eq. 1's
        ``PCT(i-1, j)``): when the machine would start one more task.
        The left-associated chain, built from scratch — the reference
        for the factored availability that new-task chances read
        (:meth:`_availability`)."""
        return self._build_chain(machine, now)[-1]

    def pct_for_new(self, task_type: int, machine: Machine, now: float) -> PMF:
        """Eq. 1: PCT of a new task appended to the machine's queue,
        built from scratch (``availability_pct ⊛ PET``).  Chance queries
        read it only where the factored form does not apply."""
        pet = self.model.pmf(task_type, machine.machine_type)
        self.convolutions += 1
        return self.availability_pct(machine, now).convolve_truncated(
            pet, cutoff=now + self.horizon, max_support=self.max_support
        )

    def _build_chain(self, machine: Machine, now: float) -> list[PMF]:
        """The left-associated chain, from scratch (Eq. 1): ``chain[0]``
        is the running task's belief (delta(now) when idle) and
        ``chain[k]`` the PCT of the k-th queued task."""
        base = PMF.delta(now) if machine.running is None else self._running_pct(machine, now)
        chain = [base]
        cutoff = now + self.horizon
        for queued in machine.queue:
            pet = self.model.pmf(queued.task_type, machine.machine_type)
            base = base.convolve_truncated(pet, cutoff=cutoff, max_support=self.max_support)
            self.convolutions += 1
            chain.append(base)
        return chain

    # -- incremental mode ----------------------------------------------
    def _state_for(self, machine: Machine) -> _MachineState:
        state = self._states.get(machine.machine_id)
        if state is None or state.machine is not machine:
            if state is not None:
                self._invalidations_retired += state.machine.version - state.version_first
            state = _MachineState(machine)
            self._states[machine.machine_id] = state
        return state

    def _synced_state(self, machine: Machine) -> _MachineState:
        """The machine's state, reconciled with the machine when its
        version moved: the products are cut at the first queue position
        that holds a different task, and the base is dropped when the
        running task is no longer the one it was built for."""
        state = self._state_for(machine)
        if state.version_seen != machine.version:
            queue, queued = machine.queue, state.queued
            k, n = 0, min(len(queue), len(queued))
            while k < n and queue[k] is queued[k]:
                k += 1
            state.truncate_suffix(k)
            running = machine.running
            sig = () if running is None else (running.task_id, machine.running_started_at)
            if state.base_sig != sig:
                state.reset()
            state.version_seen = machine.version
        return state

    def _build_base(self, state: _MachineState, machine: Machine, now: float) -> PMF:
        """The running-machine base, recording how it depends on ``now``.

        Bit-identical to :meth:`_running_pct` (same operations, same
        order); additionally classifies the result so
        :meth:`_base_still_valid` can decide validity at a later query
        time by arithmetic alone:

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
        if pet.probs.size == 0:
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
                        # The PMF constructor's zero trim, done once: the
                        # leading trim ``lo`` is what the hit path replays.
                        probs = kept / total
                        nz = np.flatnonzero(probs > 0.0)
                        lo, hi = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
                        if lo != 0 or hi != probs.size:
                            probs = probs[lo:hi]
                        pct = PMF._from_parts(probs, (src_offset + cut) + lo, pet.tail / total)
                        self.evictions += self._cond_cache.put(ckey, (probs, lo, pct.tail))
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
        return truncated

    def _base_still_valid(self, state: _MachineState, now: float) -> bool:
        """Whether the cached running-machine base equals a fresh build
        at ``now`` — decided from the recorded base facts, no PMF built."""
        if now < state.anchor:  # simulation time is monotone; fail safe
            return False
        kind = state.base_kind
        if kind == "tdep":
            return False
        cut = int(math.ceil(now - state.base_src_offset))
        if kind == "uncut":
            return cut <= 0
        return cut == state.base_cut  # "interior"

    # ------------------------------------------------------------------
    def chance_of_success(self, task: Task, machine: Machine, now: float) -> float:
        """Eq. 2 for a task about to be appended to ``machine``'s queue.

        DAG workloads: the task's own estimate feeds its dependents'
        factors, and the returned chance carries the multiplicative
        critical-path factor of its ancestors (1.0 once all parents
        completed, so released tasks are unaffected).
        """
        chance = float(self._new_task_chances([(task, machine)], now)[0])
        if self.dag is not None:
            self.dag.note_estimate(task.task_id, chance)
            factor = self.dag.chance_factor(task)
            if factor < 1.0:
                chance = chance * factor
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
        return chances

    def chain_chance(
        self, task: Task, machine: Machine, now: float, index: int | None = None
    ) -> float:
        """Eq. 2 for ``task`` read from the left-associated PCT chain,
        built from scratch, instead of the factored form: the task at
        queue position ``index``, or, with ``index=None``, the task
        appended to the queue (with the DAG factor :meth:`chances_for`
        applies).

        The two forms agree to a few ulps; every decision against a
        threshold (drop scan, defer check, admission gate, DAG gate
        scan) asks for this value only when the factored chance is a
        :func:`near_tie`, so that its decisions are exactly the chain's.
        """
        self.chance_evaluations += 1
        if index is not None:
            return self._build_chain(machine, now)[index + 1].cdf_at(task.deadline)
        chance = self.pct_for_new(task.task_type, machine, now).cdf_at(task.deadline)
        if self.dag is not None:
            factor = self.dag.chance_factor(task)
            if factor < 1.0:
                chance = chance * factor
        return chance

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
        key = self._memo_key(state, machine, now)
        memo = state.chances_memo
        if memo is not None and memo[0] == key and (memo[1] is None or memo[1] == now):
            self.cache_hits += 1
            return memo[2]
        self.cache_misses += 1
        base = _delta(now) if machine.running is None else state.base
        chances, clock_bound = self._factored_chances(machine, now, 0, base)
        state.chances_memo = (key, now if clock_bound else None, chances)
        return chances

    def _memo_key(self, state: _MachineState, machine: Machine, now: float) -> tuple:
        """The memo key of the answers built on the machine's base at
        ``now`` (:meth:`_memo_chances`, :meth:`_availability`):
        ``(version, base kind, cut)``, with ``now`` in place of the cut
        for idle and clock-tracking bases.  A running machine's base is
        established in ``state`` (:meth:`_established_base`) on the way.
        ``state`` must come from :meth:`_synced_state`."""
        if machine.running is None:
            return (machine.version, "idle", now)
        self._established_base(state, machine, now)
        kind = state.base_kind
        return (machine.version, kind, now if kind == "tdep" else state.base_cut)

    def _queue_base(self, machine: Machine, now: float) -> PMF:
        """The running task's belief (``delta(now)`` when idle)."""
        if machine.running is None:
            return _delta(now)
        if self.memoize:
            return self._established_base(self._synced_state(machine), machine, now)
        return self._running_pct(machine, now)

    def _factored_chances(
        self, machine: Machine, now: float, start: int, base: PMF
    ) -> tuple[np.ndarray, bool]:
        """Eq. 2 for queue positions ``start..`` in the factored form: one
        :func:`_factored_cdf_at` per task against ``base`` and the queue
        products, the offset summed left to right as the chain does.

        An entry the factored form does not cover is answered from the
        chain itself.  The test reads machine state only, so both modes
        take the same branch.  Returns the chances and whether any entry
        took the chain path (its answer is then tied to ``now``).
        """
        queue = machine.queue
        count = len(queue) - start
        if count <= 0:
            return _EMPTY_CHANCES, False
        products = self._queue_products(machine)
        b, b_cum = _base_parts(base)
        cutoff = now + self.horizon
        max_support = self.max_support
        offset = base.offset
        chain = None
        out = np.empty(count, dtype=np.float64)
        for k, (pet_offset, _, q_cum) in enumerate(products):
            offset = offset + pet_offset
            if k < start:
                continue
            d = queue[k].deadline
            chance = _factored_cdf_at(b, b_cum, q_cum, offset, d, cutoff, max_support)
            if chance is None:
                if chain is None:
                    chain = self._build_chain(machine, now)
                chance = chain[k + 1].cdf_at(d)
            out[k - start] = chance
        self.chance_evaluations += count
        return out, chain is not None

    def _queue_products(self, machine: Machine) -> list[_Product]:
        """The product entry of every queue position ``k``:
        ``(pet_k.offset, Q_k.probs, Q_k.cumulative())`` with
        ``Q_k = pet_0 ⊛ … ⊛ pet_k``.

        Incremental mode keeps the valid prefix in the machine state and
        takes new products from the §V-A product cache
        (:meth:`_product_step`).  The oracle convolves every product
        from scratch on every query.
        """
        queue = machine.queue
        key = None
        state = None
        products: list[_Product] = []
        if self.memoize:
            state = self._synced_state(machine)
            products = state.products
            if len(products) == len(queue):
                return products
            key = state.product_key
        mtype = machine.machine_type
        for k in range(len(products), len(queue)):
            ttype = queue[k].task_type
            if key is not None:
                key = key + (ttype,)
            products.append(
                self._product_step(products[-1] if k else None, self.model.pmf(ttype, mtype), key)
            )
        if state is not None:
            state.product_key = key
            state.queued = list(queue)
        return products

    def _product_step(self, prev: _Product | None, pet: PMF, key: tuple | None) -> _Product:
        """The product entry one queue position past ``prev`` (``None``
        at the queue head, where ``Q`` is the PET itself): ``Q_prev ⊛
        pet``, replayed from the product cache under ``key`` or convolved
        by :meth:`PMF.convolve_truncated` (and stored, given a ``key``).
        Both arrays are ``None`` once a step folds or trims mass."""
        if prev is None:
            if pet.tail != 0.0:
                return pet.offset, None, None
            self.convolutions_avoided += 1
            return pet.offset, pet.probs, pet.cumulative()
        _, probs, cum = prev
        if probs is None:
            return pet.offset, None, None
        if key is not None:
            hit = self._product_cache.get(key)
            if hit is not None:
                self.convolutions_avoided += 1
                return pet.offset, hit[0], hit[1]
        self.convolutions += 1
        q = PMF._from_parts(probs, 0.0, 0.0, cum).convolve_truncated(
            pet, cutoff=math.inf, max_support=self.max_support
        )
        if q.tail != 0.0 or q.probs.size != probs.size + pet.probs.size - 1:
            return pet.offset, None, None
        if key is not None:
            self.evictions += self._product_cache.put(key, (q.probs, q.cumulative()))
        return pet.offset, q.probs, q.cumulative()

    def _availability(self, machine: Machine, now: float) -> _Availability:
        """The machine's availability ``A`` (:meth:`_build_availability`).

        Incremental mode memoizes it on the machine state under the key
        of :meth:`_memo_chances`: it depends on the queue and the base
        alone, and every new-task type reads the same ``A``.  The oracle
        builds it from scratch.
        """
        if not self.memoize:
            return self._build_availability(
                machine, self._queue_base(machine, now), self._queue_products(machine)
            )
        state = self._synced_state(machine)
        key = self._memo_key(state, machine, now)
        memo = state.avail_memo
        if memo is not None and memo[0] == key:
            self.cache_hits += 1
            self.convolutions_avoided += memo[2]
            return memo[1]
        self.cache_misses += 1
        base = _delta(now) if machine.running is None else state.base
        products = self._queue_products(machine)
        convolutions = self.convolutions
        avail = self._build_availability(machine, base, products)
        state.avail_memo = (key, avail, self.convolutions - convolutions)
        return avail

    def _build_availability(
        self, machine: Machine, base: PMF, products: list[_Product]
    ) -> _Availability:
        """Eq. 1's ``PCT(n − 1)`` of an ``n``-task queue in the factored
        form: ``A = base ⊛ Q_{n-1}``, the base itself for an empty queue
        and ``Q_{n-1}`` for an idle machine (``base`` is then a unit
        delta), convolved by :meth:`PMF.convolve_truncated` otherwise.
        The offset is summed left to right as the chain does.  The arrays
        are ``None`` when the base or product carries tail mass or the
        convolution folds or trims it: the chain answers then."""
        offset = base.offset
        for pet_offset, _, _ in products:
            offset = offset + pet_offset
        if not products:
            return (*_base_parts(base), offset)
        _, q, q_cum = products[-1]
        if machine.running is None:
            return q, q_cum, offset
        if q is None or base.tail != 0.0:
            return None, None, offset
        self.convolutions += 1
        a = PMF._from_parts(q, 0.0, 0.0, q_cum).convolve_truncated(
            base, cutoff=math.inf, max_support=self.max_support
        )
        if a.tail != 0.0 or a.probs.size != base.probs.size + q.size - 1:
            return None, None, offset
        return a.probs, a.cumulative(), offset

    def _new_task_chances(
        self, cells: Sequence[tuple[Task, Machine]], now: float
    ) -> np.ndarray:
        """Eq. 2 of each ``(task, machine)`` cell, the task appended to
        the machine's current queue.

        Each machine's availability is read once per query
        (:meth:`_availability`); a cell is then one
        :func:`_factored_cdf_at` of the availability against the PET's
        cumulative sums.  A (task type, machine) pair the factored form
        does not cover reads its from-scratch PCT (:meth:`pct_for_new`)
        once, and those cells go through one :func:`batch_cdf_at`.
        """
        out = np.empty(len(cells), dtype=np.float64)
        cutoff = now + self.horizon
        max_support = self.max_support
        pmf = self.model.pmf
        avails: dict[int, _Availability] = {}
        slots: dict[tuple[int, int], int] = {}
        pmfs: list[PMF] = []
        fallback: list[tuple[int, int, float]] = []  # (cell, slot, deadline)
        for pos, (task, machine) in enumerate(cells):
            avail = avails.get(machine.machine_id)
            if avail is None:
                avail = avails[machine.machine_id] = self._availability(machine, now)
            a, a_cum, offset = avail
            pet = pmf(task.task_type, machine.machine_type)
            q_cum = pet.cumulative() if pet.tail == 0.0 and pet.probs.size else None
            chance = _factored_cdf_at(
                a, a_cum, q_cum, offset + pet.offset, task.deadline, cutoff, max_support
            )
            if chance is None:
                pair = (task.task_type, machine.machine_id)
                slot = slots.get(pair)
                if slot is None:
                    slot = slots[pair] = len(pmfs)
                    pmfs.append(self.pct_for_new(task.task_type, machine, now))
                fallback.append((pos, slot, task.deadline))
            else:
                out[pos] = chance
        if fallback:
            where, index, deadlines = zip(*fallback)
            out[list(where)] = batch_cdf_at(pmfs, deadlines, index)
        self.chance_evaluations += len(cells)
        return out

    def chances_for(
        self, tasks: Sequence[Task], machines: Sequence[Machine], now: float
    ) -> np.ndarray:
        """Eq. 2 grid: chance of each task appended to each machine, now.

        Returns a ``(len(tasks), len(machines))`` array, deduplicated
        like every new-task query (:meth:`_new_task_chances`): an
        admission controller's or the gate scan's whole cluster scan is
        a single call.
        """
        cells = [(task, machine) for task in tasks for machine in machines]
        grid = self._new_task_chances(cells, now).reshape(len(tasks), len(machines))
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
        chances = self._new_task_chances(pairs, now)
        if self.dag is not None:
            # Planned placements are released tasks (parents completed,
            # factor 1); recording their estimates keeps dependents'
            # factors fresh between queue scans.
            for pos, (task, _machine) in enumerate(pairs):
                self.dag.note_estimate(task.task_id, float(chances[pos]))
        return chances

    # ------------------------------------------------------------------
    @property
    def invalidations(self) -> int:
        """Machine changes that invalidated memoized state: the version
        steps of each machine since the estimator first read it."""
        return self._invalidations_retired + sum(
            state.machine.version - state.version_first for state in self._states.values()
        )

    @invalidations.setter
    def invalidations(self, value: int) -> None:
        """Resume the count at ``value``.  The machine states are
        forgotten (their memos re-fill on the next query), so the count
        runs on from the machines' versions at that next read."""
        self._states.clear()
        self._invalidations_retired = value

    def cache_stats(self) -> dict[str, int]:
        """Hit/miss/invalidation/convolution counters for this estimator."""
        return {key: getattr(self, attr) for key, attr in _STATS}

    def load_cache_stats(self, stats: dict[str, int]) -> None:
        """Resume the counters of a :meth:`cache_stats` payload (snapshot
        restore)."""
        for key, attr in _STATS:
            setattr(self, attr, stats[key])
