"""Discrete probability mass functions on a unit time grid.

This module is the probabilistic substrate of the reproduction.  The paper
models the execution time of each task type on each machine type as a PMF
(Probabilistic Execution Time, PET) and derives completion-time
distributions (PCT) by convolution::

    PCT(i, j) = PET(i, j) * PCT(i-1, j)          (Eq. 1 of the paper)
    S(i, j)   = P(PCT(i, j) <= deadline_i)       (Eq. 2 of the paper)

A :class:`PMF` stores probabilities on a regular grid with unit spacing,
anchored at a (possibly fractional) ``offset``, plus an explicit ``tail``
scalar holding the mass that lies beyond the truncation horizon.  Folding
far-future mass into ``tail`` keeps supports bounded while keeping
chance-of-success values *exact*: tail mass is "certainly late" and never
counts toward :meth:`PMF.cdf_at`.

All bulk operations are vectorized NumPy (cumulative sums, and
``np.convolve`` as the one convolution kernel — the hot path phrases it
as ``np.correlate`` against a cached reversed kernel, bitwise the same);
no Python-level loops over probability bins.

PMFs are treated as immutable once constructed.  That makes two cheap
tricks safe: :meth:`PMF.shift` re-anchors a distribution *zero-copy*
(sharing the probability array of the original), and the cumulative-sum
array backing :meth:`PMF.cdf_at` is computed lazily once and shared across
shifted copies.  :func:`batch_cdf_at` evaluates many PMFs at many
deadlines over those cached cumulative arrays (one NumPy gather for a
large batch, one lookup per query for a small one).
:func:`convolved_cdf_at` reads the CDF of a sum of two distributions at
one point from their cumulative arrays, without forming the convolution
— every chance of success the estimator answers (see
``docs/architecture.md``).

Because anchors travel through chains of float additions, CDF queries
apply a relative grid-boundary tolerance (:data:`CDF_REL_EPS`): a
deadline epsilon-below a grid point counts that bin's mass, keeping
chance of success invariant under algebraically-equivalent shift chains.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "PMF",
    "DEFAULT_MAX_SUPPORT",
    "CDF_REL_EPS",
    "CDF_TOL_CAP",
    "batch_cdf_at",
    "convolved_cdf_at",
]

#: Default cap on the number of finite-support bins a convolution may
#: produce before overflow mass is folded into :attr:`PMF.tail`.
DEFAULT_MAX_SUPPORT = 4096

_EPS = 1e-12

#: Relative tolerance for grid-boundary CDF queries.  A deadline within
#: ``CDF_REL_EPS * max(1, |t|, |offset|)`` *below* a grid point counts
#: that bin's mass: anchors accumulate float error through chained
#: zero-copy :meth:`PMF.shift` re-anchoring, and without the tolerance a
#: deadline that lands epsilon short of a grid point (e.g. ``1.2999999``
#: against a bin at ``1.3``) silently loses the whole bin — enough to
#: flip a task across the pruning threshold β nondeterministically with
#: respect to algebraically identical schedules.
CDF_REL_EPS = 1e-7

#: Absolute ceiling on the grid-boundary tolerance.  The grid spacing is
#: a fixed 1 time unit, so a purely relative window would swallow whole
#: bins once simulation times reach ``1/CDF_REL_EPS``; capping at a
#: thousandth of a bin keeps the window microscopic against the grid
#: while still dwarfing accumulated shift-chain float error (~1e-16
#: relative) at any realistic clock value.
CDF_TOL_CAP = 1e-3


class PMF:
    """A discrete distribution over times ``offset + k`` (unit grid).

    Parameters
    ----------
    probs:
        Probability of each grid point, starting at ``offset``.  Trimmed of
        leading/trailing zeros on construction.
    offset:
        Time coordinate of ``probs[0]``.  Fractional offsets are allowed so
        distributions can be anchored at arbitrary simulation times; the
        grid spacing is always one time unit.
    tail:
        Probability mass at ``+inf`` — outcomes beyond the truncation
        horizon.  Always excluded from :meth:`cdf_at`.

    Invariant: ``probs.sum() + tail == 1`` (up to floating error) for a
    normalized PMF.  Construction does not force normalization (partial
    distributions are useful while building), but :meth:`normalized` and
    the ``validate`` flag are provided.
    """

    __slots__ = ("probs", "offset", "tail", "_cumsum", "_mass", "_sample_cdf", "_probs_rev")

    def __init__(
        self,
        probs: Sequence[float] | np.ndarray,
        offset: float = 0.0,
        tail: float = 0.0,
        *,
        validate: bool = False,
    ) -> None:
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"probs must be 1-D, got shape {arr.shape}")
        if tail < -_EPS:
            raise ValueError(f"tail mass must be non-negative, got {tail}")
        # Trim zero padding so supports stay tight across convolutions.
        nz = np.flatnonzero(arr > 0.0)
        if nz.size == 0:
            arr = np.zeros(0, dtype=np.float64)
        else:
            lo, hi = nz[0], nz[-1] + 1
            if lo != 0 or hi != arr.size:
                offset = offset + lo
                arr = arr[lo:hi]
        self.probs: np.ndarray = arr
        self.offset: float = float(offset)
        self.tail: float = max(float(tail), 0.0)
        self._cumsum: np.ndarray | None = None
        self._mass: float | None = None
        self._sample_cdf: np.ndarray | None = None
        self._probs_rev: np.ndarray | None = None
        if validate:
            if np.any(self.probs < -_EPS):
                raise ValueError("negative probability mass")
            total = self.total_mass
            if not math.isclose(total, 1.0, abs_tol=1e-6):
                raise ValueError(f"PMF mass {total} != 1")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_parts(
        cls,
        probs: np.ndarray,
        offset: float,
        tail: float,
        cumsum: np.ndarray | None = None,
    ) -> PMF:
        """Trusted constructor: no trimming, no validation, no copy.

        ``probs`` must already be a trimmed 1-D float64 array (typically
        taken straight from another PMF).  Used by :meth:`shift` and the
        completion estimator's cached bases and products, where the
        probability array is shared between the source and the result.
        """
        pmf = object.__new__(cls)
        pmf.probs = probs
        pmf.offset = float(offset)
        pmf.tail = tail
        pmf._cumsum = cumsum
        pmf._mass = None
        pmf._sample_cdf = None
        pmf._probs_rev = None
        return pmf

    @classmethod
    def delta(cls, t: float) -> PMF:
        """Point mass at time ``t`` (e.g. 'machine is free now')."""
        return cls(np.ones(1), offset=t)

    @classmethod
    def from_samples(
        cls,
        samples: Iterable[float] | np.ndarray,
        *,
        bin_width: float = 1.0,
        min_value: float = 0.0,
    ) -> PMF:
        """Histogram raw samples into a unit-grid PMF.

        This mirrors the paper's PET construction: "histogram on a sampling
        of 500 points from a Gamma distribution".  Samples are divided by
        ``bin_width``, floored onto the grid and clipped at ``min_value``.
        """
        arr = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples,
                         dtype=np.float64)
        if arr.size == 0:
            raise ValueError("cannot build a PMF from zero samples")
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        bins = np.floor(arr / bin_width).astype(np.int64)
        bins = np.maximum(bins, int(math.floor(min_value / bin_width)))
        lo = int(bins.min())
        counts = np.bincount(bins - lo).astype(np.float64)
        return cls(counts / counts.sum(), offset=float(lo))

    @classmethod
    def from_dict(cls, mapping: dict[float, float], tail: float = 0.0) -> PMF:
        """Build from ``{time: probability}`` with integer-spaced keys."""
        if not mapping:
            return cls(np.zeros(0), 0.0, tail)
        keys = sorted(mapping)
        lo, hi = keys[0], keys[-1]
        n = int(round(hi - lo)) + 1
        probs = np.zeros(n)
        for k, v in mapping.items():
            idx = int(round(k - lo))
            if not math.isclose(lo + idx, k, abs_tol=1e-9):
                raise ValueError(f"key {k} is not on a unit grid anchored at {lo}")
            probs[idx] += v
        return cls(probs, offset=float(lo), tail=tail)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def total_mass(self) -> float:
        """Finite mass plus tail mass (1.0 for a normalized PMF)."""
        return self.finite_mass + self.tail

    @property
    def finite_mass(self) -> float:
        """Cached lazily: PMFs are immutable, and the estimation layer's
        convolution hot path re-reads the mass of the same PET objects
        thousands of times per trial."""
        mass = self._mass
        if mass is None:
            mass = self._mass = float(self.probs.sum())
        return mass

    @property
    def support_size(self) -> int:
        return int(self.probs.size)

    @property
    def is_empty(self) -> bool:
        return self.probs.size == 0 and self.tail <= _EPS

    @property
    def min_time(self) -> float:
        """Smallest grid point carrying mass (``inf`` if only tail mass)."""
        return self.offset if self.probs.size else math.inf

    @property
    def max_time(self) -> float:
        """Largest *finite* grid point carrying mass."""
        return self.offset + self.probs.size - 1 if self.probs.size else -math.inf

    def times(self) -> np.ndarray:
        """Grid coordinates aligned with :attr:`probs`."""
        return self.offset + np.arange(self.probs.size, dtype=np.float64)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def mean(self) -> float:
        """Expected value.  ``inf`` if any tail mass exists."""
        if self.tail > _EPS:
            return math.inf
        if self.probs.size == 0:
            return math.nan
        return float(np.dot(self.times(), self.probs) / self.probs.sum())

    def finite_mean(self) -> float:
        """Mean of the finite part, conditioned on not being in the tail."""
        if self.probs.size == 0:
            return math.nan
        return float(np.dot(self.times(), self.probs) / self.probs.sum())

    def variance(self) -> float:
        if self.tail > _EPS:
            return math.inf
        m = self.mean()
        t = self.times()
        return float(np.dot((t - m) ** 2, self.probs) / self.probs.sum())

    def cumulative(self) -> np.ndarray:
        """Cached cumulative sums of :attr:`probs` (``cum[k] = P(X <= offset+k)``).

        Computed lazily once; shared zero-copy across :meth:`shift` copies
        (it depends only on the probability values, not the anchor).
        """
        cs = self._cumsum
        if cs is None:
            cs = self._cumsum = np.add.accumulate(self.probs)
        return cs

    def probs_reversed(self) -> np.ndarray:
        """Cached contiguous reversal of :attr:`probs`.

        ``np.convolve(a, b)`` is computed as ``np.correlate(a, b[::-1])``;
        handing :func:`np.correlate` a pre-reversed *contiguous* kernel
        skips the per-call reversal copy.  PET cells are convolved into
        thousands of chains per trial, so the one-time copy amortizes to
        nothing while every convolution sheds the setup cost.
        """
        rev = self._probs_rev
        if rev is None:
            rev = np.ascontiguousarray(self.probs[::-1])
            self._probs_rev = rev
        return rev

    def cdf_at(self, t: float) -> float:
        """``P(X <= t)``.  Tail mass never counts (it is beyond any t).

        Grid-boundary tolerance: a query within a relative epsilon
        *below* a grid point (``CDF_REL_EPS``, scaled by the magnitudes
        of ``t`` and the anchor) counts that bin's mass, so chance of
        success is invariant under algebraically-equivalent ``shift``
        chains whose anchors differ only by accumulated float error.
        """
        size = self.probs.size
        if size == 0:
            return 0.0
        tol = min(CDF_REL_EPS * max(1.0, abs(t), abs(self.offset)), CDF_TOL_CAP)
        x = t - self.offset + tol
        # ``floor(x) < 0`` exactly when ``x < 0``; NaN fails the test and
        # +inf takes the clamp, as in :func:`batch_cdf_at`.
        if not x >= 0.0:
            return 0.0
        k = size - 1 if x >= size - 1 else math.floor(x)
        cs = self._cumsum
        if cs is None:
            cs = self.cumulative()
        return float(cs[k])

    def sf_at(self, t: float) -> float:
        """Survival function ``P(X > t)`` including tail mass."""
        return self.total_mass - self.cdf_at(t)

    def quantile(self, q: float) -> float:
        """Smallest grid time ``t`` with ``P(X <= t) >= q``.

        Returns ``inf`` when ``q`` exceeds the finite mass (the quantile
        falls into the tail).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        cum = self.cumulative()
        idx = int(np.searchsorted(cum, q - _EPS))
        if idx >= self.probs.size:
            return math.inf
        return self.offset + idx

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def shift(self, dt: float) -> PMF:
        """Translate the distribution by ``dt`` time units (zero-copy).

        The probability array and cached cumulative sums are *shared*
        with the source PMF — re-anchoring a distribution at a new
        simulation time costs O(1).
        """
        if dt == 0.0:
            return self
        out = PMF._from_parts(self.probs, self.offset + dt, self.tail, self._cumsum)
        out._mass = self._mass  # same probability array, same mass
        return out

    def normalized(self) -> PMF:
        total = self.total_mass
        if total <= _EPS:
            raise ValueError("cannot normalize a zero-mass PMF")
        return PMF(self.probs / total, self.offset, self.tail / total)

    def truncate(self, horizon: float) -> PMF:
        """Fold all mass at grid points > ``horizon`` into the tail."""
        if self.probs.size == 0 or self.max_time <= horizon:
            return self
        keep = int(math.floor(horizon - self.offset)) + 1
        if keep <= 0:
            return PMF(np.zeros(0), self.offset, self.total_mass)
        overflow = float(self.probs[keep:].sum())
        return PMF(self.probs[:keep], self.offset, self.tail + overflow)

    def condition_at_least(self, t: float) -> PMF:
        """Condition on ``X >= t`` (used for already-running tasks).

        A task observed still running at time ``t`` cannot complete before
        ``t``; the scheduler's belief is the original completion PCT with
        mass below ``t`` removed and the remainder renormalized.  If no
        mass remains at or after ``t`` the belief collapses to completion
        "immediately", i.e. a delta at ``t``.
        """
        if self.probs.size == 0:
            return PMF.delta(t) if self.tail <= _EPS else self
        cut = int(math.ceil(t - self.offset))
        if cut <= 0:
            return self
        if cut >= self.probs.size:
            if self.tail > _EPS:
                return PMF(np.zeros(0), t, 1.0)
            return PMF.delta(t)
        kept = self.probs[cut:]
        total = float(kept.sum()) + self.tail
        if total <= _EPS:
            return PMF.delta(t)
        return PMF(kept / total, self.offset + cut, self.tail / total)

    # ------------------------------------------------------------------
    # Convolution (Eq. 1)
    # ------------------------------------------------------------------
    def convolve(self, other: PMF, max_support: int = DEFAULT_MAX_SUPPORT) -> PMF:
        """Distribution of the sum ``X + Y`` of independent variables.

        Tail mass is absorbing: any outcome involving a tail term is a
        tail outcome, so ``tail_out = 1 - (1 - tail_x) * (1 - tail_y)``
        scaled by the respective finite masses.  If the finite convolution
        exceeds ``max_support`` bins, the overflow is folded into the tail
        (it only ever *under*-states chance of success, never overstates).
        """
        fx, fy = self.finite_mass, other.finite_mass
        # Mass that ends in the tail because either operand was tail.
        tail = self.total_mass * other.total_mass - fx * fy
        if self.probs.size == 0 or other.probs.size == 0:
            return PMF(np.zeros(0), self.offset + other.offset, tail)
        if self.probs.size == 1 and other.probs.size >= 1:
            probs = other.probs * float(self.probs[0])
        elif other.probs.size == 1:
            probs = self.probs * float(other.probs[0])
        else:
            probs = np.convolve(self.probs, other.probs)
        out = PMF(probs, self.offset + other.offset, tail)
        if out.probs.size > max_support:
            overflow = float(out.probs[max_support:].sum())
            out = PMF(out.probs[:max_support], out.offset, out.tail + overflow)
        return out

    def __mul__(self, other: object) -> PMF:
        """``a * b`` is convolution, mirroring the paper's Eq. 1 notation."""
        if not isinstance(other, PMF):
            return NotImplemented
        return self.convolve(other)

    def convolve_truncated(
        self,
        other: PMF,
        *,
        cutoff: float,
        max_support: int = DEFAULT_MAX_SUPPORT,
    ) -> PMF:
        """``(self ⊛ other).truncate(cutoff)`` without intermediate objects.

        Value-identical (bit-for-bit) to :meth:`convolve` followed by
        :meth:`truncate`, but built for the estimation layer's hot path:
        no intermediate PMF is constructed, trimming is replaced by O(1)
        endpoint checks (the convolution of trimmed, non-negative inputs
        can only need trimming when an endpoint product underflows to
        zero — in that rare case this falls back to the reference path),
        and two tail-free operands skip the finite-mass sums, since the
        reference tail ``(fx + 0) * (fy + 0) - fx * fy`` is exactly 0.0.
        """
        sp, op = self.probs, other.probs
        if self.tail == 0.0 and other.tail == 0.0:
            tail = 0.0
        else:
            fx, fy = self.finite_mass, other.finite_mass
            tail = (fx + self.tail) * (fy + other.tail) - fx * fy
        if sp.size == 0 or op.size == 0:
            return PMF(np.zeros(0), self.offset + other.offset, tail)
        if tail < 0.0:
            tail = 0.0  # the reference path's constructor clamp
        if sp.size == 1:
            probs = op * float(sp[0])
        elif op.size == 1:
            probs = sp * float(op[0])
        elif sp.size >= op.size:
            # Phrased as a correlation against the cached reversed kernel —
            # bit-identical to ``np.convolve(sp, op)`` (correlate with a
            # reversed kernel *is* convolution; numpy runs the same
            # dot-product loop) but without re-reversing ``other`` on
            # every call.  ``other`` is the PET in every chain append, so
            # its reversal is reused thousands of times.  Only taken when
            # the signal is at least kernel-length: ``np.correlate`` swaps
            # shorter-signal operands internally, changing summation order
            # (and hence the last ulp).
            probs = np.correlate(sp, other.probs_reversed(), "full")
        else:
            probs = np.convolve(sp, op)
        offset = self.offset + other.offset
        if probs[0] == 0.0 or probs[-1] == 0.0:
            # Endpoint underflow: defer to the trimming constructor so the
            # result stays bit-identical to the reference path.
            out = PMF(probs, offset, tail)
            if out.probs.size > max_support:
                overflow = float(out.probs[max_support:].sum())
                out = PMF(out.probs[:max_support], out.offset, out.tail + overflow)
            return out.truncate(cutoff)
        return _finish_conv(probs, offset, tail, cutoff, max_support)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        """Draw outcomes from the finite part (tail outcomes map to inf).

        Inverse-CDF sampling replaying ``Generator.choice``'s exact
        algorithm (normalized cumsum + one uniform + right-bisect), so
        the random stream and every drawn value are identical to the
        original ``rng.choice(..., p=...)`` call — but the CDF is built
        once per (immutable) PMF instead of on every draw.  PET cells
        are sampled thousands of times per trial, so this takes the
        per-draw cost from rebuilding two arrays to one uniform draw.
        """
        total = self.total_mass
        if total <= _EPS:
            raise ValueError("cannot sample a zero-mass PMF")
        cdf = self._sample_cdf
        if cdf is None:
            # Exactly choice()'s preprocessing of p = [probs, tail]/total.
            p = np.concatenate([self.probs, [self.tail]]) / total
            cdf = p.cumsum()
            cdf /= cdf[-1]
            self._sample_cdf = cdf
        n = 1 if size is None else size
        idx = cdf.searchsorted(rng.random(size=n), side="right")
        vals = np.where(idx < self.probs.size, self.offset + idx, np.inf)
        return float(vals[0]) if size is None else vals

    # ------------------------------------------------------------------
    # Comparison / repr
    # ------------------------------------------------------------------
    def allclose(self, other: PMF, atol: float = 1e-9) -> bool:
        if abs(self.tail - other.tail) > atol:
            return False
        if self.probs.size == 0 and other.probs.size == 0:
            return True
        if self.probs.size == 0 or other.probs.size == 0:
            return False
        if abs(self.offset - other.offset) > atol:
            return False
        if self.probs.size != other.probs.size:
            return False
        return bool(np.allclose(self.probs, other.probs, atol=atol))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PMF(offset={self.offset:g}, support={self.support_size}, "
            f"mass={self.finite_mass:.6f}, tail={self.tail:.6f})"
        )


def _finish_conv(
    probs: np.ndarray,
    offset: float,
    tail: float,
    cutoff: float,
    max_support: int,
) -> PMF:
    """Shared finishing half of :meth:`PMF.convolve_truncated`.

    Takes a raw, endpoint-positive convolution product and applies the
    max-support fold and the cutoff truncation — exactly the arithmetic
    the hot path performs inline.  Split out so the estimator's product
    cache can replay a memoized convolution product through the *same*
    code and stay bit-identical to the uncached computation.
    """
    size = probs.size
    if size <= max_support and offset + size - 1 <= cutoff:
        return PMF._from_parts(probs, offset, tail)
    if size > max_support:
        tail = tail + float(probs[max_support:].sum())
        probs = probs[:max_support]
        if probs[-1] == 0.0:
            return PMF(probs, offset, tail).truncate(cutoff)
    if offset + probs.size - 1 > cutoff:
        keep = int(math.floor(cutoff - offset)) + 1
        if keep <= 0:
            return PMF(np.zeros(0), offset, tail + float(probs.sum()))
        tail = tail + float(probs[keep:].sum())
        probs = probs[:keep]
        if probs[-1] == 0.0:
            return PMF(probs, offset, tail)
    return PMF._from_parts(probs, offset, tail)


def convolved_cdf_at(
    b: np.ndarray, b_cum: np.ndarray, q_cum: np.ndarray, k: int
) -> float:
    """``P(X + Y <= k)`` for independent grid variables anchored at 0,
    without forming their convolution.

    ``X`` is given by its probabilities ``b`` and their cumulative sums
    ``b_cum``, ``Y`` by its cumulative sums ``q_cum``; ``k >= 0`` is a
    grid index.  Conditioning on ``X = j`` gives
    ``Σ_j b[j] · F_Y(k − j)``: every ``j`` with ``k − j`` past ``Y``'s
    support contributes ``F_Y``'s full mass, which sums to one head
    term ``q_cum[-1] · b_cum[a − 1]``; the rest is one dot product of a
    slice of ``b`` with a reversed slice of ``q_cum``.  Mathematically
    the cumulative sum of ``b ⊛ q`` at ``k`` (the chain's
    :meth:`PMF.cdf_at` value); the float association differs, so the
    two agree to a few ulps rather than bitwise.
    """
    nb = b.size
    a = k - q_cum.size + 2  # j < a: Y's whole mass lies at or below k - j
    head = 0.0
    if a > 0:
        if a >= nb:
            return float(q_cum[-1] * b_cum[-1])
        head = q_cum[-1] * b_cum[a - 1]
    else:
        a = 0
    hi = k if k < nb else nb - 1
    return float(head + b[a : hi + 1].dot(q_cum[k - hi : k - a + 1][::-1]))


#: Largest batch :func:`batch_cdf_at` answers with per-query
#: :meth:`PMF.cdf_at` calls.  The flat gather costs ~35 µs before its
#: first query and ~0.7 µs per query after; a scalar query costs
#: ~1.5 µs, so the two break even near 30 queries (2-vCPU Xeon, NumPy
#: 2.4, PMFs of 60–250 bins).  Half that keeps the scalar path a clear
#: win.  The allocator's defer check asks about 2 queries per round.
_SCALAR_BATCH_MAX = 16


def batch_cdf_at(
    pmfs: Sequence[PMF],
    times: float | Sequence[float] | np.ndarray,
    index: Sequence[int] | np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate ``pmfs[i].cdf_at(times[i])`` for all ``i``.

    ``times`` may be a scalar (broadcast to every PMF) or a sequence of the
    same length as ``pmfs``.  Returns a float64 array of chances.

    ``index`` (optional) decouples queries from distributions: when given,
    query ``i`` evaluates ``pmfs[index[i]].cdf_at(times[i])``, so a grid of
    N queries over M << N *distinct* PMFs gathers each cumulative array
    once — the substrate of the estimator's deduplicated cluster-wide
    chance queries.

    A large batch gathers each PMF's cached :meth:`PMF.cumulative` array
    into one flat buffer and answers every query with a single fancy-index
    operation, so a pruner scan over hundreds of (task, machine) pairs
    costs one vector op instead of hundreds of Python-level partial sums.
    Values are identical to per-PMF :meth:`PMF.cdf_at` calls (both read the
    same cumulative arrays), including the ``CDF_REL_EPS`` grid-boundary
    tolerance: deadlines within a relative epsilon below a grid point
    count that bin's mass.

    Batches of at most :data:`_SCALAR_BATCH_MAX` queries skip the gather
    and call :meth:`PMF.cdf_at` per query: the same values, without the
    gather's fixed cost.
    """
    m = len(pmfs)
    n = m if index is None else len(index)
    if n == 0 or m == 0:
        return np.zeros(n, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if times.shape != (n,):
        times = np.broadcast_to(times, (n,))
    if n <= _SCALAR_BATCH_MAX:
        return _scalar_cdf_at(pmfs, times, index)
    return _gather_cdf_at(pmfs, times, index)


def _scalar_cdf_at(
    pmfs: Sequence[PMF], times: np.ndarray, index: Sequence[int] | np.ndarray | None
) -> np.ndarray:
    """Small-batch :func:`batch_cdf_at`: one :meth:`PMF.cdf_at` per query."""
    if index is None:
        chosen: Iterable[PMF] = pmfs
    else:
        chosen = [pmfs[i] for i in np.asarray(index, dtype=np.int64).tolist()]
    return np.array(
        [p.cdf_at(t) for p, t in zip(chosen, times.tolist())], dtype=np.float64
    )


def _gather_cdf_at(
    pmfs: Sequence[PMF],
    times: np.ndarray,
    index: Sequence[int] | np.ndarray | None,
) -> np.ndarray:
    """Large-batch :func:`batch_cdf_at`: one fancy index into the
    concatenated cumulative arrays."""
    m = len(pmfs)
    n = times.size
    out = np.zeros(n, dtype=np.float64)
    lens = np.fromiter((p.probs.size for p in pmfs), dtype=np.int64, count=m)
    offs = np.fromiter((p.offset for p in pmfs), dtype=np.float64, count=m)
    starts = np.cumsum(lens) - lens
    if index is not None:
        index = np.asarray(index, dtype=np.int64)
        lens = lens[index]
        offs = offs[index]
        starts = starts[index]
    tol = np.minimum(
        CDF_REL_EPS * np.maximum(1.0, np.maximum(np.abs(times), np.abs(offs))),
        CDF_TOL_CAP,
    )
    k = np.floor(times - offs + tol)
    valid = (k >= 0) & (lens > 0)
    if not valid.any():
        return out
    k = np.minimum(k, lens - 1).astype(np.int64)
    flat = np.concatenate([p.cumulative() for p in pmfs if p.probs.size])
    out[valid] = flat[(starts + k)[valid]]
    return out
