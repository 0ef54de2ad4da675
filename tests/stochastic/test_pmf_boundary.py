"""Grid-boundary CDF tolerance and the fused convolve.

The ISSUE-4 bug class: anchors travel through chains of float additions
(zero-copy ``shift`` re-anchoring), so a deadline that is *algebraically*
on a grid point can land epsilon below it — and the pre-fix floor-indexed
CDF then silently dropped the whole bin, flipping tasks across the
pruning threshold β.  These tests pin the repro from the issue, the
relative-epsilon semantics on both scalar and batched queries, and the
bit-identity of the allocation-lean ``convolve_truncated`` hot path —
its tail-free and no-fold fast paths, the product-cache replay through
``_finish_conv``, and the ``np.correlate`` ≡ ``np.convolve`` identity it
relies on.
"""


import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.stochastic.pmf import DEFAULT_MAX_SUPPORT, PMF, _finish_conv, batch_cdf_at


class TestGridBoundaryTolerance:
    def test_issue_repro(self):
        """The exact repro from the issue: 1.2999999 vs the bin at 1.3."""
        p = PMF([0.5, 0.5], offset=0.3)
        assert p.cdf_at(1.2999999) == 1.0
        assert p.cdf_at(1.3) == 1.0

    def test_far_below_grid_point_still_excluded(self):
        p = PMF([0.5, 0.5], offset=0.3)
        assert p.cdf_at(1.2) == 0.5
        assert p.cdf_at(0.2) == 0.0

    def test_tolerance_is_relative(self):
        # At t ~ 1000 the absolute window is ~1000x wider than at t ~ 1.
        p = PMF([1.0], offset=1000.0)
        assert p.cdf_at(1000.0 - 5e-5) == 1.0  # within 1e-7 * 1000
        assert p.cdf_at(1000.0 - 1e-3) == 0.0  # outside

    def test_tolerance_capped_at_fraction_of_grid_unit(self):
        """The relative window must never swallow a bin: the grid spacing
        is a fixed 1 time unit, so at large clock values the tolerance
        saturates at ``CDF_TOL_CAP`` instead of growing with ``t``."""
        p = PMF([1.0], offset=1e7)
        assert p.cdf_at(1e7 - 0.9) == 0.0   # a relative-only window would say 1.0
        assert p.cdf_at(1e7 - 0.01) == 0.0
        assert p.cdf_at(1e7 - 1e-4) == 1.0  # inside the capped window
        q = PMF([0.5, 0.5], offset=1e6)
        assert q.cdf_at(1e6 + 0.95) == 0.5
        got = batch_cdf_at([p, p, q], [1e7 - 0.9, 1e7 - 1e-4, 1e6 + 0.95])
        assert got.tolist() == [0.0, 1.0, 0.5]

    def test_epsilon_above_grid_point_unchanged(self):
        """The tolerance only reaches *down*: nudging a deadline up must
        never lose the bin it already counted."""
        p = PMF([0.5, 0.5], offset=0.3)
        assert p.cdf_at(1.3 + 1e-9) == 1.0
        assert p.cdf_at(0.3 + 1e-9) == 0.5

    def test_batch_matches_scalar_at_boundaries(self):
        p = PMF([0.5, 0.5], offset=0.3)
        times = [1.2999999, 1.3, 1.2, 0.3, 0.29999995, 0.2, -1.0]
        got = batch_cdf_at([p] * len(times), times)
        want = [p.cdf_at(t) for t in times]
        assert got.tolist() == want
        assert got.tolist() == [1.0, 1.0, 0.5, 0.5, 0.5, 0.0, 0.0]

    def test_batch_exact_grid_points(self):
        """Deadlines exactly on grid points count their bin, shifted or not."""
        base = PMF([0.25, 0.25, 0.5], offset=2.0)
        shifted = base.shift(0.3).shift(0.7)  # anchor ~3.0 via float adds
        got = batch_cdf_at(
            [base, base, base, shifted], [2.0, 3.0, 4.0, shifted.offset + 1.0]
        )
        assert got.tolist() == [0.25, 0.5, 1.0, 0.5]

    def test_shared_cumulative_array_sees_tolerance(self):
        """Shifted copies share one cumulative array; the tolerance is in
        the index computation so every sharer gets boundary-safe answers."""
        p = PMF([0.5, 0.5], offset=0.0)
        cum = p.cumulative()
        q = p.shift(0.1).shift(0.2)  # anchor 0.1 + 0.2 via float adds
        assert q.cumulative() is cum
        assert q.cdf_at(p.offset + 0.1 + 0.2 + 1.0) == 1.0
        assert q.cdf_at(0.3 + 1.0 - 5e-8) == 1.0

    def test_chance_of_success_invariant_under_equivalent_shifts(self):
        """shift(0.3).shift(0.1) and shift(0.4) answer identically even
        though their anchors differ by float error."""
        p = PMF([0.2, 0.3, 0.5], offset=1.0)
        a = p.shift(0.3).shift(0.1)
        b = p.shift(0.4)
        for k in range(3):
            t = 1.4 + k
            assert a.cdf_at(t) == b.cdf_at(t)

    def test_quantile_roundtrip_through_boundary(self):
        p = PMF([0.5, 0.5], offset=0.3)
        t = p.quantile(0.5)
        assert p.cdf_at(t) >= 0.5


class TestConvolveTruncated:
    def _random_pmf(self, rng, tail_ok=True):
        probs = rng.random(int(rng.integers(1, 40)))
        tail = float(rng.random() * 0.2) if tail_ok and rng.random() < 0.4 else 0.0
        return PMF(probs / (probs.sum() + tail), offset=float(rng.normal() * 3), tail=tail)

    def test_bit_identical_to_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a = self._random_pmf(rng)
            b = self._random_pmf(rng)
            cutoff = float(rng.normal() * 20 + 10)
            max_support = int(rng.integers(4, 64))
            ref = a.convolve(b, max_support=max_support).truncate(cutoff)
            got = a.convolve_truncated(b, cutoff=cutoff, max_support=max_support)
            assert got.offset == ref.offset
            assert got.tail == ref.tail
            assert np.array_equal(got.probs, ref.probs)
            assert np.array_equal(got.cumulative(), ref.cumulative())

    def test_empty_operand(self):
        empty = PMF(np.zeros(0), 0.0, 1.0)
        p = PMF([1.0], offset=2.0)
        got = p.convolve_truncated(empty, cutoff=100.0)
        ref = p.convolve(empty).truncate(100.0)
        assert got.tail == ref.tail and got.probs.size == 0

    def test_everything_beyond_cutoff(self):
        a = PMF([0.5, 0.5], offset=10.0)
        b = PMF([1.0], offset=10.0)
        got = a.convolve_truncated(b, cutoff=5.0)
        ref = a.convolve(b).truncate(5.0)
        assert got.probs.size == 0 and got.tail == ref.tail

    def test_works_without_arena(self):
        a = PMF([0.5, 0.5])
        b = PMF([0.5, 0.5])
        got = a.convolve_truncated(b, cutoff=100.0)
        assert got.allclose(a.convolve(b), atol=0.0)


# ----------------------------------------------------------------------
# The correlate fast-path invariant (PMF.convolve_truncated)
# ----------------------------------------------------------------------
@st.composite
def prob_arrays(draw, min_size=1, max_size=64):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    weights = draw(
        st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        ).filter(lambda w: sum(w) > 1e-6)
    )
    arr = np.asarray(weights, dtype=np.float64)
    return arr / arr.sum()


@st.composite
def pmfs(draw, max_support=12):
    # Weights exactly-zero-or->=1e-6 so endpoint products never underflow
    # (underflow would legitimately trim the support and change shapes).
    arr = draw(prob_arrays(max_size=max_support))
    offset = draw(st.integers(min_value=-5, max_value=30))
    tail_frac = draw(st.floats(min_value=0.0, max_value=0.5))
    return PMF(arr * (1.0 - tail_frac), offset=float(offset), tail=tail_frac)


@given(prob_arrays(min_size=2), prob_arrays(min_size=2))
def test_correlate_is_bitwise_convolve_when_signal_at_least_kernel(a, b):
    """``convolve_truncated`` phrases the direct path as a correlation
    against the cached reversed PET — valid only for a.size >= b.size
    (numpy swaps shorter-signal operands internally, changing summation
    order and hence the last ulp).  Pinned so a numpy upgrade that
    breaks it fails loudly."""
    if a.size < b.size:
        a, b = b, a
    via_correlate = np.correlate(a, np.ascontiguousarray(b[::-1]), "full")
    assert np.array_equal(via_correlate, np.convolve(a, b))


@given(pmfs(), pmfs(), st.floats(min_value=0.0, max_value=80.0))
@example(PMF([0.2, 0.3, 0.5], offset=1.0), PMF(np.full(7, 1 / 7), offset=2.0), 6.0)
def test_convolve_truncated_bitwise_equals_reference(a, b, cutoff):
    """The fused hot path must be bit-identical to convolve-then-truncate
    in both operand orders, so draws with distinct supports exercise both
    arms: signal >= kernel (cached-reversed correlate) and signal < kernel
    (plain ``np.convolve``)."""
    for x, y in ((a, b), (b, a)):
        ref = x.convolve(y).truncate(cutoff)
        out = x.convolve_truncated(y, cutoff=cutoff)
        assert np.array_equal(out.probs, ref.probs)
        assert out.offset == ref.offset
        assert out.tail == ref.tail


# ----------------------------------------------------------------------
# Fast paths of one chain step (tail-free operands, no fold/truncation)
# ----------------------------------------------------------------------
_TAILS = ("neither", "left", "right", "both")


@st.composite
def conv_cases(draw, tails=st.sampled_from(_TAILS), min_size=1):
    """``(a, b, cutoff, max_support)`` aimed at the fast-path boundaries:
    the tail pattern of the operands, a ``max_support`` equal to or one
    short of the raw product size, and a cutoff landing exactly on the
    product's last bin."""
    pattern = draw(tails)

    def operand(with_tail):
        arr = draw(prob_arrays(min_size=min_size, max_size=24))
        offset = draw(st.integers(min_value=-5, max_value=30)) + draw(
            st.sampled_from([0.0, 0.25, 0.5])
        )
        tail = draw(st.floats(min_value=1e-3, max_value=0.5)) if with_tail else 0.0
        return PMF(arr * (1.0 - tail), offset=offset, tail=tail)

    a = operand(pattern in ("left", "both"))
    b = operand(pattern in ("right", "both"))
    full = a.support_size + b.support_size - 1
    max_support = max(
        1,
        draw(
            st.sampled_from([full, full - 1, DEFAULT_MAX_SUPPORT])
            | st.integers(min_value=1, max_value=full + 1)
        ),
    )
    end = a.offset + b.offset + min(full, max_support) - 1
    cutoff = draw(
        st.sampled_from([end, end - 1.0, end + 0.5, math.inf])
        | st.floats(min_value=-10.0, max_value=100.0)
    )
    return a, b, cutoff, max_support


def _edge_case(tails, support_delta, at_end):
    """One named boundary: both operands of 5 and 4 bins, the given tail
    pattern, ``max_support = size - support_delta`` and a cutoff either
    exactly on the last kept bin or two bins before it."""
    ta = 0.125 if tails in ("left", "both") else 0.0
    tb = 0.25 if tails in ("right", "both") else 0.0
    a = PMF(np.array([0.1, 0.2, 0.3, 0.2, 0.2]) * (1.0 - ta), offset=1.5, tail=ta)
    b = PMF(np.array([0.4, 0.3, 0.2, 0.1]) * (1.0 - tb), offset=2.0, tail=tb)
    max_support = 8 - support_delta
    end = a.offset + b.offset + min(8, max_support) - 1
    return a, b, end if at_end else end - 2.0, max_support


def _assert_bitwise(out, ref):
    assert out.probs.tobytes() == ref.probs.tobytes()
    assert out.offset.hex() == ref.offset.hex()
    assert float(out.tail).hex() == float(ref.tail).hex()
    assert out.cumulative().tobytes() == ref.cumulative().tobytes()
    # ``cumulative`` is ``np.add.accumulate``: bitwise ``np.cumsum``.
    assert ref.cumulative().tobytes() == np.cumsum(ref.probs).tobytes()


_EDGE_EXAMPLES = [
    _edge_case(tails, delta, at_end)
    for tails in _TAILS
    for delta in (0, 1)  # size == max_support, size == max_support + 1
    for at_end in (True, False)
]


def _with_examples(cases):
    def wrap(fn):
        for case in cases:
            fn = example(case)(fn)
        return fn

    return wrap


@_with_examples(_EDGE_EXAMPLES)
@given(conv_cases())
def test_convolve_truncated_fast_paths_bitwise(case):
    """``convolve_truncated`` ≡ ``convolve(...).truncate(...)`` bitwise in
    ``probs``, ``offset``, ``tail`` and ``cumulative()`` across every tail
    pattern (the tail-free arm skips the finite-mass sums), and at the
    fold/truncation boundaries where ``_finish_conv`` returns at once."""
    a, b, cutoff, max_support = case
    for x, y in ((a, b), (b, a)):
        ref = x.convolve(y, max_support=max_support).truncate(cutoff)
        out = x.convolve_truncated(y, cutoff=cutoff, max_support=max_support)
        _assert_bitwise(out, ref)


@_with_examples([c for c in _EDGE_EXAMPLES if c[0].tail == c[1].tail == 0.0])
@given(conv_cases(tails=st.just("neither"), min_size=2))
def test_product_cache_replay_bitwise(case):
    """The estimator's product-cache replay: a stored full product
    re-finished by ``_finish_conv`` at a new cutoff (or reused with its
    stored cumulative sums when the cutoff keeps it whole) equals the
    uncached reference bitwise."""
    a, b, cutoff, max_support = case
    stored = a.convolve_truncated(b, cutoff=math.inf)
    assert stored.support_size == a.support_size + b.support_size - 1
    probs, cumsum = stored.probs, stored.cumulative()
    offset = a.offset + b.offset
    ref = a.convolve(b, max_support=max_support).truncate(cutoff)
    _assert_bitwise(_finish_conv(probs, offset, 0.0, cutoff, max_support), ref)
    if offset + probs.size - 1 <= cutoff and probs.size <= max_support:
        _assert_bitwise(PMF._from_parts(probs, offset, 0.0, cumsum), ref)
