"""Property-based tests (hypothesis) for PMF invariants.

The pruning mechanism's correctness rests on these algebraic facts: mass
is conserved by every operation, convolution adds means and offsets, CDFs
are monotone, and tail mass only ever grows (pessimism is one-sided).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stochastic import pmf as pmf_mod
from repro.stochastic.pmf import CDF_REL_EPS, CDF_TOL_CAP, PMF, batch_cdf_at

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def pmfs(draw, max_support=12, allow_tail=True):
    n = draw(st.integers(min_value=1, max_value=max_support))
    weights = draw(
        st.lists(
            # Weights are either exactly zero or >= 1e-6 so that products
            # of boundary probabilities never underflow to zero (which
            # would legitimately trim the support).
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        ).filter(lambda w: sum(w) > 1e-6)
    )
    offset = draw(st.integers(min_value=-5, max_value=30))
    tail_frac = draw(st.floats(min_value=0.0, max_value=0.5)) if allow_tail else 0.0
    arr = np.asarray(weights, dtype=np.float64)
    finite = arr / arr.sum() * (1.0 - tail_frac)
    return PMF(finite, offset=float(offset), tail=tail_frac)


normalized_pmfs = pmfs()
tailless_pmfs = pmfs(allow_tail=False)


# ----------------------------------------------------------------------
# Mass conservation
# ----------------------------------------------------------------------
@given(normalized_pmfs, normalized_pmfs)
def test_convolve_conserves_mass(a, b):
    c = a.convolve(b)
    assert math.isclose(c.total_mass, a.total_mass * b.total_mass, abs_tol=1e-9)


@given(normalized_pmfs, st.floats(min_value=-10, max_value=60))
def test_truncate_conserves_mass(p, horizon):
    q = p.truncate(horizon)
    assert math.isclose(q.total_mass, p.total_mass, abs_tol=1e-9)


@given(normalized_pmfs, st.integers(min_value=2, max_value=8))
def test_convolve_max_support_conserves_mass(p, cap):
    q = p.convolve(p, max_support=cap)
    assert q.support_size <= cap
    assert math.isclose(q.total_mass, p.total_mass**2, abs_tol=1e-9)


@given(normalized_pmfs, st.floats(min_value=-20, max_value=50))
def test_condition_at_least_normalizes(p, t):
    q = p.condition_at_least(t)
    assert math.isclose(q.total_mass, 1.0, abs_tol=1e-9)
    # float tolerance: ceil(t - offset) may keep a grid point an ulp below t
    assert q.min_time >= t - 1e-9 or q.support_size == 0


# ----------------------------------------------------------------------
# Convolution algebra
# ----------------------------------------------------------------------
@given(tailless_pmfs, tailless_pmfs)
def test_convolve_adds_means(a, b):
    assert math.isclose(a.convolve(b).mean(), a.mean() + b.mean(), abs_tol=1e-6)


@given(tailless_pmfs, tailless_pmfs)
def test_convolve_adds_min_times(a, b):
    c = a.convolve(b)
    assert math.isclose(c.min_time, a.min_time + b.min_time, abs_tol=1e-9)


@given(normalized_pmfs, normalized_pmfs)
def test_convolve_commutes(a, b):
    assert a.convolve(b).allclose(b.convolve(a), atol=1e-9)


@settings(deadline=None)
@given(pmfs(max_support=6), pmfs(max_support=6), pmfs(max_support=6))
def test_convolve_associates(a, b, c):
    left = a.convolve(b).convolve(c)
    right = a.convolve(b.convolve(c))
    assert left.allclose(right, atol=1e-9)


@given(tailless_pmfs, tailless_pmfs)
def test_convolve_adds_variances(a, b):
    c = a.convolve(b)
    assert math.isclose(c.variance(), a.variance() + b.variance(), abs_tol=1e-6)


@given(normalized_pmfs, st.floats(min_value=-10, max_value=10))
def test_delta_convolution_is_shift(p, t):
    assert p.convolve(PMF.delta(t)).allclose(p.shift(t), atol=1e-12)


# ----------------------------------------------------------------------
# CDF behaviour
# ----------------------------------------------------------------------
@given(normalized_pmfs, st.floats(min_value=-20, max_value=80), st.floats(min_value=0, max_value=20))
def test_cdf_monotone(p, t, dt):
    assert p.cdf_at(t + dt) >= p.cdf_at(t) - 1e-12


@given(normalized_pmfs)
def test_cdf_bounded_by_finite_mass(p):
    assert p.cdf_at(1e9) <= p.finite_mass + 1e-12
    assert p.cdf_at(-1e9) == 0.0


@given(normalized_pmfs, st.floats(min_value=-20, max_value=80))
def test_cdf_plus_sf_is_total_mass(p, t):
    assert math.isclose(p.cdf_at(t) + p.sf_at(t), p.total_mass, abs_tol=1e-9)


@given(normalized_pmfs, st.floats(min_value=-10, max_value=60), st.floats(min_value=-20, max_value=80))
def test_truncation_is_one_sided_pessimism(p, horizon, t):
    """Truncation can only *reduce* a chance of success, never raise it —
    the property that makes bounded supports safe for pruning decisions."""
    q = p.truncate(horizon)
    assert q.cdf_at(t) <= p.cdf_at(t) + 1e-12


@given(tailless_pmfs)
def test_quantile_inverts_cdf(p):
    for q in (0.1, 0.5, 0.9):
        t = p.quantile(q)
        assert p.cdf_at(t) >= q - 1e-9


# ----------------------------------------------------------------------
# Histogram construction
# ----------------------------------------------------------------------
@given(
    st.lists(st.floats(min_value=0.1, max_value=500.0), min_size=1, max_size=200),
)
def test_from_samples_mass_and_support(samples):
    p = PMF.from_samples(samples)
    assert math.isclose(p.total_mass, 1.0, abs_tol=1e-9)
    assert p.min_time >= math.floor(min(samples))
    assert p.max_time <= math.floor(max(samples))


# ----------------------------------------------------------------------
# Grid-boundary tolerance: shift-chain invariance
# ----------------------------------------------------------------------
@given(
    normalized_pmfs,
    st.lists(
        st.floats(min_value=-8.0, max_value=8.0, allow_nan=False), min_size=1, max_size=6
    ),
    st.integers(min_value=-2, max_value=40),
)
def test_chance_invariant_under_equivalent_shift_chains(p, deltas, k):
    """Chance of success is invariant under algebraically-equivalent
    ``shift`` chains: applying the deltas one by one accumulates float
    error in the anchor, applying their (sequential) sum does not — yet
    grid-point queries must answer identically, because the pruning
    threshold comparison may not depend on how a PMF reached its anchor.
    """
    chained = p
    total = 0.0
    for d in deltas:
        chained = chained.shift(d)
        total += d
    direct = p.shift(total)
    # Probe on the chained anchor's grid and on the direct anchor's grid;
    # both views of the same algebraic distribution must agree.
    for t in (chained.offset + k, direct.offset + k):
        assert chained.cdf_at(t) == direct.cdf_at(t)
        assert chained.sf_at(t) == direct.sf_at(t)
    got = batch_cdf_at([chained, direct], [chained.offset + k, direct.offset + k])
    assert got[0] == got[1]


@given(st.floats(min_value=0.0, max_value=1000.0))
def test_delta_cdf_step(t):
    """The step is sharp *outside* the grid-boundary tolerance: queries
    within ``CDF_REL_EPS`` (relative) below the grid point count the bin
    (anchor float error must not flip chances), anything farther does
    not."""
    d = PMF.delta(t)
    assert d.cdf_at(t) == 1.0
    assert d.cdf_at(t - 1e-3) == 0.0
    assert d.cdf_at(t - 0.5 * CDF_REL_EPS * max(1.0, t)) == 1.0


# ----------------------------------------------------------------------
# batch_cdf_at: the small-batch path equals the flat gather bitwise
# ----------------------------------------------------------------------
_EMPTY = PMF.from_dict({}, tail=1.0)


@st.composite
def cdf_queries(draw):
    """A PMF pool, an optional ``index`` (with repeats) and deadlines.

    Each deadline sits near its PMF's grid: below it (``k < 0``), past
    it (``k >= len``), on a grid point, inside or just outside the
    ``CDF_REL_EPS`` window below one — at clock magnitudes where the
    absolute cap applies too — or anywhere.  ``times`` is either one
    scalar broadcast to every query or one float per query.
    """
    magnitude = draw(st.sampled_from([0.0, 1e3, 1e6, 1e8]))
    pool = [
        p.shift(magnitude)
        for p in draw(st.lists(st.one_of(pmfs(max_support=8), st.just(_EMPTY)), min_size=1, max_size=6))
    ]
    n = draw(st.integers(min_value=1, max_value=2 * pmf_mod._SCALAR_BATCH_MAX + 4))
    if draw(st.booleans()):
        index = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        chosen = [pool[i] for i in index]
    else:
        index = None
        pool = [pool[i % len(pool)] for i in range(n)]
        chosen = pool

    def deadline(p):
        k = draw(st.integers(min_value=-3, max_value=p.probs.size + 3))
        grid = p.offset + k
        window = CDF_REL_EPS * max(1.0, abs(grid), abs(p.offset))
        return draw(
            st.sampled_from(
                [grid, grid - 0.5 * min(window, CDF_TOL_CAP), grid - 2.0 * CDF_TOL_CAP]
            )
            | st.floats(min_value=grid - 5.0, max_value=grid + 5.0)
        )

    if draw(st.booleans()):
        times = deadline(chosen[0])
    else:
        times = np.array([deadline(p) for p in chosen], dtype=np.float64)
    return pool, times, index


@settings(max_examples=300, deadline=None)
@given(cdf_queries())
def test_small_batch_path_equals_gather_bitwise(query):
    pool, times, index = query
    n = len(pool) if index is None else len(index)
    flat = np.broadcast_to(np.asarray(times, dtype=np.float64), (n,))
    gathered = pmf_mod._gather_cdf_at(pool, flat, index)
    scalar = pmf_mod._scalar_cdf_at(pool, flat, index)
    assert scalar.tobytes() == gathered.tobytes()
    # The public entry point picks a path by batch size and agrees too.
    assert batch_cdf_at(pool, times, index).tobytes() == gathered.tobytes()


def test_small_batch_path_handles_non_finite_deadlines():
    """The scalar ``cdf_at`` answers ±inf and NaN like the gather:
    clamped to the last bin, zero, zero."""
    p = PMF(np.array([0.25, 0.5]), offset=3.0, tail=0.25)
    times = np.array([math.inf, -math.inf, math.nan])
    with np.errstate(invalid="ignore"):  # the gather casts its NaN index
        gathered = pmf_mod._gather_cdf_at([p, p, p], times, None)
    assert gathered.tolist() == [0.75, 0.0, 0.0]
    assert pmf_mod._scalar_cdf_at([p, p, p], times, None).tolist() == [0.75, 0.0, 0.0]
    assert [p.cdf_at(t) for t in times] == [0.75, 0.0, 0.0]
