"""Property suites, runnable standalone: pytest tests/test_properties.py

Invariants covered: autocorrelation Hermitian symmetry, boundedness by the
zero coefficient, triangle inequality of the pseudo-metric, nesting of the
almost-period sets, scaling covariance, periodogram positivity, agreement of
the NUFFT periodogram with direct summation, restriction idempotence,
dual-lattice involution, model-set Delone behaviour and gap bookkeeping.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import aperiodica as ap
from aperiodica import spectrum


@st.composite
def integer_combs(draw, max_points=40, complex_weights=True):
    n = draw(st.integers(min_value=2, max_value=60))
    count = draw(st.integers(min_value=1, max_value=min(max_points, 2 * n + 1)))
    values = draw(st.lists(st.integers(min_value=-n, max_value=n),
                           min_size=count, max_size=count, unique=True))
    finite = st.floats(min_value=-5.0, max_value=5.0,
                       allow_nan=False, allow_infinity=False)
    re = draw(st.lists(finite, min_size=count, max_size=count))
    if complex_weights:
        im = draw(st.lists(finite, min_size=count, max_size=count))
        weights = np.array(re) + 1j * np.array(im)
    else:
        weights = np.array(re)
    return ap.WeightedComb.from_integers(np.array(values), weights, float(n))


@given(integer_combs())
@settings(max_examples=150, deadline=None)
def test_hermitian_symmetry(comb):
    est = ap.estimate_autocorrelation(comb, 2.0 * comb.radius)
    for z, e in zip(est.diffs, est.eta):
        assert abs(est.eta_at(-float(z)) - np.conj(e)) <= 1e-12


@given(integer_combs())
@settings(max_examples=150, deadline=None)
def test_eta_bounded_by_zero_coefficient(comb):
    est = ap.estimate_autocorrelation(comb, 2.0 * comb.radius)
    eta0 = est.zero_coefficient
    assert np.all(np.abs(est.eta) <= eta0 + 1e-9)


def test_triangle_inequality_on_thousand_triples():
    # rho is a pseudo-metric: check 10^3 random triples on a fixed comb
    rng = np.random.default_rng(2024)
    n = 300
    w = rng.random(2 * n + 1) + 0.2
    comb = ap.WeightedComb.from_integers(np.arange(-n, n + 1), w, float(n))
    est = ap.estimate_autocorrelation(comb, float(n))
    points = rng.integers(-n // 2, n // 2 + 1, size=(1000, 3)).astype(float)
    for s, t, r in points:
        lhs = ap.pseudo_metric(est, s, t)
        rhs = ap.pseudo_metric(est, s, r) + ap.pseudo_metric(est, r, t)
        assert lhs <= rhs + 1e-9


@given(integer_combs(complex_weights=False),
       st.floats(min_value=0.05, max_value=1.3),
       st.floats(min_value=0.05, max_value=1.3))
@settings(max_examples=100, deadline=None)
def test_almost_period_nesting(comb, eps1, eps2):
    est = ap.estimate_autocorrelation(comb, 2.0 * comb.radius)
    if est.zero_coefficient <= 0:
        return
    lo, hi = sorted((eps1, eps2))
    cands = list(est.diffs)
    small = ap.epsilon_almost_periods(est, lo, cands)
    large = ap.epsilon_almost_periods(est, hi, cands)
    assert set(small) <= set(large)


@given(integer_combs(),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_scaling_covariance(comb, c):
    scaled = ap.WeightedComb.from_integers(
        np.round(comb.positions).astype(np.int64), c * comb.weights, comb.radius)
    est0 = ap.estimate_autocorrelation(comb, 2.0 * comb.radius)
    est1 = ap.estimate_autocorrelation(scaled, 2.0 * comb.radius)
    factor = abs(c) ** 2
    scale = max(np.max(np.abs(est0.eta)), 1e-30)
    assert np.max(np.abs(est1.eta - factor * est0.eta)) <= 1e-12 * factor * scale + 1e-15
    if est0.zero_coefficient > 1e-9:
        for z in est0.diffs[:: max(1, len(est0.diffs) // 7)]:
            r0 = ap.pseudo_metric(est0, float(z), 0.0)
            r1 = ap.pseudo_metric(est1, float(z), 0.0)
            assert abs(r0 - r1) <= 1e-9


@given(integer_combs(), st.floats(min_value=0.0, max_value=3.0),
       st.integers(min_value=1, max_value=50))
@settings(max_examples=100, deadline=None)
def test_periodogram_positivity(comb, k0, count):
    ks = k0 + np.arange(count) * 0.037
    assert np.min(ap.periodogram_values(comb, ks)) >= 0.0


@st.composite
def fast_path_inputs(draw):
    """A comb with complex weights (integer, golden-module or float
    positions), a taper and a uniform or scattered k set, sized so that
    periodogram_values takes the NUFFT path."""
    kind = draw(st.sampled_from(["integer", "module", "float"]))
    n = draw(st.integers(min_value=800, max_value=2000))
    count = draw(st.integers(min_value=400, max_value=1000))
    taper = draw(st.sampled_from(["boxcar", "hann"]))
    uniform = draw(st.booleans())
    k_lo = draw(st.floats(min_value=-2.0, max_value=2.0))
    k_span = draw(st.floats(min_value=0.05, max_value=2.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))

    def weights(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    if kind == "integer":
        radius = int(rng.integers(n // 2, n + 1))
        values = rng.choice(np.arange(-radius, radius + 1), size=n, replace=False)
        comb = ap.WeightedComb.from_integers(values, weights(n), float(radius))
    elif kind == "module":
        tiling = ap.sample(ap.fibonacci_spec(), n // 2, seed=int(rng.integers(2 ** 31)))
        mn = tiling.comb.coords.mn
        comb = ap.WeightedComb.from_module(mn, weights(len(mn)), tiling.comb.radius)
    else:
        positions = np.unique(rng.uniform(-n, n, size=n))
        comb = ap.WeightedComb.from_positions(positions, weights(len(positions)), float(n))
    if uniform:
        ks = k_lo + np.arange(count) * (k_span / count)
    else:
        ks = k_lo + rng.uniform(0.0, k_span, size=count)
    return comb, taper, ks


@given(fast_path_inputs())
@settings(max_examples=40, deadline=None)
def test_periodogram_fast_path_matches_direct(case):
    # ROADMAP item 2 gate: max |fast - direct| <= 1e-10 * max value
    comb, taper, ks = case
    x = comb.positions
    assert spectrum._use_nufft(len(x), len(ks), x[-1] - x[0], np.ptp(ks))
    w = spectrum._taper_weights(comb, taper)[0]
    fast = spectrum._nufft_power(x, w, ks)
    direct = spectrum._direct_power(x, w, ks)
    assert np.max(np.abs(fast - direct)) <= 1e-10 * np.max(direct)


@given(integer_combs(), st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_restrict_idempotent(comb, frac):
    r = frac * comb.radius
    once = ap.restrict(comb, r)
    twice = ap.restrict(once, r)
    assert np.array_equal(once.positions, twice.positions)
    assert np.array_equal(once.weights, twice.weights)


@given(st.integers(min_value=1, max_value=3),
       st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False),
                min_size=1, max_size=9))
@settings(max_examples=150, deadline=None)
def test_dual_involution(dim, entries):
    rng = np.random.default_rng(abs(hash(tuple(entries))) % (2 ** 32))
    m = rng.normal(size=(dim, dim))
    if abs(np.linalg.det(m)) < 1e-3:
        return
    basis = ap.LatticeBasis(m)
    back = ap.dual_lattice(ap.dual_lattice(basis))
    assert np.max(np.abs(back.matrix - basis.matrix)) <= 1e-12


def test_model_set_delone_checks():
    scheme = ap.fibonacci_scheme()
    for lo, length in ((-0.3, 1.0), (0.1, 0.4), (-1.2, 2.0)):
        window = ap.EuclideanWindow(((lo, lo + length),))
        comb = ap.generate_model_set(scheme, window, (-300, 300))
        gaps = np.diff(comb.positions)
        assert np.min(gaps) > 0.0
        assert np.max(gaps) < math.sqrt(5.0) / length * 3.0 + 3.0


@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=0, max_size=30),
       st.floats(min_value=-50, max_value=0),
       st.floats(min_value=0.1, max_value=50))
@settings(max_examples=150, deadline=None)
def test_max_gap_bounds(points, lo, width):
    hi = lo + width
    gap = ap.max_gap(points, (lo, hi))
    inside = [p for p in points if lo <= p <= hi]
    if not inside:
        assert gap == math.inf
    else:
        assert 0.0 <= gap <= hi - lo + 1e-12
