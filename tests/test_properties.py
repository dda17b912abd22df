"""Property suites, runnable standalone: pytest tests/test_properties.py

Invariants covered: autocorrelation Hermitian symmetry, boundedness by the
zero coefficient, triangle inequality of the pseudo-metric, nesting of the
almost-period sets, scaling covariance, periodogram positivity, agreement of
the NUFFT, the twiddle-table, the wrapped and the lattice-DFT periodograms
with direct summation (the sums of tests/oracles.py, with phases in doubles
or from integer arithmetic) and of every path on the Thue-Morse block with
its Riesz product, agreement of the
array slab enumeration, pair sums and Theorem-10 atoms with the loops they
replaced and of the dense integer sums with the pair loop, agreement of the
paperfolding atoms with a scan of every m/2^r_max, agreement of the 2-adic
class progressions with the membership test and of the array-grown
fixed-point words with words grown by SubstitutionRule.apply, restriction
idempotence, dual-lattice involution, model-set Delone behaviour and gap
bookkeeping.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import aperiodica as ap
from aperiodica import autocorr, cps, spectrum
from aperiodica.core import IntegerCoords, ModuleCoords
from oracles import direct_power, exact_power
from plans import cheapest, recorded


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
    ns_other = spectrum._NS_FLOAT if comb.coords is None else spectrum._NS_TABLE
    assert cheapest(len(x), len(ks), x[-1] - x[0], np.ptp(ks), ns_other) == "nufft"
    w = spectrum._taper_weights(comb, taper)[0]
    fast = np.abs(spectrum._nufft(x, w[None], ks)[0]) ** 2 * spectrum._NUFFT_SCALE ** 2
    direct = direct_power(x, w, ks)
    assert np.max(np.abs(fast - direct)) <= 1e-10 * np.max(direct)


@st.composite
def table_path_inputs(draw):
    """A comb with complex weights on integer positions k*scale (spanning n
    to 100n, or more than n^2, where the column stays whole) or golden-
    module positions m*tau + n (a tiling or scattered pairs), a taper and a
    uniform or scattered k set."""
    kind = draw(st.sampled_from(["integer", "sparse", "tiling", "module"]))
    n = draw(st.integers(min_value=1, max_value=1500))
    count = draw(st.integers(min_value=1, max_value=200))
    taper = draw(st.sampled_from(["boxcar", "hann"]))
    uniform = draw(st.booleans())
    k_lo = draw(st.floats(min_value=-20.0, max_value=20.0))
    k_span = draw(st.floats(min_value=0.0, max_value=5.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))

    def weights(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    if kind in ("integer", "sparse"):
        scale = draw(st.sampled_from([1.0, 0.5, 0.37, 3.0]))
        if kind == "integer":
            span = draw(st.integers(min_value=n, max_value=100 * n))
        else:
            span = draw(st.integers(min_value=n * n + 1, max_value=4 * 10 ** 6))
        values = rng.choice(span + 1, size=n, replace=False) - span // 2
        radius = scale * max(abs(int(values.min())), abs(int(values.max())), 1)
        comb = ap.WeightedComb.from_integers(values, weights(n), radius, scale)
    elif kind == "tiling":
        tiling = ap.sample(ap.fibonacci_spec(), n, seed=int(rng.integers(2 ** 31)))
        comb = ap.WeightedComb.from_module(tiling.comb.coords.mn,
                                           weights(len(tiling.comb)), tiling.comb.radius)
    else:
        side = int(math.isqrt(n)) + 2
        mn = rng.integers(-side, side + 1, size=(n, 2))
        mn = np.unique(mn, axis=0)
        x = mn[:, 0] * ap.TAU + mn[:, 1]
        comb = ap.WeightedComb.from_module(mn, weights(len(mn)), float(np.max(np.abs(x))) + 1.0)
    if uniform:
        ks = k_lo + np.arange(count) * (k_span / count)
    else:
        ks = k_lo + rng.uniform(0.0, k_span, size=count)
    return comb, taper, ks


@given(table_path_inputs())
@settings(max_examples=60, deadline=None)
def test_periodogram_table_path_matches_direct(case):
    # the NUFFT gate: max |table - direct| <= 1e-10 * max value
    comb, taper, ks = case
    w = spectrum._taper_weights(comb, taper)[0]
    table = spectrum._table_power(spectrum._columns(comb), w, ks)
    direct = exact_power(comb, w, ks)
    assert np.max(np.abs(table - direct)) <= 1e-10 * np.max(direct)


def seed_191_case():
    """The draw of table_path_inputs that fails the gate above under
    --hypothesis-seed=191 (Hypothesis 6.155.2), rebuilt from its drawn values:
    835 integers at scale 3 over a span of 3,395,612, the Hann taper, and
    the one k = 8.29647326047077."""
    rng = np.random.default_rng(170305)
    span, n = 3_395_612, 835
    values = rng.choice(span + 1, size=n, replace=False) - span // 2
    weights = rng.normal(size=n) + 1j * rng.normal(size=n)
    radius = 3.0 * max(abs(int(values.min())), abs(int(values.max())), 1)
    comb = ap.WeightedComb.from_integers(values, weights, radius, 3.0)
    return comb, "hann", np.array([8.29647326047077])


def test_seed_191_draw_table_path():
    # measured 3.6e-15 of the one value, against 1.37e-10 with phases
    # rounded at |k x| 2^-64
    comb, taper, ks = seed_191_case()
    w = spectrum._taper_weights(comb, taper)[0]
    columns = spectrum._columns(comb)
    # a sparse comb keeps one row per point
    rows, weights = spectrum._band(columns, w)
    assert rows is columns and weights.shape == (len(comb), 1)
    table = spectrum._table_power(columns, w, ks)
    direct = exact_power(comb, w, ks)
    assert np.max(np.abs(table - direct)) <= 1e-10 * np.max(direct)


@st.composite
def band_inputs(draw):
    """A strip of the golden module: the Fibonacci model set of a window of
    width 1 to 8 (one point per m at width 1, several from width 2 on) on
    +-5 to +-150, with real or complex weights, 1 to 40 k, and a tile size
    for the table path from 1 cell*k up, so that blocks of k and of rows
    end anywhere."""
    width = draw(st.floats(min_value=1.0, max_value=8.0))
    lo = draw(st.floats(min_value=-2.0, max_value=2.0))
    radius = draw(st.floats(min_value=5.0, max_value=150.0))
    count = draw(st.integers(min_value=1, max_value=40))
    tile = draw(st.integers(min_value=1, max_value=4096))
    complex_weights = draw(st.booleans())
    k_lo = draw(st.floats(min_value=-20.0, max_value=20.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    comb = ap.generate_model_set(ap.fibonacci_scheme(),
                                 ap.EuclideanWindow(((lo, lo + width),)), (-radius, radius))
    weights = rng.normal(size=len(comb))
    if complex_weights:
        weights = weights + 1j * rng.normal(size=len(comb))
    ks = k_lo + rng.uniform(0.0, 5.0, size=count)
    return comb, weights, ks, tile, width, radius


@given(band_inputs())
@settings(max_examples=60, deadline=None)
def test_band_matches_direct(case):
    # the table path's gate, on combs whose points fill a band of rows
    comb, w, ks, tile, width, radius = case
    columns = spectrum._columns(comb)
    weights = spectrum._band(columns, w)[1]
    # a row holds width - 1 points or more in U < width + 2 cells; on 3,000
    # random strips of these sizes rows * (U + 1) reached 1.76N, under 2N
    if width >= 4.0 and radius >= 100.0:
        assert weights.shape[1] > 1
    with mock.patch.object(spectrum, "_TILE", tile):
        table = spectrum._table_power(columns, w, ks)
    direct = exact_power(comb, w, ks)
    assert np.max(np.abs(table - direct)) <= 1e-10 * np.max(direct)


@st.composite
def wrap_inputs(draw):
    """A comb with complex weights on integer positions k*scale, golden-
    module positions (a tiling) or float positions, a taper and a uniform k
    grid k0 + l*dk whose period 1/dk is shorter than the comb's span, sized
    so that periodogram_values takes the NUFFT.  A dyadic grid (k0 a
    multiple of 2^-10, dk of 2^-30) is exact in doubles and always wrapped;
    another is wrapped, with the first-order correction for its stray from
    the progression, when that stray stays within a few ulps (_wrap_grid)."""
    kind = draw(st.sampled_from(["integer", "module", "float"]))
    n = draw(st.integers(min_value=800, max_value=2000))
    count = draw(st.integers(min_value=400, max_value=1000))
    taper = draw(st.sampled_from(["boxcar", "hann"]))
    k0 = draw(st.floats(min_value=-20.0, max_value=20.0))
    periods = draw(st.floats(min_value=1.01, max_value=20.0))  # span * dk
    dyadic = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))

    def weights(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    if kind == "integer":
        scale = draw(st.sampled_from([1.0, 0.5, 0.37, 3.0]))
        radius = int(rng.integers(n // 2, n + 1))
        values = rng.choice(np.arange(-radius, radius + 1), size=n, replace=False)
        comb = ap.WeightedComb.from_integers(values, weights(n), scale * radius, scale)
    elif kind == "module":
        tiling = ap.sample(ap.fibonacci_spec(), n // 2, seed=int(rng.integers(2 ** 31)))
        mn = tiling.comb.coords.mn
        comb = ap.WeightedComb.from_module(mn, weights(len(mn)), tiling.comb.radius)
    else:
        positions = np.unique(rng.uniform(-n, n, size=n))
        comb = ap.WeightedComb.from_positions(positions, weights(len(positions)), float(n))
    dk = periods / np.ptp(comb.positions)
    if dyadic:
        k0, dk = round(k0 * 2 ** 10) / 2 ** 10, round(dk * 2 ** 30) / 2 ** 30
    return comb, taper, k0 + dk * np.arange(count), dyadic


@given(wrap_inputs())
@settings(max_examples=40, deadline=None)
def test_periodogram_wrap_matches_direct(case):
    # the NUFFT gate, max |wrapped - direct| <= 1e-10 * max value, on combs
    # wrapped to one period 1/dk (|k x| stays under ~3e5 here, where direct
    # summation's phase rounding measured under 1e-11 of max)
    comb, taper, ks, dyadic = case
    with recorded(spectrum) as plans:
        values = ap.periodogram_values(comb, ks, taper)
    [plan] = plans
    # a grid wrapped is summed by the NUFFT, and a dyadic grid is wrapped
    wrapped = plan.path == "nufft" and plan.wrap is not None
    assert wrapped == (plan.wrap is not None)
    assert wrapped or not dyadic
    w, t_mean, _ = spectrum._taper_weights(comb, taper)
    direct = direct_power(comb.positions, w, ks) / (comb.volume * t_mean ** 2)
    assert np.max(np.abs(values - direct)) <= 1e-10 * np.max(direct)


@st.composite
def stray_grid_inputs(draw):
    """A wide comb with complex weights on integer positions k*scale or
    golden-module positions m*tau + n (scattered pairs), each spanning
    3e3 to 3e6, or float positions spanning 3e3 to 1e5 (so that |k x| stays
    under ~3e5, where the doubles' own phase rounding stays under 1e-11 of
    max), a taper, and a k grid that is not dyadic: np.linspace, np.arange
    with a decimal step, or uniform_grid(0, 3, 0.001).  Every such comb
    spans more than one period 1/dk, so its sums are wrapped and corrected
    for the grid's stray from its progression.  The sizes (850 to 1,000
    points at 400 to 600 k, or 100 to 200 points at the 3,001 k of
    uniform_grid) make the NUFFT the cheapest path."""
    kind = draw(st.sampled_from(["integer", "module", "float"]))
    grid = draw(st.sampled_from(["linspace", "arange", "uniform_grid"]))
    if grid == "uniform_grid":
        n = draw(st.integers(min_value=100, max_value=200))
    else:
        n = draw(st.integers(min_value=850, max_value=1000))
        count = draw(st.integers(min_value=400, max_value=600))
    taper = draw(st.sampled_from(["boxcar", "hann"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))

    def weights(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    if kind == "float":
        span = draw(st.floats(min_value=3e3, max_value=1e5))
        positions = np.unique(rng.uniform(-span / 2, span / 2, size=n))
        comb = ap.WeightedComb.from_positions(positions, weights(len(positions)), span / 2)
    elif kind == "integer":
        scale = draw(st.sampled_from([1.0, 0.37, 3.0]))
        span = int(draw(st.floats(min_value=3e3, max_value=3e6)) / scale)
        values = np.unique(rng.integers(-(span // 2), span // 2 + 1, size=n))
        radius = scale * max(abs(int(values[0])), abs(int(values[-1])), 1)
        comb = ap.WeightedComb.from_integers(values, weights(len(values)), radius, scale)
    else:
        side = int(draw(st.floats(min_value=3e3, max_value=3e6)) / 5)
        mn = np.unique(rng.integers(-side, side + 1, size=(n, 2)), axis=0)
        x = mn[:, 0] * ap.TAU + mn[:, 1]
        comb = ap.WeightedComb.from_module(mn, weights(len(mn)), float(np.max(np.abs(x))) + 1.0)
    if grid == "linspace":
        k0 = draw(st.floats(min_value=-3.0, max_value=3.0))
        k_span = draw(st.floats(min_value=0.5, max_value=3.0))
        ks = np.linspace(k0, k0 + k_span, count)
    elif grid == "arange":
        step = draw(st.sampled_from([0.001, 0.002, 0.005, 0.01, 0.02]))
        k0 = draw(st.sampled_from([0.0, 0.05, 0.3, -1.1]))
        ks = np.arange(k0, k0 + count * step, step)
    else:
        ks = spectrum.uniform_grid(0.0, 3.0, 0.001)
    return comb, taper, ks


@given(stray_grid_inputs())
@settings(max_examples=25, deadline=None)
def test_stray_grid_wrap_matches_exact_phases(case):
    # the 1e-10 gate against sums with phases from integer arithmetic, on
    # grids that stray from their progressions by an ulp or so
    comb, taper, ks = case
    with recorded(spectrum) as plans:
        values = ap.periodogram_values(comb, ks, taper)
    assert [(p.path, p.wrap is not None) for p in plans] == [("nufft", True)]
    w, t_mean, _ = spectrum._taper_weights(comb, taper)
    exact = exact_power(comb, w, ks) / (comb.volume * t_mean ** 2)
    assert np.max(np.abs(values - exact)) <= 1e-10 * np.max(exact)


def scattered_k_comb(kind):
    """2,000 random integers in +-1e4 with complex weights, a Fibonacci
    random tiling of 5,000 intervals a side, or that tiling as float
    positions."""
    if kind == "integers":
        rng = np.random.default_rng(7)
        values = np.unique(rng.integers(-10 ** 4, 10 ** 4 + 1, size=2_000))
        weights = rng.normal(size=len(values)) + 1j * rng.normal(size=len(values))
        return ap.WeightedComb.from_integers(values, weights, 1e4)
    tiling = ap.sample(ap.fibonacci_spec(), 5_000, seed=3).comb
    if kind == "tiling":
        return tiling
    return ap.WeightedComb.from_positions(tiling.positions, tiling.weights, tiling.radius)


@pytest.mark.parametrize("kind", ["integers", "tiling", "floats"])
@pytest.mark.parametrize("k_mid", [100.0, 1000.0])
def test_scattered_k_far_from_0_match_exact_phases(kind, k_mid):
    # 400 scattered k within 1 of k_mid take the NUFFT unwrapped; its
    # centring phase kc x comes from the digit tables (measured 7.6e-13 to
    # 2.5e-12 of max), where kc x formed in doubles was 4.2e-10 to 1.6e-9 off
    comb = scattered_k_comb(kind)
    ks = k_mid + np.random.default_rng(1).uniform(-1.0, 1.0, size=400)
    with recorded(spectrum) as plans:
        values = ap.periodogram_values(comb, ks) * comb.volume
    assert [(p.path, p.wrap) for p in plans] == [("nufft", None)]
    exact = exact_power(comb, comb.weights, ks)
    assert np.max(np.abs(values - exact)) <= 1e-10 * np.max(exact)


@st.composite
def lattice_inputs(draw):
    """An integer comb (up to 1,500 points spanning up to 1e12, real or
    complex weights) at scale 1, 1/2 or 4, a taper, and a set of k, each a
    multiple of 2^-level (level up to 16), in random order, negative ones,
    repeats and integers beyond 2^53 included.

    The weights have mean 1 and every k set holds k = 0, so the largest
    value, at k = 0, is of order N^2: a 1e-12 gate relative to it then
    measures the path, not how far sum(w) cancels (with all k integers,
    every value is |sum(w)|^2)."""
    n = draw(st.integers(min_value=1, max_value=1500))
    span = draw(st.sampled_from([10, 10 ** 4, 10 ** 8, 10 ** 12]))
    scale = draw(st.sampled_from([1.0, 0.5, 4.0]))
    taper = draw(st.sampled_from(["boxcar", "hann"]))
    complex_weights = draw(st.booleans())
    level = draw(st.integers(min_value=0, max_value=16))
    count = draw(st.integers(min_value=1, max_value=200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    values = np.unique(rng.integers(-(span // 2), span // 2 + 1, size=n))
    weights = 1.0 + rng.normal(size=len(values))
    if complex_weights:
        weights = weights + 1j * rng.normal(size=len(values))
    radius = scale * max(abs(int(values[0])), abs(int(values[-1])), 1)
    comb = ap.WeightedComb.from_integers(values, weights, radius, scale)
    ks = rng.integers(-2 ** 20, 2 ** 20, size=count) / 2.0 ** level
    big = rng.random(count) < 0.1
    ks[big] = rng.choice([-1.0, 1.0], size=big.sum()) * (
        2.0 ** 53 + 2.0 * rng.integers(0, 2 ** 40, size=big.sum()))
    ks = np.concatenate([[0.0], ks, rng.choice(ks, size=count // 4)])  # repeated k
    return comb, taper, rng.permutation(ks)


@given(lattice_inputs())
@settings(max_examples=100, deadline=None)
def test_lattice_path_matches_integer_phases(case):
    comb, taper, ks = case
    u = ks * comb.coords.scale
    # the DFT length: the smallest 2^r with every u 2^r an integer
    size = next(1 << r for r in range(30) if np.all(np.mod(u * 2.0 ** r, 1.0) == 0))
    expected = size if size <= spectrum._GRID_CAP else 0
    assert spectrum._lattice_length(comb.coords, ks) == expected
    assume(expected)
    w = spectrum._taper_weights(comb, taper)[0]
    lattice = spectrum._lattice_power(comb.coords.values, w, u, size)
    exact = exact_power(comb, w, ks)
    assert np.max(np.abs(lattice - exact)) <= 1e-12 * np.max(exact)
    # a k set that is not dyadic, or a scale that is not a power of two,
    # never takes the lattice path
    scale_3 = ap.WeightedComb.from_integers(comb.coords.values, comb.weights,
                                            3.0 / comb.coords.scale * comb.radius, 3.0)
    with recorded(spectrum) as plans:
        ap.periodogram_values(comb, 0.02 * np.arange(1, 64), taper)
        ap.periodogram_values(scale_3, ks[np.abs(ks) < 2.0 ** 30], taper)
    assert [p.lattice for p in plans] == [0, 0] and "lattice" not in [p.path for p in plans]
    assert spectrum._lattice_length(scale_3.coords, ks) == 0


@st.composite
def thue_morse_inputs(draw):
    """The Thue-Morse block of THUE_MORSE.power(r), r <= 14, as weights +1
    (a) and -1 (b) at 0..2^r - 1; 1 to 40 k, uniform or scattered, within
    an interval of length up to 1 in [-50, 51]; and 1 to 40 dyadic k
    m/2^s, s < r, at which 2^(r-1) k is an integer."""
    r = draw(st.integers(min_value=1, max_value=14))
    count = draw(st.integers(min_value=1, max_value=40))
    uniform = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    word = np.array(list(ap.THUE_MORSE.power(r).images["a"]))
    weights = np.where(word == "a", 1.0, -1.0)
    comb = ap.WeightedComb.from_integers(np.arange(len(word)), weights, float(len(word)))
    k_lo, k_span = rng.uniform(-50.0, 50.0), rng.uniform(0.0, 1.0)
    steps = np.arange(count) * (k_span / count) if uniform else rng.uniform(0.0, k_span, count)
    dyadic = rng.integers(-2 ** 20, 2 ** 20, size=count) / 2.0 ** rng.integers(0, r, size=count)
    return r, comb, k_lo + steps, dyadic


def riesz_product(r: int, ks: np.ndarray) -> np.ndarray:
    """|sum_n t_n e^(-2 pi i k n)|^2 over the Thue-Morse block of length
    2^r: prod_(j<r) 4 sin^2(pi 2^j k).  Each 2^j k is exact in doubles and
    reduced to [-1/2, 1/2] exactly (fmod, then less its nearest integer)
    before the sine."""
    x = np.fmod(np.ldexp(ks[:, None], np.arange(r)), 1.0)
    x -= np.round(x)
    return np.prod(4.0 * np.sin(math.pi * x) ** 2, axis=1)


@given(thue_morse_inputs())
@settings(max_examples=40, deadline=None)
def test_thue_morse_every_path_matches_the_riesz_product(case):
    # an oracle that shares no arithmetic with the library or oracles.py:
    # every path the plan prices, each forced in turn, within 1e-10 of max.
    # max is the product's largest value on ks, or its mean over a period,
    # sum |w|^2 = 2^r (Parseval), when that is larger: the NUFFT's
    # tolerance is relative to sum |w|, and a few k in a dip of the product
    # (one k at |F|^2 = 2.6e-5 for r = 2) read 1e-13 of sum |w| off in F
    r, comb, ks, dyadic = case
    exact = riesz_product(r, ks)
    top = max(np.max(exact), len(comb))
    with recorded(spectrum) as plans:
        ap.periodogram_values(comb, ks)
    for path in plans[0].costs:
        with recorded(spectrum, path=path):
            values = ap.periodogram_values(comb, ks) * comb.volume
        assert np.max(np.abs(values - exact)) <= 1e-10 * top, path
    # at the dyadic k the product vanishes, and the lattice path reads 0
    assert not np.any(riesz_product(r, dyadic))
    with recorded(spectrum, path="lattice") as plans:
        values = ap.periodogram_values(comb, dyadic) * comb.volume
    assert "lattice" in plans[0].costs
    assert np.max(values) <= 1e-12 * top


def loop_slab_points(window, lo, hi):
    """Reference: the per-m loop that cps._slab_points replaced."""
    w_lo, w_hi = window.bounds()
    det = abs(ap.TAU - ap.TAU_CONJ)
    m_min = math.floor((lo - w_hi) / det) - 1
    m_max = math.ceil((hi - w_lo) / det) + 1
    rows = []
    for m in range(m_min, m_max + 1):
        n_lo = max(lo - m * ap.TAU, w_lo - m * ap.TAU_CONJ)
        n_hi = min(hi - m * ap.TAU, w_hi - m * ap.TAU_CONJ)
        if n_hi < n_lo:
            continue
        ns = np.arange(math.ceil(n_lo - 1e-9), math.floor(n_hi + 1e-9) + 1,
                       dtype=np.int64)
        if not len(ns):
            continue
        x = m * ap.TAU + ns
        y = m * ap.TAU_CONJ + ns
        keep = (x >= lo) & (x <= hi) & window.contains(y)
        ns = ns[keep]
        if len(ns):
            rows.append(np.stack([np.full(len(ns), m, dtype=np.int64), ns], axis=1))
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(rows)


@st.composite
def slab_inputs(draw):
    """A window of 1-3 disjoint intervals and a region; the region's ends
    may sit exactly on module points, and some draws leave nothing."""
    cuts = sorted(draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                                min_size=2, max_size=6, unique=True)))
    intervals = tuple(zip(cuts[0::2], cuts[1::2]))
    window = ap.EuclideanWindow(intervals)
    ends = []
    for _ in range(2):
        if draw(st.booleans()):
            m = draw(st.integers(min_value=-300, max_value=300))
            n = draw(st.integers(min_value=-500, max_value=500))
            ends.append(m * ap.TAU + n)
        else:
            ends.append(draw(st.floats(min_value=-600.0, max_value=600.0)))
    lo, hi = sorted(ends)
    return window, lo, hi


@given(slab_inputs())
@settings(max_examples=200, deadline=None)
def test_slab_points_match_loop(case):
    window, lo, hi = case
    fast = cps._slab_points(window, lo, hi)
    ref = loop_slab_points(window, lo, hi)
    assert fast.dtype == ref.dtype and np.array_equal(fast, ref)


def test_slab_points_empty_and_on_point_ends():
    window = ap.EuclideanWindow(((-0.3, 0.7),))
    x = ap.TAU + 1  # a point of this model set: star 0.382 lies in the window
    for lo, hi in ((x, x), (0.5, 0.5), (x + 1e-6, x + 0.1), (-x, x)):
        fast = cps._slab_points(window, lo, hi)
        assert np.array_equal(fast, loop_slab_points(window, lo, hi))
    assert cps._slab_points(window, x, x).tolist() == [[1, 1]]
    assert cps._slab_points(window, 0.5, 0.5).shape == (0, 2)


@st.composite
def qadic_inputs(draw):
    """A 2-adic window of 0-5 classes, which may overlap or have a modulus
    wider than the region, with added and removed points near the region;
    the region may be negative, one point long or empty."""
    classes = draw(st.lists(st.tuples(st.integers(min_value=-100, max_value=100),
                                      st.integers(min_value=1, max_value=200)),
                            max_size=5))
    first = draw(st.integers(min_value=-150, max_value=100))
    last = first + draw(st.integers(min_value=-1, max_value=120))
    near = st.integers(min_value=first - 10, max_value=last + 10)
    added = draw(st.sets(near, max_size=4))
    removed = draw(st.sets(near, max_size=4)) - added
    return ap.QAdicWindow(tuple(classes), frozenset(added), frozenset(removed)), first, last


@given(qadic_inputs())
@settings(max_examples=200, deadline=None)
def test_qadic_points_match_membership(case):
    window, first, last = case
    xs = np.arange(first, last + 1, dtype=np.int64)
    ref = xs[window.contains(xs)]
    fast = window.points(first, last)
    assert fast.dtype == ref.dtype and np.array_equal(fast, ref)


def test_qadic_points_empty_result():
    window = ap.QAdicWindow(((0, 64),), removed=frozenset({3}))
    assert window.points(1, 63).tolist() == []
    assert window.points(64, 64).tolist() == [64]
    assert window.points(5, 4).tolist() == []


def apply_grown_window(rule, seed, lo, hi):
    """Reference: letters lo..hi-1 of the fixed point, each half grown by
    SubstitutionRule.apply until it covers the window."""
    if hi <= lo:
        return ""
    left, right = seed
    while len(right) < hi:
        right = rule.apply(right)
    while len(left) < -lo:
        left = rule.apply(left)
    return (left + right)[len(left) + lo:len(left) + hi]


# letters of the random rules: ASCII, Latin-1, Greek, a Euro sign and a
# letter outside the Basic Multilingual Plane
_LETTERS = "abxßαβ€\U0001d51e"


@st.composite
def fixed_point_inputs(draw):
    """A rule (paperfolding, Thue-Morse squared or a random constant-length
    rule whose images are made to fix a drawn seam seed), a seed and a
    window that often straddles the seam."""
    kind = draw(st.sampled_from(["paperfolding", "thue-morse", "random"]))
    if kind == "random":
        alphabet = draw(st.lists(st.sampled_from(_LETTERS), min_size=1,
                                 max_size=5, unique=True))
        length = draw(st.integers(min_value=2, max_value=4))
        images = {a: draw(st.lists(st.sampled_from(alphabet), min_size=length,
                                   max_size=length)) for a in alphabet}
        seed = (draw(st.sampled_from(alphabet)), draw(st.sampled_from(alphabet)))
        images[seed[1]][0] = seed[1]
        images[seed[0]][-1] = seed[0]
        rule = ap.SubstitutionRule(tuple(alphabet),
                                   {a: "".join(w) for a, w in images.items()})
    else:
        # Thue-Morse fixes no seam seed; its square fixes four
        rule = ap.PAPERFOLDING if kind == "paperfolding" else ap.THUE_MORSE.power(2)
        seed = draw(st.sampled_from(ap.two_sided_seeds(rule)))
    lo = draw(st.integers(min_value=-300, max_value=100))
    hi = lo + draw(st.integers(min_value=-2, max_value=400))
    return rule, seed, lo, hi


@given(fixed_point_inputs())
@settings(max_examples=200, deadline=None)
def test_fixed_point_word_matches_apply(case):
    rule, seed, lo, hi = case
    word = ap.fixed_point(rule, seed)
    ref = apply_grown_window(rule, seed, lo, hi)
    assert word.window(lo, hi) == ref
    positions = word.letter_positions(lo, hi)
    assert list(positions) == list(rule.alphabet)
    for a in rule.alphabet:
        expected = np.array([i for i, c in enumerate(ref) if c == a], dtype=np.int64) + lo
        assert positions[a].dtype == np.int64
        assert np.array_equal(positions[a], expected)
    if hi > lo:
        assert word[lo] == ref[0] and word[hi - 1] == ref[-1]


def loop_theorem10_spectrum(profile, k_lo, k_hi):
    """Reference: the (p, q) double loop that cps.theorem10_spectrum
    replaced.  Dual lattice points are (p - q tau')/det with internal parts
    (q tau - p)/det, det = tau - tau'."""
    det = ap.TAU - ap.TAU_CONJ
    amp0 = profile.sigma * math.sqrt(2.0 * math.pi)
    bound = cps._PRUNE * det * det
    if amp0 ** 2 <= bound:
        return np.empty((0, 2))
    y_max = math.sqrt(math.log(amp0 ** 2 / bound) /
                      (4.0 * math.pi ** 2 * profile.sigma ** 2))
    atoms = []
    for q in range(math.floor(k_lo - y_max) - 1, math.ceil(k_hi + y_max) + 2):
        p_lo = max(k_lo * det + q * ap.TAU_CONJ, q * ap.TAU - y_max * det)
        p_hi = min(k_hi * det + q * ap.TAU_CONJ, q * ap.TAU + y_max * det)
        for p in range(math.ceil(p_lo - 1e-9), math.floor(p_hi + 1e-9) + 1):
            k_phys = (p - q * ap.TAU_CONJ) / det
            k_int = (q * ap.TAU - p) / det
            if not (k_lo - 1e-12 <= k_phys <= k_hi + 1e-12):
                continue
            intensity = float(np.abs(profile.transform(-k_int)) ** 2) / (det * det)
            if intensity >= cps._PRUNE:
                atoms.append((k_phys, intensity))
    atoms.sort()
    return np.array(atoms).reshape(-1, 2)


@st.composite
def theorem10_inputs(draw):
    """A Gaussian width and a k range whose ends are floats or atom
    positions (x = m tau + n over sqrt5), so that ends on atoms occur."""
    sigma = draw(st.floats(min_value=0.1, max_value=2.0))
    ends = []
    for _ in range(2):
        if draw(st.booleans()):
            m = draw(st.integers(min_value=-10, max_value=10))
            n = draw(st.integers(min_value=-15, max_value=15))
            ends.append(((m + n) - m * ap.TAU_CONJ) / ap.SQRT5)
        else:
            ends.append(draw(st.floats(min_value=-5.0, max_value=5.0)))
    k_lo, k_hi = sorted(ends)
    return ap.GaussianProfile(sigma), k_lo, k_hi


@given(theorem10_inputs())
@settings(max_examples=100, deadline=None)
def test_theorem10_spectrum_matches_loop(case):
    profile, k_lo, k_hi = case
    fast = ap.theorem10_spectrum(ap.fibonacci_scheme(), profile, (k_lo, k_hi)).pp_atoms
    ref = loop_theorem10_spectrum(profile, k_lo, k_hi)
    assert fast.shape == ref.shape
    assert np.array_equal(fast[:, 0], ref[:, 0])
    # a vectorized exp may differ from the scalar one in the last bit
    assert np.allclose(fast[:, 1], ref[:, 1], rtol=1e-13, atol=0.0)


@st.composite
def paperfolding_inputs(draw):
    """Four weights (zeros included, so some levels vanish), r_max and a k
    range on a 1/1000 grid: its ends are dyadic or far from every atom."""
    weight = st.sampled_from([0, 1, -1, 2, 1j, 0.5 - 0.25j])
    weights = tuple(draw(weight) for _ in range(4))
    r_max = draw(st.integers(min_value=3, max_value=9))
    ends = sorted(draw(st.integers(min_value=-2000, max_value=2000)) / 1000
                  for _ in range(2))
    return weights, r_max, tuple(ends)


@given(paperfolding_inputs())
@settings(max_examples=150, deadline=None)
def test_paperfolding_spectrum_matches_scan(case):
    weights, r_max, (k_lo, k_hi) = case
    denom = 2 ** r_max
    scan = [(m / denom, ap.paperfolding_intensity(*weights, m / denom))
            for m in range(math.ceil(k_lo * denom - 1e-12),
                           math.floor(k_hi * denom + 1e-12) + 1)]
    ref = np.array([row for row in scan if row[1] > 0]).reshape(-1, 2)
    fast = ap.paperfolding_spectrum(*weights, r_max=r_max, k_range=(k_lo, k_hi)).pp_atoms
    assert fast.shape == ref.shape and fast.tobytes() == ref.tobytes()


def loop_autocorrelation(comb, max_diff):
    """Reference: the dict-accumulating pair loop that the array pair path
    replaced, with its ordering and mirroring (diffs, eta).  Integer and
    float pairs are cut on their float position difference; module pairs
    are kept when their exact difference embeds to at most max_diff."""
    coords = comb.coords
    slack = 0.0
    if isinstance(coords, ModuleCoords):
        keys = coords.mn
        embed = lambda key: key[0] * ap.TAU + key[1]
        slack = 1e-6  # far past the rounding of any position difference here
    elif isinstance(coords, IntegerCoords):
        keys = coords.values.reshape(-1, 1)
        embed = lambda key: key[0] * coords.scale
    else:
        keys = np.round(comb.positions / 1e-9).astype(np.int64).reshape(-1, 1)
        embed = lambda key: key[0] * 1e-9
    positions, w = comb.positions, comb.weights
    acc = {}
    j_lo = 0
    for i in range(len(positions)):
        while positions[i] - positions[j_lo] > max_diff + slack:
            j_lo += 1
        for j in range(j_lo, i):
            key = tuple(keys[i] - keys[j])
            if slack and embed(key) > max_diff:
                continue
            acc[key] = acc.get(key, 0.0 + 0.0j) + w[i] * np.conj(w[j])
    items = sorted(acc.items(), key=lambda kv: embed(kv[0]))
    pos_diffs = np.array([embed(k) for k, _ in items] + [0.0])
    sums = np.array([v for _, v in items] + [complex(np.dot(w, np.conj(w)))])
    order = np.argsort(pos_diffs, kind="stable")
    pos_diffs, sums = pos_diffs[order], sums[order]
    keep = pos_diffs >= 0
    pos_diffs, sums = pos_diffs[keep], sums[keep]
    mask = pos_diffs > 0
    diffs = np.concatenate([-pos_diffs[mask][::-1], pos_diffs])
    eta = np.concatenate([np.conj(sums[mask][::-1]), sums]) / comb.volume
    return diffs, eta


@st.composite
def pair_path_inputs(draw):
    """A module, float or sparse-integer comb with complex weights, a
    max_diff up to the diameter and a pair block size, small enough that
    the reference loop stays fast."""
    kind = draw(st.sampled_from(["module", "float", "sparse-integer"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    if kind == "module":
        lo = draw(st.floats(min_value=-2.0, max_value=1.0))
        length = draw(st.floats(min_value=0.2, max_value=3.0))
        radius = draw(st.floats(min_value=1.0, max_value=60.0))
        mn = ap.generate_model_set(ap.fibonacci_scheme(),
                                   ap.EuclideanWindow(((lo, lo + length),)),
                                   (-radius, radius)).coords.mn
        mn = mn[rng.random(len(mn)) < draw(st.floats(min_value=0.3, max_value=1.0))]
        make = lambda w: ap.WeightedComb.from_module(mn, w, radius)
        count = len(mn)
    elif kind == "float":
        radius = draw(st.floats(min_value=1.0, max_value=1e4))
        grid = draw(st.sampled_from([None, 1e-3, 0.37]))
        positions = rng.uniform(-radius, radius, size=draw(st.integers(1, 150)))
        if grid is not None:  # repeated differences share a key
            positions = np.round(positions / grid) * grid
        positions = np.unique(np.clip(positions, -radius, radius))
        make = lambda w: ap.WeightedComb.from_positions(positions, w, radius)
        count = len(positions)
    else:
        radius = float(draw(st.integers(min_value=1000, max_value=10 ** 7)))
        count = draw(st.integers(min_value=1, max_value=60))
        values = np.unique(rng.integers(-radius, radius + 1, size=count))
        make = lambda w: ap.WeightedComb.from_integers(values, w, radius)
        count = len(values)
    comb = make(rng.normal(size=count) + 1j * rng.normal(size=count))
    max_diff = draw(st.floats(min_value=0.0, max_value=1.0)) * 2.0 * comb.radius
    if count > 1 and draw(st.booleans()):  # a cut-off that some pair meets exactly
        i, j = sorted(rng.choice(count, size=2, replace=False))
        max_diff = comb.positions[j] - comb.positions[i]
    block = draw(st.sampled_from([1, 2, 3, 7, 64, 1 << 15]))
    return comb, max_diff, block


@given(pair_path_inputs())
@settings(max_examples=150, deadline=None)
def test_pair_path_matches_loop(case):
    # identical keys, coefficients within 1e-12 of the largest, with the
    # partners scanned and searched, and the pairs binned (where their code
    # range is known and small enough to hold here) and sorted
    comb, max_diff, block = case
    assume(len(comb) > 0)
    diffs, eta = loop_autocorrelation(comb, max_diff)
    with recorded(autocorr) as plans:
        ap.estimate_autocorrelation(comb, max_diff)
    codes = plans[0].codes
    groupings = ["sorted"] + (["binned"] if codes and codes[1] - codes[0] < 1 << 16 else [])
    for scan, grouping in itertools.product((-math.inf, math.inf), groupings):
        with mock.patch.object(autocorr, "_PAIR_BLOCK", block), \
                mock.patch.object(autocorr, "_SCAN_PARTNERS", scan), \
                recorded(autocorr, path="pairs", grouping=grouping) as plans:
            est = ap.estimate_autocorrelation(comb, max_diff)
        if len(comb) > 1:
            assert plans[0].partners == ("scan" if scan > 0 else "search")
        assert np.array_equal(est.diffs, diffs)
        assert np.max(np.abs(est.eta - eta)) <= 1e-12 * np.max(np.abs(eta))


def test_module_keys_of_a_wide_comb_match_loop():
    # m spread over 2^41: the key (m - m_min) * (2 * (n spread) + 1) had no
    # int64 code, a * (m - m_min) + (n - n_min), a = 23 at max_diff 20, has
    big = 2 ** 40
    mn = [(m, -round(m * ap.TAU) + k) for k, m in enumerate((0, big, -big))]
    comb = ap.WeightedComb.from_module(mn, [1.0, 2.0 - 1j, 0.5j], 10.0)
    with recorded(autocorr) as plans:
        est = ap.estimate_autocorrelation(comb, 20.0)
    assert plans[0].grouping == "sorted"
    diffs, eta = loop_autocorrelation(comb, 20.0)
    assert len(diffs) == 7 and np.array_equal(est.diffs, diffs)
    assert np.max(np.abs(est.eta - eta)) <= 1e-12 * np.max(np.abs(eta))


@st.composite
def dense_integer_inputs(draw):
    """An integer comb whose span is at most 16 positions per point, with
    complex weights and an exact scale, a max_diff up to the diameter, and
    a tile of the dense sums."""
    count = draw(st.integers(min_value=1, max_value=40))
    span = draw(st.integers(min_value=count, max_value=16 * count))
    lo = draw(st.integers(min_value=-span, max_value=0))
    values = np.array(draw(st.lists(st.integers(min_value=lo, max_value=lo + span - 1),
                                    min_size=count, max_size=count, unique=True)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    scale = draw(st.sampled_from([1.0, 0.5]))
    radius = scale * (np.max(np.abs(values)) + 1)
    comb = ap.WeightedComb.from_integers(
        values, rng.normal(size=count) + 1j * rng.normal(size=count), radius, scale)
    max_diff = draw(st.floats(min_value=0.0, max_value=1.0)) * 2.0 * comb.radius
    if count > 1 and draw(st.booleans()):  # a cut-off that some pair meets exactly
        i, j = sorted(rng.choice(count, size=2, replace=False))
        max_diff = comb.positions[j] - comb.positions[i]
    tile = draw(st.sampled_from([1, 2, 3, 7, 64, autocorr._DENSE_TILE]))
    return comb, max_diff, tile


@given(dense_integer_inputs())
@settings(max_examples=150, deadline=None)
def test_dense_path_matches_loop(case):
    # identical lags, coefficients within 1e-12 of the largest; the FFTs
    # round where the pair loop adds exactly.  Every comb is sent to the
    # dense sums, those with no pair (one point, max_diff below the least
    # gap) too; small tiles put block and tile edges among the points
    comb, max_diff, tile = case
    with mock.patch.object(autocorr, "_DENSE_TILE", tile), recorded(autocorr, path="dense"):
        est = ap.estimate_autocorrelation(comb, max_diff)
    diffs, eta = loop_autocorrelation(comb, max_diff)
    assert np.array_equal(est.diffs, diffs)
    assert np.max(np.abs(est.eta - eta)) <= 1e-12 * np.max(np.abs(eta))


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
