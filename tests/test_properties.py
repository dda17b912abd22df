"""Property suites, runnable standalone: pytest tests/test_properties.py

Invariants covered: autocorrelation Hermitian symmetry, boundedness by the
zero coefficient, triangle inequality of the pseudo-metric, nesting of the
almost-period sets, scaling covariance, periodogram positivity, agreement of
the NUFFT periodogram with direct summation, agreement of the array slab
enumeration, pair sums and Theorem-10 atoms with the loops they replaced
and of the dense integer sums with the pair loop, agreement of the
paperfolding atoms with a scan of every m/2^r_max, agreement of the 2-adic
class progressions with the membership test and of the array-grown
fixed-point words with words grown by SubstitutionRule.apply, restriction
idempotence, dual-lattice involution, model-set Delone behaviour and gap
bookkeeping.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import aperiodica as ap
from aperiodica import autocorr, cps, spectrum
from aperiodica.core import IntegerCoords, ModuleCoords


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
    replaced, with its ordering and mirroring (diffs, eta)."""
    coords = comb.coords
    if isinstance(coords, ModuleCoords):
        keys = coords.mn
        embed = lambda key: key[0] * ap.TAU + key[1]
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
        while positions[i] - positions[j_lo] > max_diff:
            j_lo += 1
        for j in range(j_lo, i):
            key = tuple(keys[i] - keys[j])
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
    # identical keys, coefficients within 1e-12 of the largest
    comb, max_diff, block = case
    assume(len(comb) > 0)
    if isinstance(comb.coords, IntegerCoords) and len(comb) > 1:  # the pair path, not dense
        values = comb.coords.values
        assume(values[-1] - values[0] + 1 > autocorr._DENSE_SPAN_FACTOR * len(values))
    with mock.patch.object(autocorr, "_PAIR_BLOCK", block), \
            mock.patch.object(autocorr, "_DENSE_MAX_SPAN", 0):
        est = ap.estimate_autocorrelation(comb, max_diff)
    diffs, eta = loop_autocorrelation(comb, max_diff)
    assert np.array_equal(est.diffs, diffs)
    assert np.max(np.abs(est.eta - eta)) <= 1e-12 * np.max(np.abs(eta))


@st.composite
def dense_integer_inputs(draw):
    """An integer comb whose span is at most _DENSE_SPAN_FACTOR positions per
    point, with complex weights and an exact scale, and a max_diff up to
    the diameter."""
    count = draw(st.integers(min_value=1, max_value=40))
    span = draw(st.integers(min_value=count,
                            max_value=autocorr._DENSE_SPAN_FACTOR * count))
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
    return comb, max_diff


@given(dense_integer_inputs())
@settings(max_examples=150, deadline=None)
def test_dense_path_matches_loop(case):
    # identical lags, coefficients within 1e-12 of the largest; the FFT
    # convolution rounds where the pair loop adds exactly
    comb, max_diff = case
    with mock.patch.object(autocorr, "_pairwise_sums", side_effect=AssertionError):
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
