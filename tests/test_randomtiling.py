import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

import aperiodica as ap
from aperiodica.randomtiling import patch_heights
from plans import traced
from references import endpoint_distribution, gaussian_endpoint_density

FIB_DENSITY = 0.7236067977499790        # 1/(p*tau + q) at p = 1/tau
FIB_G0 = 0.03416407864998738            # d*pq*(u-v)^2/(pu+qv)^2, 40-digit eval


def rational_spec(u=2, v=1, p=0.5):
    return ap.RandomTilingSpec(Fraction(u), Fraction(v), p)


class TestSpec:
    def test_fibonacci_fields(self):
        spec = ap.fibonacci_spec()
        assert not spec.rational
        assert math.isclose(spec.u_value, ap.TAU)
        assert math.isclose(spec.p + spec.q, 1.0)

    def test_rational_fields(self):
        spec = rational_spec()
        assert spec.rational
        assert spec.ab == (2, 1)
        assert spec.xi == Fraction(1)

    def test_xi_for_non_integer_ratio(self):
        spec = ap.RandomTilingSpec(Fraction(3, 2), Fraction(1), 0.25)
        assert spec.ab == (3, 2)
        assert spec.xi == Fraction(1, 2)

    def test_probability_range_enforced(self):
        with pytest.raises(ap.OutOfRangeError):
            ap.RandomTilingSpec(Fraction(1), Fraction(1), 1.0)

    def test_ambiguous_float_rejected(self):
        with pytest.raises(ap.AperiodicaError):
            ap.RandomTilingSpec(1.5, 1, 0.5)

    @pytest.mark.parametrize("u, v", [
        (ap.ModuleElement(0, 2), ap.ModuleElement(0, 1)),
        (ap.ModuleElement(0, 2), Fraction(1)),
        (Fraction(2), ap.ModuleElement(0, 1)),
    ], ids=["module-integers", "module-and-one", "two-and-module"])
    def test_integer_module_lengths_are_rational(self, u, v):
        # a rational ratio is the rational case, whatever the lengths' type
        spec = ap.RandomTilingSpec(u, v, 0.5)
        assert spec == rational_spec() and spec.rational

    def test_integer_module_lengths_closed_forms(self):
        spec = ap.RandomTilingSpec(ap.ModuleElement(0, 2), ap.ModuleElement(0, 1), 0.5)
        ref = rational_spec()
        assert ap.pp_part(spec, 3.0).pp_atoms.tobytes() == \
            ap.pp_part(ref, 3.0).pp_atoms.tobytes()
        ks = np.linspace(0.0, 2.5, 11)     # through k = 1 and 2
        assert ap.ac_density_grid(spec, ks).tobytes() == \
            ap.ac_density_grid(ref, ks).tobytes()
        assert ap.ac_density_grid(spec, [1.0])[0] > 0.07

    def test_integer_module_length_with_non_integer_rational(self):
        # 0*tau + 2 is the integer 2, so the ratio 4/3 is the rational case
        spec = ap.RandomTilingSpec(ap.ModuleElement(0, 2), Fraction(3, 2), 0.5)
        assert spec.ab == (4, 3) and spec.xi == Fraction(1, 2)
        assert spec == ap.RandomTilingSpec(2, Fraction(3, 2), 0.5)
        assert type(spec.u) is Fraction and type(spec.v) is Fraction

    @pytest.mark.parametrize("u, v", [
        (ap.ModuleElement(1, 0), ap.ModuleElement(1, 0)),
        (ap.ModuleElement(2, 0), ap.ModuleElement(1, 0)),
        (ap.ModuleElement(2, 2), ap.ModuleElement(1, 1)),
    ], ids=["tau-tau", "2tau-tau", "2tau+2-tau+1"])
    def test_rational_ratio_irrational_unit_rejected(self, u, v):
        # their atoms sit on (1/xi) Z with xi irrational, outside both closed forms
        with pytest.raises(ap.AperiodicaError, match="rational ratio"):
            ap.RandomTilingSpec(u, v, 0.5)

    def test_module_with_non_integer_rational_rejected(self):
        with pytest.raises(ap.AperiodicaError, match="non-integer"):
            ap.RandomTilingSpec(ap.ModuleElement(1, 0), Fraction(3, 2), 0.5)


class TestSample:
    def test_degenerate_p_near_one(self):
        spec = ap.RandomTilingSpec(Fraction(2), Fraction(1), 1.0 - 1e-12)
        s = ap.sample(spec, 500, seed=0)
        assert np.allclose(np.diff(s.endpoints), 2.0)

    def test_binomial_concentration(self):
        spec = ap.fibonacci_spec()
        m = 100000
        s = ap.sample(spec, m, seed=123)
        frac = s.types.mean()
        se = math.sqrt(spec.p * spec.q / (2 * m))
        assert abs(frac - spec.p) <= 4 * se

    def test_seed_reproducibility(self):
        spec = ap.fibonacci_spec()
        a = ap.sample(spec, 1000, seed=99)
        b = ap.sample(spec, 1000, seed=99)
        assert np.array_equal(a.endpoints, b.endpoints)
        assert np.array_equal(a.types, b.types)

    def test_gaps_exactly_u_or_v(self):
        spec = ap.fibonacci_spec()
        s = ap.sample(spec, 2000, seed=5)
        mn = s.comb.coords.mn
        steps = np.diff(mn, axis=0)
        u_step = steps[:, 0] == 1
        assert np.all((steps[:, 0] == 1) | (steps[:, 0] == 0))
        assert np.all(steps[u_step, 1] == 0)
        assert np.all(steps[~u_step, 1] == 1)

    def test_zero_is_an_endpoint(self):
        s = ap.sample(ap.fibonacci_spec(), 50, seed=1)
        assert 0.0 in s.endpoints

    def test_rational_endpoints_integer(self):
        s = ap.sample(rational_spec(), 100, seed=7)
        assert np.allclose(s.endpoints, np.round(s.endpoints))

    @pytest.mark.parametrize("spec", [rational_spec(), ap.fibonacci_spec()],
                             ids=["rational", "module"])
    @pytest.mark.parametrize("m", [1, 2, 777])
    def test_endpoint_keys_are_signed_cumulative_sums(self, spec, m):
        # the keys left of 0 are minus the sums of the steps outwards from 0
        s = ap.sample(spec, m, seed=m)
        keys = s.comb.coords.values if spec.rational else s.comb.coords.mn
        if spec.rational:
            a, b = spec.ab
            steps = np.where(s.types, a, b)
        else:
            steps = np.where(s.types[:, None], [[1, 0]], [[0, 1]])
        want = np.concatenate([-np.cumsum(steps[:m][::-1], axis=0)[::-1], np.zeros_like(steps[:1]),
                               np.cumsum(steps[m:], axis=0)])
        assert np.array_equal(keys, want)

    def test_memory_follows_the_comb(self):
        # the comb holds its positions, weights and integer keys (6.4 MB);
        # the steps, the negated and reversed sums and the copies the comb
        # made of them used to take the peak to 2.3x that
        spec = ap.RandomTilingSpec(2, 1, 0.5)
        ap.sample(spec, 100_000, 7)
        comb, peak = traced(lambda: ap.sample(spec, 100_000, 7).comb)
        held = comb.positions.nbytes + comb.weights.nbytes + comb.coords.values.nbytes
        assert held == 32 * 200_001
        assert peak <= 1.5 * held

    @pytest.mark.parametrize("spec", [rational_spec(), ap.fibonacci_spec()],
                             ids=["rational", "module"])
    def test_over_budget_rejected_before_drawing(self, spec):
        # 10^12 intervals per side: numpy used to fail on a 14.6 TiB array
        with mock.patch.object(np.random, "default_rng") as rng:
            with pytest.raises(ap.OutOfRangeError, match="the tiling sample"):
                ap.sample(spec, 10 ** 12, seed=0)
        rng.assert_not_called()


class TestDensity:
    def test_unit_lattice(self):
        assert ap.density(ap.RandomTilingSpec(Fraction(1), Fraction(1), 0.5)) == 1.0

    def test_fibonacci_value(self):
        spec = ap.fibonacci_spec()
        d = ap.density(spec)
        assert math.isclose(d, FIB_DENSITY, rel_tol=1e-12)
        assert math.isclose(d, ap.TAU ** 2 / (ap.TAU ** 2 + 1), rel_tol=1e-12)

    def test_two_one_half(self):
        assert math.isclose(ap.density(rational_spec()), 2.0 / 3.0, rel_tol=1e-12)

    def test_empirical_density(self):
        spec = ap.fibonacci_spec()
        m = 100000
        s = ap.sample(spec, m, seed=17)
        span = s.endpoints[-1] - s.endpoints[0]
        d_emp = (len(s.endpoints) - 1) / span
        d = ap.density(spec)
        se = 4 * math.sqrt(spec.p * spec.q / (2 * m)) * abs(spec.u_value - spec.v_value) * d
        assert abs(d_emp - d) <= 4 * se + 1e-3


class TestPurePointPart:
    def test_fibonacci_single_atom(self):
        measure = ap.pp_part(ap.fibonacci_spec(), k_max=10.0)
        assert len(measure.pp_atoms) == 1
        assert abs(measure.atom_at(0.0) - 0.5236) <= 1e-4

    def test_rational_lattice_of_atoms(self):
        measure = ap.pp_part(rational_spec(), k_max=3.0)
        ks = sorted(measure.pp_atoms[:, 0])
        assert ks == [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
        assert np.allclose(measure.pp_atoms[:, 1], 4.0 / 9.0)

    def test_k_max_zero(self):
        for spec in (ap.fibonacci_spec(), rational_spec()):
            measure = ap.pp_part(spec, k_max=0.0)
            assert len(measure.pp_atoms) == 1
            assert measure.pp_atoms[0, 0] == 0.0

    @pytest.mark.parametrize("u, v, k_max", [(2, 1, 3.0), (3, 2, 7.25),
                                             (Fraction(5, 2), Fraction(3, 2), 2.9),
                                             (1000, 999, 100.0), (2, 1, -1.0)])
    def test_lattice_matches_loop(self, u, v, k_max):
        spec = rational_spec(u, v, 0.3)
        step = 1.0 / float(spec.xi)
        jmax = int(math.floor(k_max / step + 1e-12)) if k_max > 0 else 0
        loop = np.array([(j * step, ap.density(spec) ** 2)
                         for j in range(-jmax, jmax + 1)])
        assert ap.pp_part(spec, k_max).pp_atoms.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("k_max", [math.inf, math.nan])
    def test_non_finite_k_max_rejected(self, k_max):
        with pytest.raises(ap.OutOfRangeError):
            ap.pp_part(rational_spec(), k_max)


class TestSeedAveragedEstimators:
    # zero seeds would divide by zero and give a NaN estimate
    @pytest.mark.parametrize("seeds", [0, -1])
    def test_no_seeds_rejected(self, seeds):
        with pytest.raises(ap.OutOfRangeError, match="seed"):
            ap.mean_bragg_amplitudes(rational_spec(), [0.0], 100, seeds, 0)
        with pytest.raises(ap.OutOfRangeError, match="seed"):
            ap.mean_ac_periodogram(ap.fibonacci_spec(), [0.5], 100, seeds, 0)


class TestAcDensity:
    def test_equal_lengths_vanish(self):
        spec = ap.RandomTilingSpec(Fraction(1), Fraction(1), 0.3)
        for k in np.linspace(0, 3, 50):
            assert ap.ac_density_grid(spec, [k])[0] == 0.0

    def test_fibonacci_g0_fixture(self):
        spec = ap.fibonacci_spec()
        assert math.isclose(ap.ac_density_grid(spec, [0.0])[0], FIB_G0, rel_tol=1e-10)
        assert math.isclose(ap.ac_density_grid(spec, [0.0])[0], 0.034164, abs_tol=5e-7)

    def test_rational_bragg_position_value(self):
        spec = rational_spec()
        # d * pq * (a-b)^2 / (pa+qb)^2 = (2/3)(1/4)(1)/(9/4) = 2/27
        assert math.isclose(ap.ac_density_grid(spec, [1.0])[0], 2.0 / 27.0, rel_tol=1e-12)
        assert math.isclose(ap.ac_density_grid(spec, [0.0])[0], 2.0 / 27.0, rel_tol=1e-12)

    @pytest.mark.parametrize("k", [1e-12, -1e-12, 1e-10, -1e-10])
    def test_fibonacci_continuous_near_zero(self, k):
        # k(u - v) rounds to 0 within the singular tolerance: the removable
        # value g(0), not the zero of the excluded points k(u - v) = j != 0
        spec = ap.fibonacci_spec()
        assert math.isclose(ap.ac_density_grid(spec, [k])[0], FIB_G0, rel_tol=1e-10)

    def test_grid_matches_scalar_loop(self):
        # the per-k loop that ac_density_grid replaced, with its k -> 0 fix,
        # is the reference; numpy squares where Python's ** calls pow, so
        # the last bits may differ: tolerance 100 ulp
        def loop(spec, k):
            p, q, u, v = spec.p, spec.q, spec.u_value, spec.v_value
            if spec.rational:
                kxi = k * float(spec.xi)
                if abs(kxi - round(kxi)) <= 1e-9:
                    return ap.ac_density_grid(spec, [0.0])[0]
                kuv = k * float(spec.u - spec.v)
            else:
                kuv = k * (u - v)
                if abs(kuv) <= 1e-9:
                    return ap.ac_density_grid(spec, [0.0])[0]
            if abs(kuv - round(kuv)) <= 1e-9:
                return 0.0
            num = p * q * math.sin(math.pi * k * (u - v)) ** 2
            den = (p * math.sin(math.pi * k * u) ** 2
                   + q * math.sin(math.pi * k * v) ** 2 - num)
            return ap.density(spec) * num / den

        ks = np.concatenate([np.arange(-3.0, 3.0, 1e-3), [ap.TAU, 2.0 * ap.TAU]])
        for spec in (ap.fibonacci_spec(), rational_spec(),
                     ap.RandomTilingSpec(Fraction(3), Fraction(2), 0.3)):
            want = np.array([loop(spec, float(k)) for k in ks])
            got = ap.ac_density_grid(spec, ks)
            assert np.allclose(got, want, rtol=100 * np.finfo(float).eps, atol=0.0)

    def test_irrational_excluded_point_is_zero(self):
        spec = ap.fibonacci_spec()
        # k = tau has k(u - v) = 1: removable zero of the numerator
        assert ap.ac_density_grid(spec, [ap.TAU])[0] == 0.0

    def test_nonnegative_everywhere_sampled(self):
        spec = ap.fibonacci_spec()
        ks = np.linspace(0.0, 5.0, 2001)
        assert np.all(ap.ac_density_grid(spec, ks) >= 0.0)

    def test_periodicity_in_rational_case(self):
        spec = rational_spec()
        period = 1.0 / float(spec.xi)
        ks = np.linspace(0.013, 0.013 + period, 97)
        a = ap.ac_density_grid(spec, ks)
        b = ap.ac_density_grid(spec, ks + period)
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_pp_plus_ac_integral_over_period(self):
        # over one period [0, 1/xi): atom intensity d^2 plus the integral of
        # g compared against d (evidence level, 3 percent)
        spec = rational_spec()
        d = ap.density(spec)
        integral = quad(lambda k: ap.ac_density_grid(spec, [k])[0], 0.0, 1.0,
                        limit=400, points=[0.0, 1.0])[0]
        assert abs((d * d + integral) - d) <= 0.03 * d
        # empirical corroboration: the grid-mean periodogram over one period
        # is the total intensity eta(0) = d (needs grid finer than the span)
        s = ap.sample(spec, 2000, seed=77)
        ks = np.arange(16384) / 16384.0
        mean_val = ap.periodogram_values(s.comb, ks).mean()
        eta0 = len(s.endpoints) / s.comb.volume
        assert abs(mean_val - eta0) <= 0.03 * d
        assert abs(eta0 - d) <= 0.03 * d


class TestEndpointDistribution:
    def test_single_interval(self):
        spec = ap.fibonacci_spec()
        assert math.isclose(endpoint_distribution(1, 1, spec.p), spec.p)
        assert math.isclose(endpoint_distribution(1, 0, spec.p), spec.q)

    def test_normalization_up_to_sixty(self):
        p = 1.0 / ap.TAU
        for m in (1, 7, 23, 60):
            total = sum(endpoint_distribution(m, j, p) for j in range(m + 1))
            assert abs(total - 1.0) <= 1e-12

    def test_mode_at_rounded_mean(self):
        p = 1.0 / ap.TAU
        masses = [endpoint_distribution(20, m, p) for m in range(21)]
        assert int(np.argmax(masses)) == round(20 * p) == 12

    def test_out_of_range_rejected(self):
        with pytest.raises(ap.OutOfRangeError):
            endpoint_distribution(5, 6)


class TestGaussianEndpointDensity:
    def test_symmetric(self):
        for x in (0.3, 1.7, 9.0):
            assert math.isclose(gaussian_endpoint_density(50, x),
                                gaussian_endpoint_density(50, -x))

    def test_unit_mass_by_quadrature(self):
        for m in (10, 100, 1000):
            val = quad(lambda x: gaussian_endpoint_density(m, x),
                       -40 * math.sqrt(m), 40 * math.sqrt(m), limit=200)[0]
            assert abs(val - 1.0) <= 1e-6

    def test_sup_distance_to_binomial_histogram(self):
        # exact binomial masses divided by the height spacing tau against
        # the de Moivre-Laplace density, M = 10^4
        m_total = 10000
        p = 1.0 / ap.TAU
        ms = np.arange(int(m_total * p - 500), int(m_total * p + 500))
        log_masses = [math.lgamma(m_total + 1) - math.lgamma(m + 1)
                      - math.lgamma(m_total - m + 1)
                      + m * math.log(p) + (m_total - m) * math.log(1 - p)
                      for m in ms]
        masses = np.exp(log_masses)
        heights = m_total - ms * ap.TAU  # x* = M - m*tau
        densities = np.array([gaussian_endpoint_density(m_total, x)
                              for x in heights])
        sup = np.max(np.abs(masses / ap.TAU - densities))
        assert sup <= 0.01

    def test_point_density_normalization_switch(self):
        unit = gaussian_endpoint_density(100, 0.5)
        pd = gaussian_endpoint_density(100, 0.5, normalization="point-density")
        assert math.isclose(pd, unit * FIB_DENSITY * math.sqrt(5.0), rel_tol=1e-12)


class TestScalingProfile:
    def test_value_at_zero(self):
        assert abs(ap.scaling_profile(0.0) - 2.0 / math.sqrt(math.pi)) <= 1e-10
        assert abs(ap.scaling_profile(0.0) - 1.128379) <= 1e-6

    def test_unit_mass(self):
        val = quad(ap.scaling_profile, -50, 50, epsabs=1e-12, limit=400)[0]
        assert abs(val - 1.0) <= 1e-8

    def test_monotone_decay_and_tail(self):
        zs = np.linspace(0.0, 4.0, 401)
        vals = ap.scaling_profile(zs)
        assert np.all(np.diff(vals) <= 1e-15)
        assert ap.scaling_profile(3.0) <= 1e-4

    def test_matches_scipy_erfc_formula(self):
        from scipy.special import erfc

        zs = np.linspace(-8.0, 8.0, 4001)
        a = np.abs(zs)
        ref = 2.0 * (np.exp(-a * a) / math.sqrt(math.pi) - a * erfc(a))
        assert np.max(np.abs(ap.scaling_profile(zs) - ref)) <= 1e-15
        for z, r in zip(zs[::97], ref[::97]):
            value = ap.scaling_profile(float(z))
            assert isinstance(value, float) and abs(value - r) <= 1e-15

    def test_internal_distribution_scaling(self):
        n = 400
        s = math.sqrt(ap.TAU / (2 * n))
        for x in (0.0, 3.0, 11.0):
            assert math.isclose(ap.internal_distribution(n, x),
                                s * ap.scaling_profile(s * x), rel_tol=1e-12)


class TestHeightHistogram:
    def test_mass_totals(self):
        spec = ap.fibonacci_spec()
        _, counts = ap.empirical_height_histogram(spec, 200, 10, seed0=3)
        # both sides pooled: 2N heights a patch
        assert counts.sum() == 2 * 200 * 10

    def test_both_sides_doubles_mass(self):
        spec = ap.fibonacci_spec()
        n = 200
        s = ap.sample(spec, n, 3)
        origin = (len(s.heights) - 1) // 2
        heights = patch_heights(spec, n, 3)
        # N heights left of the origin and N right of it, the origin left out
        assert origin == n and len(heights) == 2 * n
        assert np.array_equal(heights[:n], s.heights[:n])
        assert np.array_equal(heights[n:], s.heights[n + 1:])

    def test_shape_against_profile_smoke(self):
        spec = ap.fibonacci_spec()
        n, seeds = 2000, 150
        edges, counts = ap.empirical_height_histogram(spec, n, seeds, seed0=20)
        centers = 0.5 * (edges[:-1] + edges[1:])
        bw = edges[1] - edges[0]
        expected = ap.internal_distribution(n, centers) * bw * 2 * n * seeds
        # walk-level fluctuations dominate: the same statistic at N = 10^4
        # over 100 patches reads 0.089 of peak (criterion 6, histogram clause)
        assert np.max(np.abs(counts - expected)) <= 0.25 * expected.max()

    def test_width_scaling(self):
        spec = ap.fibonacci_spec()
        n = 2000
        std_n = np.concatenate(
            [patch_heights(spec, n, seed=100 + i)
             for i in range(200)]).std()
        std_4n = np.concatenate(
            [patch_heights(spec, 4 * n, seed=700 + i)
             for i in range(200)]).std()
        assert abs(std_4n / std_n - 2.0) <= 0.2


@pytest.mark.parametrize("call, error, match", [
    (lambda: ap.RandomTilingSpec(0, 1, 0.5), ap.OutOfRangeError,
     "interval lengths must be positive"),
    (lambda: ap.RandomTilingSpec("2", 1, 0.5), ap.AperiodicaError,
     "unsupported interval length '2'"),
    (lambda: ap.sample(ap.fibonacci_spec(), 0, 0), ap.OutOfRangeError,
     "at least one interval per side"),
    (lambda: gaussian_endpoint_density(0, 0.0), ap.OutOfRangeError, "M must be at least 1"),
    (lambda: gaussian_endpoint_density(10, 0.0, "other"), ap.AperiodicaError,
     "unknown normalization 'other'"),
    (lambda: ap.internal_distribution(0, 0.0), ap.OutOfRangeError, "N must be at least 1"),
    (lambda: patch_heights(ap.RandomTilingSpec(2, 1, 0.5), 10, 0), ap.AperiodicaError,
     "heights need a module spec"),
    (lambda: ap.empirical_height_histogram(ap.fibonacci_spec(), 99, 1), ap.OutOfRangeError,
     "N must be at least 100"),
    (lambda: ap.empirical_height_histogram(ap.fibonacci_spec(), 100, 0), ap.OutOfRangeError,
     "at least one seed is required; got 0"),
    (lambda: ap.needle_free(ap.fibonacci_spec(), []), ap.OutOfRangeError,
     "needle_free needs at least one k in ks"),
    # keys that would not fit in int64 are refused before any draw
    (lambda: ap.sample(ap.RandomTilingSpec(Fraction(2 ** 62), 1, 0.5), 4, 0),
     ap.OutOfRangeError, "endpoint keys of 4 intervals a side reach 2\\^63"),
    (lambda: ap.sample(ap.RandomTilingSpec(Fraction(10 ** 20), 1, 0.5), 4, 0),
     ap.OutOfRangeError, "endpoint keys of 4 intervals a side reach 2\\^63"),
], ids=["length-zero", "length-a-string", "no-intervals", "endpoint-m-0",
        "unknown-normalization", "internal-n-0", "heights-rational", "histogram-n-99",
        "histogram-no-seeds", "needle-free-no-k", "keys-past-int64", "length-past-int64"])
def test_invalid_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_irrational_spec_has_no_common_unit():
    spec = ap.fibonacci_spec()
    assert spec.ab is None and spec.xi is None


def test_integral_float_length_is_exact():
    spec = ap.RandomTilingSpec(2.0, 1, 0.5)
    assert spec.u == Fraction(2) and spec.ab == (2, 1)
