import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import aperiodica as ap
from aperiodica import autocorr, paperfolding as pf
from aperiodica.autocorr import DegenerateAutocorrelationError


def integer_comb(n, weights=None):
    values = np.arange(-n, n + 1)
    w = np.ones(len(values)) if weights is None else weights
    return ap.WeightedComb.from_integers(values, w, float(n))


class TestEstimate:
    def test_delta_z_exact_count_oracle(self):
        # exact finite-volume value (2n + 1 - |z|) / (2n) for the integer lattice
        n = 1000
        est = ap.estimate_autocorrelation(integer_comb(n), 50.0)
        for z in range(0, 51):
            expected = (2 * n + 1 - z) / (2 * n)
            assert abs(est.eta_at(float(z)).real - expected) < 1e-12
        assert abs(est.eta_at(1.0).real - 1.0) <= 1e-3

    def test_single_point(self):
        comb = ap.WeightedComb.from_positions([0.0], [2.0 + 1.0j], 1.0)
        est = ap.estimate_autocorrelation(comb, 1.0)
        assert np.allclose(est.diffs, [0.0])
        assert math.isclose(est.zero_coefficient, abs(2 + 1j) ** 2 / 2.0)

    def test_empty_comb_rejected(self):
        comb = ap.WeightedComb.from_positions([], [], 1.0)
        with pytest.raises(ap.EmptyInputError):
            ap.estimate_autocorrelation(comb, 1.0)

    def test_max_diff_beyond_diameter_rejected(self):
        with pytest.raises(ap.OutOfRangeError):
            ap.estimate_autocorrelation(integer_comb(10), 21.0)

    @pytest.mark.parametrize("max_diff", [-1.0, math.nan])
    def test_max_diff_negative_or_nan_rejected(self, max_diff):
        # NaN passed the old diameter check and fed every pair to the sums
        with pytest.raises(ap.OutOfRangeError):
            ap.estimate_autocorrelation(integer_comb(10), max_diff)
        with pytest.raises(ap.OutOfRangeError):
            ap.estimate_autocorrelation(
                ap.WeightedComb.from_positions([0.0, 0.5], [1.0, 1.0], 10.0), max_diff)

    def test_paperfolding_eta4_intersection_oracle(self):
        n = 1 << 14
        comb = pf.binary_comb(n)
        est = ap.estimate_autocorrelation(comb, 64.0)
        # oracle: density of (ones set) intersected with its shift by 4,
        # counted on a larger window
        big = 1 << 16
        ones = pf.letter_positions_substitution("w1", -big, big + 1)
        support = np.sort(np.concatenate([ones["a"], ones["b"]]))
        oracle = len(np.intersect1d(support, support + 4)) / (2 * big)
        assert abs(est.eta_at(4.0).real - oracle) <= 1e-2

    def test_module_comb_path(self):
        scheme = ap.fibonacci_scheme()
        window = ap.EuclideanWindow(((-0.3, 0.7),))
        comb = ap.generate_model_set(scheme, window, (-50, 50))
        est = ap.estimate_autocorrelation(comb, 20.0)
        # eta(0) is the point density
        assert math.isclose(est.zero_coefficient, len(comb) / 100.0, rel_tol=1e-12)
        # coefficients of a unit-weight comb are overlap counts / volume
        tau_diff = ap.TAU
        eta = est.eta_at(tau_diff)
        count = np.sum(np.isclose(comb.positions[:, None] - comb.positions[None, :],
                                  tau_diff, atol=1e-9))
        assert math.isclose(eta.real, count / 100.0, rel_tol=1e-12)

    def test_hermitian_by_construction(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=51) + 1j * rng.normal(size=51)
        comb = ap.WeightedComb.from_integers(np.arange(-25, 26), w, 25.0)
        est = ap.estimate_autocorrelation(comb, 50.0)
        for z, e in zip(est.diffs, est.eta):
            assert abs(est.eta_at(-z) - np.conj(e)) <= 1e-12


class TestExactKeys:
    def test_sparse_integer_comb_bounded_memory(self):
        # three points spanning 1e6: dense arrays over the span would take
        # 24 MB before any convolution; the pair path needs a few kB
        comb = ap.WeightedComb.from_integers([-500_000, 0, 500_000], [1.0, 2j, 3.0], 5e5)
        tracemalloc.start()
        try:
            est = ap.estimate_autocorrelation(comb, 1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert est.diffs.tolist() == [-1e6, -5e5, 0.0, 5e5, 1e6]
        sums = est.eta * est.volume
        assert np.allclose(sums, [3, 4j, 14, -4j, 3], rtol=0, atol=1e-12)

    def test_pair_path_memory_bounded_by_distinct_differences(self):
        # 2e6 pairs share at most 2e5 differences; the reduced blocks are
        # merged as they come, so they never hold one entry per pair
        rng = np.random.default_rng(3)
        positions = np.unique(rng.integers(-10 ** 7, 10 ** 7, size=20_000)).astype(float)
        comb = ap.WeightedComb.from_positions(positions, np.ones(len(positions)), 1e7)
        tracemalloc.start()
        try:
            est = ap.estimate_autocorrelation(comb, 1e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
        lags = np.round(est.diffs)
        assert np.all(np.abs(est.diffs - lags) < 1e-6) and np.all(np.abs(lags) <= 1e5)
        counts = np.round(est.eta.real * est.volume)
        assert counts[lags == 0] == len(positions)
        assert counts.sum() == len(positions) + 2 * np.sum(
            np.searchsorted(positions, positions + 1e5, side="right")
            - np.arange(1, len(positions) + 1))

    def test_dense_integer_combs_stay_dense(self):
        # lattice subsets at density >= 1/16 never reach the pair path
        letters = pf.letter_positions_substitution("w1", -4096, 4097)
        lattice = ap.LatticeBasis(np.array([[1.0]]))
        with mock.patch.object(autocorr, "_pairwise_sums", side_effect=AssertionError):
            for values in (letters["a"], letters["d"], np.arange(-100, 101)):
                comb = ap.WeightedComb.from_integers(values, np.ones(len(values)), 4096.0)
                ap.estimate_autocorrelation(comb, 64.0)
            # sparser than 1/16, but the span is under _DENSE_MAX_SPAN
            values = np.arange(-99_974, 100_000, 37)
            comb = ap.WeightedComb.from_integers(values, np.ones(len(values)), 1e5)
            est = ap.estimate_autocorrelation(comb, 1e5)
            assert np.array_equal(est.diffs, 37.0 * np.arange(-2702, 2703))
            ap.estimate_autocorrelation(pf.binary_comb(1 << 12), 64.0)
            ap.complement_check(np.arange(-200, 201, 2, dtype=float), lattice, 200)

    def test_float_keys_beyond_int64_rejected(self):
        # positions past 9.2e9 overflow the int64 1e-9 grid; they used to
        # wrap and report two zero differences
        comb = ap.WeightedComb.from_positions(
            [-1.2e10, -1.2e10 + 0.5, 1.2e10 - 0.5, 1.2e10], np.ones(4), 1.2e10)
        with pytest.raises(ap.OutOfRangeError):
            ap.estimate_autocorrelation(comb, 1.0)
        # in range, but a pair within max_diff could differ by more than int64
        comb = ap.WeightedComb.from_positions([0.0, 1.0], np.ones(2), 5e9)
        with pytest.raises(ap.OutOfRangeError):
            ap.estimate_autocorrelation(comb, 9.3e9)

    def test_float_keys_in_range_unchanged(self):
        # the span 1e10 exceeds int64 on the 1e-9 grid; only kept pairs need fit
        comb = ap.WeightedComb.from_positions([-5e9, -5e9 + 0.5, 5e9 - 0.5, 5e9],
                                              [1.0, 2.0, 3.0, 4.0], 5e9)
        est = ap.estimate_autocorrelation(comb, 1.0)
        keys = np.round(comb.positions / 1e-9).astype(np.int64)
        step = (keys[1] - keys[0]) * 1e-9
        assert keys[3] - keys[2] == keys[1] - keys[0]
        assert est.diffs.tolist() == [-step, 0.0, step]
        assert np.allclose(est.eta * est.volume, [14, 30, 14])

    def test_float_points_on_one_key_rejected(self):
        # 0 and 3e-10 share the key 0 of the 1e-9 grid; their pair used to
        # vanish and eta(0) read 2 / vol where sum |w|^2 is 14
        comb = ap.WeightedComb.from_positions([0.0, 3e-10, 1.0], [1, 2, 3], 2.0)
        with pytest.raises(ap.OutOfRangeError, match="1e-09 grid"):
            ap.estimate_autocorrelation(comb, 1.5)
        # two grid steps apart are two keys
        comb = ap.WeightedComb.from_positions([0.0, 2e-9, 1.0], [1, 2, 3], 2.0)
        est = ap.estimate_autocorrelation(comb, 1.5)
        assert est.zero_coefficient * est.volume == 14.0

    def test_integer_span_beyond_int64_rejected(self):
        # the difference of the two end points would wrap in int64
        comb = ap.WeightedComb.from_integers([-(2 ** 62), 2 ** 62], np.ones(2), 2.0 ** 62)
        with pytest.raises(ap.OutOfRangeError):
            ap.estimate_autocorrelation(comb, 1.0)

    def test_module_keys_without_int64_code_rejected(self):
        # (dm, dn) spread over 2^42 each: no int64 code holds every pair
        big = 2 ** 40
        mn = [(m, -round(m * ap.TAU) + k) for k, m in enumerate((0, big, -big))]
        comb = ap.WeightedComb.from_module(mn, np.ones(3), 10.0)
        with pytest.raises(ap.OutOfRangeError):
            ap.estimate_autocorrelation(comb, 20.0)

    def test_eta_lookup_matches_scalar_rule(self):
        # reference: the per-z neighbour search that eta_lookup replaced
        def scalar(est, z, tol=1e-9):
            i = np.searchsorted(est.diffs, z)
            for j in (i - 1, i):
                if 0 <= j < len(est.diffs) and abs(est.diffs[j] - z) <= tol:
                    return complex(est.eta[j])
            return 0.0 + 0.0j

        est = ap.AutocorrelationEstimate(
            np.array([-2.0, -1.0, -1.0 + 1.5e-9, 0.0, 1.0 - 1.5e-9, 1.0, 2.0]),
            np.arange(7) + 1j, 10.0, 20.0, 2.0)
        zs = np.concatenate([est.diffs, est.diffs + 1e-9, est.diffs - 1e-9,
                             est.diffs + 2e-9, [-5.0, 5.0, 0.5, -1.0 + 7.5e-10]])
        assert est.eta_lookup(zs).tolist() == [scalar(est, z) for z in zs]
        assert [est.eta_at(z) for z in zs] == [scalar(est, z) for z in zs]


class TestPseudoMetric:
    def test_zero_at_equal_arguments(self):
        est = ap.estimate_autocorrelation(integer_comb(100), 50.0)
        for t in (0.0, 3.0, 17.0):
            assert ap.pseudo_metric(est, t, t) == 0.0

    def test_integer_lattice_value(self):
        # finite-volume value is sqrt(1/(2n+1) * (2n+1)/(2n))-ish: the exact
        # ratio eta(1)/eta(0) = (2n)/(2n+1) gives rho = sqrt(1/2001)
        n = 1000
        est = ap.estimate_autocorrelation(integer_comb(n), 10.0)
        rho = ap.pseudo_metric(est, 1.0, 0.0)
        assert math.isclose(rho, math.sqrt(1.0 / (2 * n + 1)), rel_tol=1e-9)
        # the spec's example bound of 1e-2 underestimates the intrinsic
        # sqrt(1/(2n)) scale, 0.022 at n = 1000
        assert rho <= 0.03

    def test_off_support_is_one(self):
        est = ap.estimate_autocorrelation(integer_comb(100), 50.0)
        assert ap.pseudo_metric(est, 0.5, 0.0) == 1.0

    def test_nonnegative_weights_bounded_by_one(self):
        rng = np.random.default_rng(1)
        w = rng.random(201)
        comb = ap.WeightedComb.from_integers(np.arange(-100, 101), w, 100.0)
        est = ap.estimate_autocorrelation(comb, 100.0)
        for z in est.diffs[::7]:
            assert ap.pseudo_metric(est, float(z), 0.0) <= 1.0 + 1e-12

    def test_degenerate_rejected(self):
        comb = ap.WeightedComb.from_integers([0, 1], [1.0, -1.0], 1.0)
        est = ap.estimate_autocorrelation(comb, 1.0)
        assert est.zero_coefficient > 0  # |w|^2 sums are positive
        bad = ap.AutocorrelationEstimate(np.array([0.0]), np.array([0.0 + 0j]),
                                         1.0, 2.0, 1.0)
        with pytest.raises(DegenerateAutocorrelationError):
            ap.pseudo_metric(bad, 0.0, 0.0)


class TestAlmostPeriods:
    def test_zero_always_included(self):
        est = ap.estimate_autocorrelation(integer_comb(50), 20.0)
        for eps in (0.1, 0.5, 1.0):
            assert 0.0 in ap.epsilon_almost_periods(est, eps, [0.0, 1.0, 2.0])
            assert 0.0 in ap.epsilon_almost_periods(est, eps, (float(t) for t in range(3)))

    def test_nested_in_epsilon(self):
        est = ap.estimate_autocorrelation(integer_comb(200), 100.0)
        cands = list(est.diffs)
        small = set(ap.epsilon_almost_periods(est, 0.1, cands))
        large = set(ap.epsilon_almost_periods(est, 0.4, cands))
        assert small <= large

    def test_p1_equals_support_for_nonnegative_weights(self):
        rng = np.random.default_rng(2)
        w = rng.random(101)
        w[rng.random(101) < 0.3] = 0.0
        w[50] = 1.0
        comb_vals = np.arange(-50, 51)[w > 0]
        comb = ap.WeightedComb.from_integers(comb_vals, w[w > 0], 50.0)
        est = ap.estimate_autocorrelation(comb, 100.0)
        cands = list(est.diffs)
        p1 = ap.epsilon_almost_periods(est, 1.0, cands)
        support = sorted(float(z) for z in est.support())
        assert p1 == support

    def test_epsilon_range_validated(self):
        est = ap.estimate_autocorrelation(integer_comb(10), 5.0)
        with pytest.raises(ap.OutOfRangeError):
            ap.epsilon_almost_periods(est, 0.0, [0.0])
        with pytest.raises(ap.OutOfRangeError):
            ap.epsilon_almost_periods(est, 2.0, [0.0])


class TestMaxGap:
    def test_unit_spacing(self):
        assert ap.max_gap(list(range(11)), (0.0, 10.0)) == 1.0

    def test_empty_is_infinite(self):
        assert ap.max_gap([], (0.0, 1.0)) == math.inf
        assert ap.max_gap([5.0], (0.0, 1.0)) == math.inf

    def test_edge_gaps_count(self):
        assert ap.max_gap([4.0, 5.0], (0.0, 10.0)) == 5.0

    def test_fibonacci_p_half_gap_fixture(self):
        # regression fixture from running the pipeline at n = 1000;
        # the gap is finite, evidence for relative denseness
        scheme = ap.fibonacci_scheme()
        window = ap.EuclideanWindow(((-0.3, 0.7),))
        comb = ap.generate_model_set(scheme, window, (-1000, 1000))
        est = ap.estimate_autocorrelation(comb, 500.0)
        cands = est.support()
        cands = cands[np.abs(cands) <= 500]
        p_half = ap.epsilon_almost_periods(est, 0.5, cands)
        gap = ap.max_gap(p_half, (-500.0, 500.0))
        assert math.isfinite(gap)
        assert math.isclose(gap, 55.0112362388, abs_tol=1e-6)


class TestA1A3:
    def test_delta_z_window_sup(self):
        est = ap.estimate_autocorrelation(integer_comb(100), 10.0)
        report = ap.check_A1_A3(integer_comb(100), est, 0.4)
        assert report.window_sup == 1.0

    def test_one_point_always_discrete(self):
        comb = ap.WeightedComb.from_positions([0.0], [1.0], 1.0)
        est = ap.estimate_autocorrelation(comb, 1.0)
        report = ap.check_A1_A3(comb, est, 10.0)
        assert report.uniformly_discrete

    def test_paperfolding_discrete_at_r04(self):
        comb = pf.binary_comb(1 << 10)
        est = ap.estimate_autocorrelation(comb, 32.0)
        report = ap.check_A1_A3(comb, est, 0.4)
        assert report.uniformly_discrete
        assert report.min_ess_gap >= 1.0  # differences live on Z


class TestScalingCovariance:
    def test_weights_scale_quadratically(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=41) + 1j * rng.normal(size=41)
        base = ap.WeightedComb.from_integers(np.arange(-20, 21), w, 20.0)
        scaled = ap.WeightedComb.from_integers(np.arange(-20, 21), (2 - 1j) * w, 20.0)
        est0 = ap.estimate_autocorrelation(base, 20.0)
        est1 = ap.estimate_autocorrelation(scaled, 20.0)
        c2 = abs(2 - 1j) ** 2
        assert np.allclose(est1.eta, c2 * est0.eta, rtol=1e-12)
        # rho and P_eps are unchanged
        for z in est0.diffs[::5]:
            r0 = ap.pseudo_metric(est0, float(z), 0.0)
            r1 = ap.pseudo_metric(est1, float(z), 0.0)
            assert abs(r0 - r1) < 1e-12


class TestConvergenceProbe:
    def test_estimates_at_n_and_2n_agree(self):
        # operational check of autocorrelation convergence: integer lattice
        # estimates at radius n and 2n agree within a user tolerance
        small = ap.estimate_autocorrelation(integer_comb(500), 50.0)
        large = ap.estimate_autocorrelation(integer_comb(1000), 50.0)
        devs = [abs(small.eta_at(float(z)) - large.eta_at(float(z)))
                for z in range(0, 51)]
        # boundary bias is O(z / n): max over z <= 50 at n = 500 is 49/2000
        assert max(devs) <= 50.0 / 2000.0
        assert devs[1] < 1e-3
