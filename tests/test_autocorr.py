import math
from unittest import mock

import numpy as np
import pytest

import aperiodica as ap
from aperiodica import autocorr, paperfolding as pf
from aperiodica.autocorr import DegenerateAutocorrelationError
from aperiodica.core import module_position
from plans import recorded, traced


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
        est, peak = traced(lambda: ap.estimate_autocorrelation(comb, 1e6))
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
        est, peak = traced(lambda: ap.estimate_autocorrelation(comb, 1e5))
        assert peak < 32 * 2 ** 20
        lags = np.round(est.diffs)
        assert np.all(np.abs(est.diffs - lags) < 1e-6) and np.all(np.abs(lags) <= 1e5)
        counts = np.round(est.eta.real * est.volume)
        assert counts[lags == 0] == len(positions)
        assert counts.sum() == len(positions) + 2 * np.sum(
            np.searchsorted(positions, positions + 1e5, side="right")
            - np.arange(1, len(positions) + 1))

    def test_cost_rule_sends_few_pairs_to_the_pair_path(self):
        # an integer comb goes dense only when its pairs, at _NS_PAIR each,
        # cost more than its span at _NS_DENSE a position: the a- and
        # d-letters have 32,648 and 32,577 pairs within 64 over spans near
        # 8,190 (a-letters: 0.8 ms on the pair path, 1.7 ms dense, the
        # fastest of 31 calls)
        letters = pf.letter_positions_substitution("w1", -4096, 4097)
        for values, pairs in ((letters["a"], 32_648), (letters["d"], 32_577)):
            comb = ap.WeightedComb.from_integers(values, np.ones(len(values)), 4096.0)
            with recorded(autocorr) as plans:
                est = ap.estimate_autocorrelation(comb, 64.0)
            assert np.sum(np.round(est.eta.real * est.volume)[est.diffs > 0]) == pairs
            [plan] = plans
            assert plan.path == "pairs" and plan.costs["pairs"] == autocorr._NS_PAIR * pairs

    def test_dense_integer_combs_stay_dense(self):
        # combs whose pairs cost more than their span never reach the pair path
        lattice = ap.LatticeBasis(np.array([[1.0]]))
        with recorded(autocorr) as plans:
            comb = ap.WeightedComb.from_integers(np.arange(-100, 101), np.ones(201), 4096.0)
            ap.estimate_autocorrelation(comb, 64.0)
            # one point in 37, but its 1.1e7 pairs would cost more than the
            # dense sums over its span
            values = np.arange(-99_974, 100_000, 37)
            comb = ap.WeightedComb.from_integers(values, np.ones(len(values)), 1e5)
            est = ap.estimate_autocorrelation(comb, 1e5)
            assert np.array_equal(est.diffs, 37.0 * np.arange(-2702, 2703))
            ap.estimate_autocorrelation(pf.binary_comb(1 << 12), 64.0)
            ap.complement_check(np.arange(-200, 201, 2, dtype=float), lattice, 200)
            # spans of 2^18 + 3 positions: each autocorrelation has 4.3e9
            # pairs within R / 2, ~6 min at _NS_PAIR, ~0.2 s dense
            r = (1 << 17) + 1
            report = ap.complement_check(np.arange(-r, r + 1, 2, dtype=float), lattice, r)
            assert report.identity_max_deviation < 1.0 / r  # boundary bias
        assert [p.path for p in plans] == ["dense"] * 7

    def test_dense_peak_follows_the_points_not_the_span(self):
        # the dense sums hold one tile of blocks at a time, so the peak is
        # the call's arrays of N keys and first partners (~33 B a point)
        # and a tile; one convolution over the span peaked at 480 MiB here
        values = np.arange(1 << 22)
        comb = ap.WeightedComb.from_integers(values, np.ones(len(values)), 2.0 ** 22)
        with recorded(autocorr) as plans:
            _, peak = traced(lambda: ap.estimate_autocorrelation(comb, 64.0))
        assert peak <= 40 * len(values) + 16 * 2 ** 20
        values = np.arange((1 << 18) + 3)
        comb = ap.WeightedComb.from_integers(values, np.ones(len(values)), 2.0 ** 19)
        with recorded(autocorr) as more:
            dense = ap.estimate_autocorrelation(comb, 16.0)
        assert [p.path for p in plans + more] == ["dense", "dense"]
        with recorded(autocorr, path="pairs"):
            pairs = ap.estimate_autocorrelation(comb, 16.0)
        assert np.array_equal(dense.diffs, pairs.diffs)
        assert np.max(np.abs(dense.eta - pairs.eta)) <= 1e-12 * pairs.zero_coefficient

    def test_lag_bound_past_the_budget_takes_the_pair_path(self):
        # the dense sums hold ~7 complex entries a position of a block as
        # long as the lag bound, so a step-1000 lattice of 1e5 points within
        # 1e8 (5e9 pairs) would peak near 11 GB dense.  With the budget at
        # 8 * 1024 entries, a lattice of step 10 goes dense up to a lag
        # bound of 1024 and takes the pair path past it, whatever its pairs
        values = 10 * np.arange(-500, 501)
        comb = ap.WeightedComb.from_integers(values, np.ones(len(values)), 5000.0)
        with mock.patch.object(autocorr, "SIZE_BUDGET", 8 * 1024), recorded(autocorr) as plans:
            dense = ap.estimate_autocorrelation(comb, 1024.0)
            pairs = ap.estimate_autocorrelation(comb, 1025.0)
            wide = ap.estimate_autocorrelation(comb, 1e4)
        assert [(p.path, p.bound, bool(p.costs)) for p in plans] == [
            ("dense", 1024, True), ("pairs", 1025, False), ("pairs", 10_000, False)]
        assert np.array_equal(dense.diffs, 10.0 * np.arange(-102, 103))
        assert np.array_equal(pairs.diffs, dense.diffs)
        assert np.array_equal(wide.diffs, 10.0 * np.arange(-1000, 1001))
        near = np.abs(wide.diffs) <= 1024
        assert np.max(np.abs(dense.eta - wide.eta[near])) <= 1e-12 * wide.zero_coefficient

    def test_sparse_comb_path_follows_pair_count(self):
        # 2,489 integers over a span of 2.5e5, sparser than 1/16: within
        # 2.5e5 they have 3.1e6 pairs (pair path 0.48 s, dense sums 0.1 s),
        # within 2e3 only 49,320 (pair path 2 ms, dense sums 0.1 s)
        rng = np.random.default_rng(5)
        values = np.unique(rng.integers(-125_000, 125_000, size=2_500))
        w = rng.normal(size=len(values)) + 1j * rng.normal(size=len(values))
        comb = ap.WeightedComb.from_integers(values, w, 125_000.0)
        with recorded(autocorr) as plans:
            dense = ap.estimate_autocorrelation(comb, 2.5e5)
            pairs = ap.estimate_autocorrelation(comb, 2e3)
        assert [p.path for p in plans] == ["dense", "pairs"]
        near = np.abs(dense.diffs) <= 2e3
        assert np.array_equal(dense.diffs[near], pairs.diffs)
        assert np.max(np.abs(dense.eta[near] - pairs.eta)) <= 1e-10 * pairs.zero_coefficient

    def test_pairless_comb_over_a_wide_span_bounded_memory(self):
        # 2^16 integers spaced 16 have no pair within 1; dense arrays over
        # their span of 2^20 peaked at 104 MiB
        values = 16 * np.arange(-(1 << 15), 1 << 15)
        comb = ap.WeightedComb.from_integers(values, np.ones(len(values)), 2.0 ** 19)
        est, peak = traced(lambda: ap.estimate_autocorrelation(comb, 1.0))
        assert peak < 16 * 2 ** 20
        assert est.diffs.tolist() == [0.0] and est.eta[0] * est.volume == len(values)

    def test_few_pairs_take_the_pair_path(self):
        # binary_comb(2^14) has 30,722 pairs within 4 over a span of 32,769
        # (pair path 2.0 ms, dense 11.8 ms, the fastest of 7 calls); the
        # reference is the same call on the dense sums
        comb = pf.binary_comb(1 << 14)
        with recorded(autocorr) as plans:
            pairs = ap.estimate_autocorrelation(comb, 4.0)
        assert [p.path for p in plans] == ["pairs"]
        with recorded(autocorr, path="dense"):
            dense = ap.estimate_autocorrelation(comb, 4.0)
        assert np.array_equal(pairs.diffs, dense.diffs)
        assert np.max(np.abs(pairs.eta - dense.eta)) <= 1e-12 * dense.zero_coefficient

    def test_lag_bound_clipped_to_the_span(self):
        # max_diff 1.5e19 is a lag beyond int64; it raised OverflowError
        comb = ap.WeightedComb.from_integers([0, 10 ** 6], [1, 1], 1e19)
        est = ap.estimate_autocorrelation(comb, 1.5e19)
        assert est.diffs.tolist() == [-1e6, 0.0, 1e6]
        assert (est.eta * est.volume).tolist() == [1, 2, 1]
        # a span near 2^63: keys from the least integer keep keys - bound
        # within int64
        top = 2 ** 63 - 10
        comb = ap.WeightedComb.from_integers([-(2 ** 62), 2 ** 62 - 10], [1, 1], 2.0 ** 62)
        assert ap.estimate_autocorrelation(comb, 2.0 ** 63).diffs.tolist() == \
            [-float(top), 0.0, float(top)]
        assert ap.estimate_autocorrelation(comb, 2.0 ** 62).diffs.tolist() == [0.0]

    def test_first_partners_run_once(self):
        # the pair count that picks the path and the pair path share one
        # first-partner search
        fib = ap.generate_model_set(ap.fibonacci_scheme(), ap.EuclideanWindow(((-0.3, 0.7),)),
                                    (-100, 100))
        sparse = ap.WeightedComb.from_integers(np.arange(-5000, 5001, 50), np.ones(201), 5e3)
        cases = [(pf.binary_comb(1 << 10), 64.0), (pf.binary_comb(1 << 10), 2.0),
                 (sparse, 100.0), (fib, 20.0),
                 (ap.WeightedComb.from_positions(fib.positions, fib.weights, 100.0), 20.0)]
        for comb, max_diff in cases:
            with mock.patch.object(autocorr, "_first_partners",
                                   wraps=autocorr._first_partners) as search:
                ap.estimate_autocorrelation(comb, max_diff)
            assert search.call_count == 1

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
        # m spread over 2^41 and a cut of 1e7, so a = 10^7 + 3: the keys
        # a * (m - m_min) + (n - n_min) span 2.2e19, past int64
        big = 2 ** 40
        mn = [(m, -round(m * ap.TAU) + k) for k, m in enumerate((0, big, -big))]
        comb = ap.WeightedComb.from_module(mn, np.ones(3), 1e7)
        with pytest.raises(ap.OutOfRangeError, match="no exact int64 code"):
            ap.estimate_autocorrelation(comb, 1e7)

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


def module_pair_sum(comb, dm, dn):
    """Sum of v(x) conj(v(y)) over the pairs of a module comb with
    x - y = dm * tau + dn exactly, found by matching (m, n) rows, and the
    float differences x - y of those pairs."""
    mn = comb.coords.mn
    code = mn[:, 0] * 2 ** 32 + mn[:, 1]
    order = np.argsort(code)
    target = code + dm * 2 ** 32 + dn
    k = np.minimum(np.searchsorted(code[order], target), len(code) - 1)
    hit = code[order][k] == target
    x = order[k][hit]
    return (np.sum(comb.weights[x] * np.conj(comb.weights[hit])),
            comb.positions[x] - comb.positions[hit])


def brute_module_estimate(comb, max_diff):
    """diffs and eta of a module comb over all N^2 pairs: a pair counts when
    its exact difference (dm, dn) embeds to at most max_diff."""
    i, j = np.tril_indices(len(comb), -1)
    mn, w = comb.coords.mn, comb.weights
    dmn = mn[i] - mn[j]
    z = module_position(dmn[:, 0], dmn[:, 1])
    keep = (z > 0) & (z <= max_diff)
    distinct, inverse = np.unique(dmn[keep], axis=0, return_inverse=True)
    products = w[i[keep]] * np.conj(w[j[keep]])
    sums = (np.bincount(inverse, products.real, len(distinct))
            + 1j * np.bincount(inverse, products.imag, len(distinct)))
    pos = module_position(distinct[:, 0], distinct[:, 1])
    order = np.argsort(pos)
    diffs = np.concatenate([-pos[order][::-1], [0.0], pos[order]])
    eta = np.concatenate([np.conj(sums[order][::-1]), [np.dot(w, np.conj(w))],
                          sums[order]]) / comb.volume
    return diffs, eta


class TestPairPath:
    def test_module_cut_keeps_every_pair_at_max_diff(self):
        # Theorem 10's comb at +-1e4: 16 of its 57,544 pairs at z = 1 have a
        # float position difference above 1, and a cut on that difference
        # dropped them (eta(1) read 0.1457705 against 0.1458053)
        comb = ap.density_weighted_comb(ap.fibonacci_scheme(), ap.GaussianProfile(0.5),
                                        (-1e4, 1e4))
        total, float_diffs = module_pair_sum(comb, 0, 1)
        assert len(float_diffs) == 57_544 and np.sum(float_diffs > 1.0) == 16
        est = ap.estimate_autocorrelation(comb, 1.0)
        assert est.diffs[-1] == 1.0
        assert abs(est.eta_at(1.0) * comb.volume - total) <= 1e-12 * abs(total)
        # no code beyond max_diff comes in through the widened cut
        est = ap.estimate_autocorrelation(comb, np.nextafter(1.0, 0.0))
        assert est.diffs[-1] < 1.0 and est.eta_at(1.0) == 0.0

    @pytest.mark.parametrize("seed", [2, 1527])
    def test_first_partners_follow_the_rounded_cut(self, seed):
        # float combs on a 1e-3 grid cut at one pair's difference, where
        # searchsorted's rounding of cut[i] - bound misses the rule on
        # cut[i] - cut[j]: at seed 2 first[i] lies below its answer, at
        # seed 1527 above
        rng = np.random.default_rng(seed)
        radius = rng.uniform(1, 1e4)
        cut = np.unique(np.clip(np.round(rng.uniform(-radius, radius, size=150) / 1e-3)
                                * 1e-3, -radius, radius))
        lo, hi = sorted(rng.choice(len(cut), 2, replace=False))
        bound = cut[hi] - cut[lo]
        rule = [next(j for j in range(i + 1) if cut[i] - cut[j] <= bound)
                for i in range(len(cut))]
        assert np.searchsorted(cut, cut - bound).tolist() != rule
        for scan in (False, True):
            assert autocorr._first_partners(cut, bound, scan).tolist() == rule

    @pytest.mark.parametrize("seed", range(4))
    def test_partner_scan_past_its_slices(self, seed):
        # clusters of up to 200 points within the cut among sparse points:
        # the scan leaves its passes over all points for the points still
        # meeting the rule, and gives the search's answer
        rng = np.random.default_rng(seed)
        cut = np.unique(np.concatenate([rng.uniform(0, 1e4, 2000)]
                                       + [c + rng.uniform(0, 1, rng.integers(1, 200))
                                          for c in rng.uniform(0, 1e4, 5)]))
        for bound in (0.5, 1.0, 3.0):
            search = autocorr._first_partners(cut, bound, False)
            assert np.array_equal(autocorr._first_partners(cut, bound, True), search)

    def test_offset_pairs_past_their_slices(self):
        # 2,000 sparse integers average ~1 partner within 50, so their
        # pairs are listed by offset; a cluster of 300 within 600 has up
        # to ~30 a point, listed from the points still paired at each offset
        rng = np.random.default_rng(13)
        values = np.unique(np.concatenate([rng.integers(-50_000, 50_000, 2000),
                                           rng.integers(0, 600, 300)]))
        w = rng.normal(size=len(values)) + 1j * rng.normal(size=len(values))
        comb = ap.WeightedComb.from_integers(values, w, 50_000.0)
        with recorded(autocorr) as plans:
            est = ap.estimate_autocorrelation(comb, 50.0)
        assert [(p.path, p.partners, p.grouping) for p in plans] == [("pairs", "scan", "binned")]
        with recorded(autocorr, grouping="sorted"):
            ref = ap.estimate_autocorrelation(comb, 50.0)
        assert np.array_equal(est.diffs, ref.diffs) and len(est.diffs) == 101
        assert np.max(np.abs(est.eta - ref.eta)) <= 1e-12 * ref.zero_coefficient

    def test_group_sums_order_does_not_depend_on_code_range(self):
        # narrow codes take the packed sort, codes over 2^60 apart the
        # stable argsort; both sum each code's values in their given order
        rng = np.random.default_rng(7)
        values = rng.normal(size=200) + 1j * rng.normal(size=200)
        narrow = rng.integers(-3, 4, size=200)
        got = [autocorr._group_sums(codes, values) for codes in (narrow, narrow * 2 ** 58)]
        assert got[0][0].tolist() == sorted(set(narrow.tolist()))
        assert np.array_equal(got[1][0], got[0][0] * 2 ** 58)
        assert np.array_equal(got[0][1], got[1][1])
        for code, total in zip(*got[0]):
            assert np.isclose(total, np.sum(values[narrow == code]), rtol=1e-14)

    def test_codes_binned_up_to_the_pair_count(self):
        # 12 integers 10 apart have 11 pairs within 10 .. 19; their codes
        # are the lags 1 .. max_lag, binned while max_lag <= 11
        values = 10 * np.arange(12)
        rng = np.random.default_rng(11)
        w = rng.normal(size=12) + 1j * rng.normal(size=12)
        comb = ap.WeightedComb.from_integers(values, w, 120.0)
        for max_diff, grouping in ((11.0, "binned"), (12.0, "sorted")):
            with recorded(autocorr) as plans:
                est = ap.estimate_autocorrelation(comb, max_diff)
            [plan] = plans
            pairs = int(np.sum(np.arange(len(plan.first)) - plan.first))
            assert (plan.path, plan.grouping, plan.codes, pairs) == (
                "pairs", grouping, (1, int(max_diff)), 11)
            other = {"binned": "sorted", "sorted": "binned"}[grouping]
            with recorded(autocorr, grouping=other):
                forced = ap.estimate_autocorrelation(comb, max_diff)
            assert np.array_equal(est.diffs, [-10.0, 0.0, 10.0])
            assert np.array_equal(forced.diffs, est.diffs)
            assert np.max(np.abs(forced.eta - est.eta)) <= 1e-15 * est.zero_coefficient

    @pytest.mark.parametrize("comb, inside, outside, pairs", [
        (ap.WeightedComb.from_integers(np.arange(101), np.ones(101), 101.0), 8.0, 9.0,
         [772, 864]),
        (ap.WeightedComb.from_positions(0.5 * np.arange(101), np.ones(101), 51.0), 4.0,
         np.nextafter(4.0, 5.0), [772, 772])], ids=["integers", "floats"])
    def test_partners_scanned_up_to_eight_a_point(self, comb, inside, outside, pairs):
        # 101 points, evenly spread over a span of 100 steps, average 8
        # partners within 8 steps: (N - 1) * bound = 8 * span, scanned; a
        # lag or a double more is searched
        with recorded(autocorr) as plans:
            ap.estimate_autocorrelation(comb, inside)
            ap.estimate_autocorrelation(comb, outside)
        assert [p.partners for p in plans] == ["scan", "search"]
        assert [int(np.sum(np.arange(101) - p.first)) for p in plans] == pairs

    def test_workload_combs_plans(self):
        # criterion 10's comb at 500 and Theorem 10's comb at 1 bin their
        # pairs: 174,609 pairs over 114,819 codes, 220,211 over 28
        scheme = ap.fibonacci_scheme()
        crit10 = ap.generate_model_set(scheme, ap.EuclideanWindow(((-0.3, 0.7),)),
                                       (-1000, 1000))
        gauss = ap.density_weighted_comb(scheme, ap.GaussianProfile(0.5), (-1e4, 1e4))
        with recorded(autocorr) as plans:
            ap.estimate_autocorrelation(crit10, 500.0)
            ap.estimate_autocorrelation(gauss, 1.0)
        got = [(p.path, p.partners, p.grouping, p.codes[1] - p.codes[0] + 1,
                int(np.sum(np.arange(len(p.first)) - p.first))) for p in plans]
        assert got == [("pairs", "search", "binned", 114_819, 174_609),
                       ("pairs", "scan", "binned", 28, 220_211)]

    @pytest.mark.parametrize("block, max_diff", [(1, 50.0), (7, 500.0), (1 << 15, 500.0)])
    def test_pair_lists_spanning_blocks(self, block, max_diff):
        # criterion 10's comb: at max_diff 500 a point pairs with up to ~400
        # others, so at small blocks one point's pairs span many blocks (at
        # block 1 the cut is 50, ~40 pairs a point, to keep the test short)
        comb = ap.generate_model_set(ap.fibonacci_scheme(),
                                     ap.EuclideanWindow(((-0.3, 0.7),)), (-1000, 1000))
        with mock.patch.object(autocorr, "_PAIR_BLOCK", block):
            est = ap.estimate_autocorrelation(comb, max_diff)
        diffs, eta = brute_module_estimate(comb, max_diff)
        assert np.array_equal(est.diffs, diffs)
        assert np.max(np.abs(est.eta - eta)) <= 1e-12 * np.max(np.abs(eta))


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

    def test_nan_difference_rejected(self):
        # NaN passed the range check: rho read 1.0, and a NaN candidate
        # dropped out of the almost periods without a word
        est = ap.estimate_autocorrelation(integer_comb(10), 5.0)
        with pytest.raises(ap.OutOfRangeError):
            ap.pseudo_metric(est, math.nan, 0.0)
        with pytest.raises(ap.OutOfRangeError):
            ap.epsilon_almost_periods(est, 0.5, [0.0, math.nan])
        # a NaN eta(0) passed the degeneracy check and rho read NaN
        bad = ap.AutocorrelationEstimate(np.array([0.0]), np.array([complex(math.nan)]),
                                         1.0, 2.0, 1.0)
        with pytest.raises(DegenerateAutocorrelationError):
            ap.pseudo_metric(bad, 0.0, 0.0)

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

    def test_nan_window_rejected(self):
        # a NaN bound passed the emptiness check and the gap read inf
        for window in ((math.nan, 2.0), (0.0, math.nan), (1.0, 0.0)):
            with pytest.raises(ap.OutOfRangeError):
                ap.max_gap([0.0, 1.0], window)
        assert ap.max_gap([0.0, 1.0], (-math.inf, math.inf)) == math.inf
        assert ap.max_gap([0.0, 1.0], (0.0, math.inf)) == math.inf

    def test_nan_point_rejected(self):
        # a NaN point fell out of the window test: [nan] read inf and
        # [0, nan, 1] read 1.0
        for points in ([math.nan], [0.0, math.nan, 1.0]):
            with pytest.raises(ap.OutOfRangeError, match="NaN"):
                ap.max_gap(points, (0.0, 1.0))
        # infinite points lie outside every finite window
        assert ap.max_gap([-math.inf, 0.5, math.inf], (0.0, 1.0)) == 0.5

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

    def test_r_must_be_finite_and_non_negative(self):
        # r = NaN reported "not uniformly discrete", r = -1 "uniformly discrete"
        comb = integer_comb(10)
        est = ap.estimate_autocorrelation(comb, 5.0)
        for r in (math.nan, -1.0, math.inf):
            with pytest.raises(ap.OutOfRangeError):
                ap.check_A1_A3(comb, est, r)
        assert ap.check_A1_A3(comb, est, 0.0).uniformly_discrete

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


def test_estimate_fields_differ_in_length_rejected():
    with pytest.raises(ap.AperiodicaError, match="diffs and eta differ in length"):
        ap.AutocorrelationEstimate([0.0], [], 1.0, 2.0, 1.0)


def test_estimate_without_differences_reads_zero():
    est = ap.AutocorrelationEstimate([], [], 1.0, 2.0, 1.0)
    assert np.array_equal(est.eta_lookup([0.0, 1.5]), np.zeros(2))
