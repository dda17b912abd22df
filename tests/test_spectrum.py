import functools
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import aperiodica as ap
from aperiodica import paperfolding as pf
from aperiodica import spectrum as sp
from aperiodica.spectrum import GridMismatchError, SubsetError
from oracles import direct_power, exact_power
from plans import cheapest, recorded, traced
from references import paperfolding_total_intensity
from test_oracles import exact_positions

Z_BASIS = ap.LatticeBasis(np.array([[1.0]]))
# the ratio from which bragg_scaling_ratio's docstring classifies a peak as Bragg
BRAGG_RATIO_THRESHOLD = 1.7


@functools.cache
def criterion_4_exact(ks):
    """Criterion 4's comb (a Fibonacci tiling of 100,000 intervals, seed
    2000) and its sums at each k of the tuple ks, with phases from the exact
    coordinates in integer arithmetic (exact_power)."""
    comb = ap.sample(ap.fibonacci_spec(), 100_000, seed=2000).comb
    return comb, exact_power(comb, comb.weights, np.array(ks))


def integer_comb(n, weights=None):
    values = np.arange(-n, n + 1)
    w = np.ones(len(values)) if weights is None else weights
    return ap.WeightedComb.from_integers(values, w, float(n))


class TestPeriodogram:
    def test_single_point_flat(self):
        comb = ap.WeightedComb.from_positions([0.0], [1.0], 5.0)
        pgram = ap.periodogram(comb, 0.0, 2.0, 0.25)
        assert np.allclose(pgram.values, 1.0 / 10.0)

    def test_delta_z_dirichlet_closed_form(self):
        n = 1000
        comb = integer_comb(n)
        vals = ap.periodogram_values(comb, [0.0, 1.0, 0.5])
        bragg = (2 * n + 1) ** 2 / (2 * n)
        assert math.isclose(vals[0], bragg, rel_tol=1e-12)
        assert math.isclose(vals[1], bragg, rel_tol=1e-9)
        # at k = 1/2 the alternating sum has modulus 1
        assert math.isclose(vals[2], 1.0 / (2 * n), rel_tol=1e-6)

    def test_positivity_exact(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=201) + 1j * rng.normal(size=201)
        comb = ap.WeightedComb.from_integers(np.arange(-100, 101), w, 100.0)
        pgram = ap.periodogram(comb, 0.0, 3.0, 0.01)
        assert np.min(pgram.values) >= 0.0

    def test_parseval_consistency(self):
        # grid mean over a full dual period approximates eta(0) within 2%
        n = 100
        rng = np.random.default_rng(4)
        w = rng.normal(size=2 * n + 1)
        comb = ap.WeightedComb.from_integers(np.arange(-n, n + 1), w, float(n))
        ks = np.arange(10000) / 10000.0
        vals = ap.periodogram_values(comb, ks)
        eta0 = ap.estimate_autocorrelation(comb, 1.0).zero_coefficient
        assert math.isclose(np.mean(vals), eta0, rel_tol=2e-2)

    def test_hermitian_against_conjugated_comb(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=51) + 1j * rng.normal(size=51)
        comb = ap.WeightedComb.from_integers(np.arange(-25, 26), w, 25.0)
        conj = ap.WeightedComb.from_integers(np.arange(-25, 26), np.conj(w), 25.0)
        ks = np.linspace(0.0, 2.0, 64)
        assert np.max(np.abs(ap.periodogram_values(comb, ks) -
                             ap.periodogram_values(conj, -ks))) <= 1e-9

    def test_default_grid_spacing(self):
        comb = integer_comb(10)
        pgram = ap.periodogram(comb, 0.0, 1.0)
        assert math.isclose(pgram.dk, 1.0 / 80.0)

    def test_fft_path_agrees_with_direct(self):
        # the fast path must meet the 1e-10 gate (5e-10 at 2^12 sites); it
        # measures 3.2e-13 at 2^10 sites and 9.3e-13 at 2^12
        for log2n, tol in ((10, 1e-10), (12, 5e-10)):
            comb = pf.binary_comb(1 << log2n)
            pgram = ap.periodogram(comb, 0.05, 1.3, 1.0 / 777)
            assert cheapest(len(comb), len(pgram.ks), np.ptp(comb.positions),
                            np.ptp(pgram.ks), sp._NS_TABLE) == "nufft"
            direct = direct_power(comb.positions, comb.weights, pgram.ks) / comb.volume
            assert np.max(np.abs(direct - pgram.values)) <= tol * np.max(direct)

    @pytest.mark.parametrize("n, count, x_span, k_span, fast", [
        (20_001, 800, 27_640.0, 1.951, True),     # tiling-diffraction, criterion 5
        (2_050, 16_385, 4_096.0, 1.0, True),      # paperfolding 2^11 on [0, 1]
        (16_386, 1_025, 32_768.0, 2.0, True),     # criterion 8
        (4_473, 3_001, 10_000.0, 3.0, True),      # CLI model set, float positions
        (4_473, 3_001, 1_000.0, 3.0, True),       # the same wrapped, dk = 0.001
        (66_491, 20, 20_000.0, 4.96, False),      # criterion 7: grid over cap
        (200_001, 126, 276_534.0, 2.5, False),    # criterion 4 scan unwrapped: grid over cap
        (1, 10_000, 0.0, 1.0, False),             # one point: direct is cheaper
        (2_000, 3, 4_000.0, 2.0, False),          # three k: direct is cheaper
    ])
    def test_path_choice(self, n, count, x_span, k_span, fast):
        # priced against the sums of a float column, the other path of float
        # positions
        assert (cheapest(n, count, x_span, k_span, sp._NS_FLOAT) == "nufft") == fast

    # the other path is the twiddle tables (exact coordinates), not direct
    # summation
    @pytest.mark.parametrize("n, count, x_span, k_span, fast", [
        # a Fibonacci sample at 20 scattered k: the tables take 8.3 ms, the
        # NUFFT 21 ms
        (20_001, 20, 27_663.0, 1.95, False),
        # uniform grids wrapped to one period 1/dk
        (200_001, 126, 50.0, 2.5, True),           # criterion 4's comb, dk = 1/50
        (16_386, 1_025, 512.0, 2.0, True),         # criterion 8
        (200_001, 3, 1.0, 2.0, False),             # rational Bragg sums at 0, 1, 2
    ])
    def test_path_choice_against_tables(self, n, count, x_span, k_span, fast):
        assert (cheapest(n, count, x_span, k_span, sp._NS_TABLE) == "nufft") == fast

    @pytest.mark.parametrize("ks", [
        sp.uniform_grid(0.0, 2.0, 1.0 / 512),
        sp.uniform_grid(-1.0, 2.0, 0.37),
        sp.uniform_grid(0.0, 3.0, 0.001),
        np.arange(0.0, 2.5001, 0.02),       # criterion 4's scan
        0.3 + 0.02 * np.arange(126),
        np.linspace(0.0, 2.0, 512),
        np.linspace(-20.0, 3.0, 1000),
    ])
    def test_uniform_grids_are_wrapped(self, ks):
        # a comb two periods 1/dk wide
        dk = (ks[-1] - ks[0]) / (len(ks) - 1)
        k0, wrap_dk, delta = sp._wrap_grid(ks, 2.0 / dk)
        assert k0 == ks[0] and wrap_dk == dk
        # delta is the stray in rational arithmetic, rounded once
        exact = [float(Fraction(k) - Fraction(k0) - l * Fraction(dk))
                 for l, k in enumerate(ks.tolist())]
        assert np.array_equal(delta, exact)

    def test_other_k_sets_are_not_wrapped(self):
        # tiling-diffraction's 800 k: 100 clusters of 8 offsets 2e-4 apart
        kk = (np.linspace(0.05, 2.0, 100)[:, None] + (np.arange(8) - 3.5) * 2e-4).ravel()
        assert sp._wrap_grid(kk, 1e4) is None
        moved = sp.uniform_grid(0.0, 2.0, 1.0 / 512)
        moved[300] += 1e-12
        assert sp._wrap_grid(moved, 1e4) is None
        assert sp._wrap_grid(np.array([1.0]), 1e4) is None
        assert sp._wrap_grid(np.linspace(2.0, 0.0, 64), 1e4) is None  # descending
        # one period or less
        assert sp._wrap_grid(sp.uniform_grid(0.0, 2.0, 1.0 / 512), 512.0) is None

    def test_wrap_bounded_by_comb_span(self):
        # criterion 4's scan strays from the progression 0.02*l by up to
        # 2.2e-16, which the wrap corrects to first order; the second-order
        # remainder (pi max|delta| span)^2 / 2 is 1.8e-20 at its comb's
        # span, 276,534, and 2.4e-15 at 1e8, within the NUFFT's tolerance
        # of 1e-13, but 2.4e-13 at 1e9
        ks = np.arange(0.0, 2.5001, 0.02)
        for span in (100.0, 276_534.0, 1e8):
            k0, dk, delta = sp._wrap_grid(ks, span)
            assert (k0, dk) == (0.0, 0.02) and 0 < np.max(np.abs(delta)) < 2.2e-16
        assert sp._wrap_grid(ks, 1e9) is None
        with np.errstate(over="raise"):  # a remainder past the doubles
            assert sp._wrap_grid(ks, 1e171) is None
        # a dyadic grid is an exact progression: any span wraps, delta = 0
        dyadic = sp.uniform_grid(0.0, 2.0, 1.0 / 512)
        k0, dk, delta = sp._wrap_grid(dyadic, 1e12)
        assert (k0, dk) == (0.0, 1.0 / 512) and not np.any(delta)

    def test_narrow_comb_is_not_wrapped(self):
        # span 4,096 < 1/dk = 16,384, and every k is a multiple of 2^-14: the
        # lattice path sums the comb as it is, by one FFT of length 2^14
        comb = pf.binary_comb(1 << 11)
        ks = sp.uniform_grid(0.0, 1.0, 1.0 / (8.0 * comb.radius))
        assert np.ptp(comb.positions) * (ks[1] - ks[0]) <= 1
        with recorded(sp) as plans:
            values = ap.periodogram_values(comb, ks)
        assert [(p.path, p.lattice, p.wrap) for p in plans] == [("lattice", 1 << 14, None)]
        summed = sp._lattice_power(comb.coords.values, comb.weights, ks, 1 << 14)
        assert np.array_equal(values, summed / comb.volume)

    def test_narrow_comb_at_scale_3_is_not_wrapped(self):
        # the same comb at scale 3, no power of two, spans 12,288 < 16,384:
        # the NUFFT gets the comb as it is, centred at the middle of ks
        base = pf.binary_comb(1 << 11)
        comb = ap.WeightedComb.from_integers(base.coords.values, base.weights,
                                             3.0 * base.radius, 3.0)
        ks = sp.uniform_grid(0.0, 1.0, 1.0 / (8.0 * base.radius))
        assert np.ptp(comb.positions) * (ks[1] - ks[0]) <= 1
        with recorded(sp) as plans:
            values = ap.periodogram_values(comb, ks) * comb.volume
        assert [(p.path, p.lattice, p.wrap) for p in plans] == [("nufft", 0, None)]
        # every 64th k against phases k * 3c from integer arithmetic
        exact = exact_power(comb, comb.weights, ks[::64])
        assert np.max(np.abs(values[::64] - exact)) <= 1e-10 * np.max(exact)

    @pytest.mark.parametrize("ks, exact_progression", [
        (0.3 + 0.02 * np.arange(126), False),   # criterion 4's step from 0.3
        (0.3125 + np.arange(64) / 64, True),    # a dyadic grid, exact in doubles
    ])
    def test_criterion_4_shape_against_exact_phases(self, ks, exact_progression):
        # Against the sums at the double k with phases from the exact
        # coordinates in integer arithmetic (exact_power), the periodogram
        # is no farther off than direct summation.  Both grids
        # wrap this 2.8e5-wide comb to one period 1/dk: the scan from 0.3
        # strays from its progression and takes the first-order correction
        # (measured 3.1e-13 of max), the dyadic grid does not stray
        # (4.4e-13); direct summation is 5.9e-11 and 3.8e-11 off.
        comb, exact = criterion_4_exact(tuple(ks))
        with recorded(sp) as plans:
            values = ap.periodogram_values(comb, ks) * comb.volume
        [plan] = plans
        assert plan.path == "nufft" and np.any(plan.wrap[2]) != exact_progression
        direct = direct_power(comb.positions, comb.weights, ks)
        err = np.max(np.abs(values - exact))
        assert err <= 1e-12 * np.max(exact)
        assert err <= np.max(np.abs(direct - exact))

    def test_criterion_4_shape_needs_the_correction(self):
        # the same comb and grid, wrapped without the first-order term and
        # summed at the offsets l*0.02 from k0, not centred: the sums at the
        # progression 0.3 + l*0.02 miss the sums at the double k by more
        # than 1e-12 of max, but only by that stray (measured 8.3e-11), so
        # an uncentred NUFFT call keeps its accuracy
        ks = 0.3 + 0.02 * np.arange(126)
        comb, exact = criterion_4_exact(tuple(ks))
        k0, dk, _ = sp._wrap_grid(ks, np.ptp(comb.positions))
        turns = sp._turns(sp._columns(comb), len(comb))
        y, ws = sp._wrap(turns, comb.weights[None], k0, dk, 0)
        sums = sp._nufft(y, ws, np.arange(len(ks)) * dk)[0]
        uncorrected = np.abs(sums) ** 2 * sp._NUFFT_SCALE ** 2
        err = np.max(np.abs(uncorrected - exact))
        assert 1e-12 * np.max(exact) < err < 1e-9 * np.max(exact)
        corrected = ap.periodogram_values(comb, ks) * comb.volume
        assert np.max(np.abs(corrected - exact)) <= 1e-12 * np.max(exact)

    def test_sparse_wide_comb_bounded_memory(self):
        # two points at +-1e9: no allocation may scale with the 2e9 span
        a = 10 ** 9
        comb = ap.WeightedComb.from_integers([-a, a], [1.0, 1.0], float(a))
        dk = 2.0 ** -14  # dyadic: every k * a is exact
        pgram, peak = traced(lambda: ap.periodogram(comb, 0.0, 9_999 * dk, dk))
        assert len(pgram.ks) == 10_000
        assert peak < 64 * 2 ** 20
        phase = np.mod(pgram.ks * a, 1.0)
        exact = 4.0 * np.cos(2.0 * math.pi * phase) ** 2 / comb.volume
        # the tables reduce each phase, up to 2 pi * 2e9 * k, mod 1 from the
        # exact coordinates (measured 4e-16 of max; doubles were 3.7e-7 off)
        assert np.max(np.abs(pgram.values - exact)) <= 1e-12 * np.max(exact)

    @staticmethod
    def sparse_wide_comb_at_dyadic_k(scale):
        """~5,000 random integers over a span of 1e12 at the given scale, at
        2,048 k = l/1024: the values at those k, the call's peak memory and
        plan, and the sums with exact phases."""
        rng = np.random.default_rng(15)
        values = np.unique(rng.integers(-5 * 10 ** 11, 5 * 10 ** 11, size=5_000))
        comb = ap.WeightedComb.from_integers(values, rng.normal(size=len(values)),
                                             5e11 * scale, scale)
        ks = np.arange(2_048) * 2.0 ** -10
        with recorded(sp) as plans:
            summed, peak = traced(lambda: ap.periodogram_values(comb, ks) * comb.volume)
        return summed, peak, plans[0], exact_power(comb, comb.weights, ks)

    def test_wrap_of_sparse_wide_comb_bounded_memory(self):
        # at scale 1 every k x is a multiple of 1/1024: the lattice path bins
        # the weights mod 1024 and takes one FFT of length 1024
        summed, peak, plan, exact = self.sparse_wide_comb_at_dyadic_k(1)
        assert (plan.path, plan.lattice) == ("lattice", 1024)
        assert peak < 16 * 2 ** 20
        assert np.max(np.abs(summed - exact)) <= 1e-10 * np.max(exact)

    def test_wrap_of_sparse_wide_comb_at_scale_3_bounded_memory(self):
        # at scale 3, no power of two, the comb is wrapped to one period 1024
        # before the NUFFT: the wrap's tables hold the points' own values,
        # not two digits of 1e6 entries each (those peaked at 68.7 MiB)
        summed, peak, plan, exact = self.sparse_wide_comb_at_dyadic_k(3)
        assert plan.path == "nufft" and plan.wrap[:2] == (0.0, 2.0 ** -10)
        assert peak < 16 * 2 ** 20
        assert np.max(np.abs(summed - exact)) <= 1e-10 * np.max(exact)

    def test_table_path_choice(self):
        # the two points at +-1e9 would need two digits of up to 44,722
        # entries: the column stays whole, its two values the table
        a = 10 ** 9
        sparse = ap.WeightedComb.from_integers([-a, a], [1.0, 1.0], float(a))
        units, values, unit_of, digits = sp._digit_split(sp._columns(sparse), 2)
        assert units == [(1, 0)] and values.tolist() == [0, 2 * a]
        assert unit_of.tolist() == [0, 0] and [d.tolist() for d in digits] == [[0, 1]]
        with recorded(sp) as plans:
            ap.periodogram_values(sparse, [0.3, 0.7, 1 / 3])
        assert [p.path for p in plans] == ["tables"]
        # criterion 7's comb: two digits per column, 339 entries per k
        # against 66,491 points
        crit7 = ap.density_weighted_comb(ap.fibonacci_scheme(), ap.GaussianProfile(0.5),
                                         (-10000, 10000))
        assert len(crit7) == 66_491
        _, values, _, digits = sp._digit_split(sp._columns(crit7), len(crit7))
        assert len(digits) == 4
        assert len(values) == 339
        # float positions are one column of their 53-bit mantissas, kept
        # whole: the table holds one entry a point, each with its unit
        # +-2^(E - 53)
        floats = ap.WeightedComb.from_positions(crit7.positions, crit7.weights, crit7.radius)
        [(column, units, unit_of)] = sp._columns(floats)
        scales = np.array([sign * 2.0 ** -shift for sign, shift in units])
        assert np.array_equal(column * scales[unit_of], floats.positions)
        split = sp._digit_split(sp._columns(floats), len(floats))
        assert split[0] == units and np.array_equal(split[1], column)
        assert np.array_equal(split[2], unit_of)
        assert np.array_equal(split[3][0], np.arange(len(floats)))

    def test_columns_past_int64_raise(self):
        # two unit points at +-(2^62 + 12345) span more than int64: their
        # column less its minimum wrapped, and every k read |F|^2 = 4
        # (phases in Fraction give 3.369 at k = 0.123 and 3.618 at 0.71)
        x = 2 ** 62 + 12345
        for scale in (1.0, 3.0):
            comb = ap.WeightedComb.from_integers([-x, x], [1.0, 1.0], scale * x, scale)
            with recorded(sp) as plans, pytest.raises(ap.OutOfRangeError) as raised:
                ap.periodogram_values(comb, [0.123, 0.71, 0.9])
            assert [p.path for p in plans] == ["tables"]
            assert raised.traceback[-1].name == "_digit_split"
            # a 2-k grid over a span past 1/dk wraps when the NUFFT is
            # taken, and at 3 k it is not wrapped: both centre through the
            # digit tables, whose split raises before any phase is formed
            for ks in ([0.123, 0.71], [0.123, 0.71, 0.9]):
                with recorded(sp, path="nufft") as plans, \
                        mock.patch.object(sp, "_turns", wraps=sp._turns) as turns, \
                        pytest.raises(ap.OutOfRangeError) as raised:
                    ap.periodogram_values(comb, ks)
                assert (plans[0].wrap is None) != (len(ks) == 2)
                assert turns.call_count == 1
                assert raised.traceback[-1].name == "_digit_split"
        # a span of 2^63 - 1 still fits
        edge = sp._digit_split([(np.array([-2 ** 62, 2 ** 62 - 1]), [(1, 0)], None)], 2)
        assert edge[1].tolist() == [0, 2 ** 63 - 1]

    def test_table_path_beats_direct_at_criterion_4_shape(self):
        # against phases from the exact coordinates in integer arithmetic
        comb = ap.sample(ap.fibonacci_spec(), 100_000, seed=2000).comb
        ks = 0.3 + 0.02 * np.arange(8)
        x = comb.positions
        with recorded(sp) as plans:
            values = ap.periodogram_values(comb, ks)
        assert [p.path for p in plans] == ["tables"]
        table = sp._table_power(sp._columns(comb), comb.weights, ks)
        assert np.array_equal(values, table / comb.volume)
        direct = direct_power(x, comb.weights, ks)
        exact = exact_power(comb, comb.weights, ks)
        table_err = np.max(np.abs(table - exact)) / np.max(exact)
        direct_err = np.max(np.abs(direct - exact)) / np.max(exact)
        # measured 3.6e-14 and 4.9e-11
        assert table_err <= 1e-12
        assert table_err <= direct_err

    @staticmethod
    def wide_float_comb(n, seed):
        """n random float points over +-1e7 with random real weights."""
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-1e7, 1e7, size=n))
        return ap.WeightedComb.from_positions(x, rng.normal(size=n), 1e7)

    @pytest.mark.parametrize("n, ks, path, wrapped", [
        (60, np.array([0.37, 3.3, 9.71]), "tables", False),
        (200, sp.uniform_grid(0.5, 3.05, 0.01), "nufft", True),
    ])
    def test_float_comb_against_exact_phases(self, n, ks, path, wrapped):
        # float positions are a column of the tables, each mantissa with
        # its unit +-2^(E - 53): against exact_power they measured 7.4e-16
        # (sums) and 3.9e-13 (wrap) of max, where phases k x in doubles
        # were 6.8e-8 and 3.0e-9 off; direct summation is 6.8e-8 and 5.3e-9
        # off
        comb = self.wide_float_comb(n, 0)
        with recorded(sp) as plans:
            values = ap.periodogram_values(comb, ks) * comb.volume
        assert [(p.path, p.wrap is not None) for p in plans] == [(path, wrapped)]
        exact = exact_power(comb, comb.weights, ks)
        err = np.max(np.abs(values - exact))
        assert err <= 1e-10 * np.max(exact)
        assert err <= np.max(np.abs(direct_power(comb.positions, comb.weights, ks) - exact))

    @staticmethod
    def wide_integer_comb(scale):
        """100 random unit-weight integers over a span of 1e9 at the given
        scale, and 20 random k in [-25, 25]: the table path's case."""
        rng = np.random.default_rng(27)
        n = np.unique(rng.integers(-500_000_000, 500_000_000, size=100))
        ks = rng.uniform(-25.0, 25.0, size=20)
        return ap.WeightedComb.from_integers(n, np.ones(len(n)), 5e8 * scale, scale), ks

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_wide_integer_comb_takes_the_tables(self, scale):
        comb, ks = self.wide_integer_comb(scale)
        with recorded(sp) as plans:
            ap.periodogram_values(comb, ks)
        assert len(comb) == 100 and [p.path for p in plans] == ["tables"]

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_wide_integer_comb_against_exact_phases(self, scale):
        # measured 1.4e-15 (scale 1) and 6.7e-16 (scale 3) of max, against
        # 1.6e-9 and 3.3e-9 with phases rounded at |k x| 2^-64
        comb, ks = self.wide_integer_comb(scale)
        values = ap.periodogram_values(comb, ks) * comb.volume
        exact = exact_power(comb, comb.weights, ks)
        assert np.max(np.abs(values - exact)) <= 1e-10 * np.max(exact)

    def test_float_comb_takes_the_tables(self):
        # the values are the table sums', bit for bit
        comb = self.wide_float_comb(60, 1)
        ks = np.array([0.37, 3.3, 9.71])
        values = ap.periodogram_values(comb, ks)
        table = sp._table_power(sp._columns(comb), comb.weights, ks)
        assert np.array_equal(values, table / comb.volume)

    def test_non_finite_k_rejected(self):
        with pytest.raises(ap.OutOfRangeError):
            ap.periodogram_values(integer_comb(10), [0.0, math.nan])

    @pytest.mark.parametrize("ks", [[[0.1], [0.2]], [[0.1, 0.2]], np.zeros((2, 2, 1))])
    def test_k_not_one_dimensional_rejected(self, ks):
        with pytest.raises(ap.OutOfRangeError, match="k values"):
            ap.periodogram_values(integer_comb(10), ks)

    @pytest.mark.parametrize("k_min, k_max, dk", [
        (0.0, math.nan, 0.01), (math.nan, 1.0, 0.01), (0.0, 1.0, math.nan),
        (0.0, math.inf, 0.01), (-math.inf, 1.0, 0.01), (0.0, 1.0, math.inf),
    ])
    def test_non_finite_grid_rejected(self, k_min, k_max, dk):
        with pytest.raises(ap.OutOfRangeError, match="finite"):
            ap.periodogram(integer_comb(10), k_min, k_max, dk)


@pytest.mark.parametrize("kind", ["split", "whole", "module", "float"])
def test_turns_within_a_few_units_of_2_to_the_minus_64(kind):
    # each point's turns, the sum of at most 4 table entries each under 4
    # units of 2^-64 short, against k x in Fraction relative to the first
    # point (the tables drop x_ref): within 16 units at any |k x|, here up
    # to 1e19
    rng = np.random.default_rng(41)
    if kind == "split":  # two base-Q digits at scale 3
        values = rng.choice(10 ** 6, size=2000, replace=False) - 500_000
        comb = ap.WeightedComb.from_integers(values, np.ones(2000), 1.5e6, 3.0)
    elif kind == "whole":  # 50 values over 1e9 at scale 0.37
        values = rng.choice(10 ** 9, size=50, replace=False) - 500_000_000
        comb = ap.WeightedComb.from_integers(values, np.ones(50), 2e8, 0.37)
    elif kind == "module":
        comb = ap.sample(ap.fibonacci_spec(), 1000, seed=41).comb
    else:
        x = np.sort(rng.uniform(-1e7, 1e7, size=200))
        comb = ap.WeightedComb.from_positions(x, np.ones(200), 1e7)
    xs = exact_positions(comb)
    turns = sp._turns(sp._columns(comb), len(comb))
    for k in rng.uniform(-25.0, 25.0, size=4).tolist() + [1e3 + 0.1, -(2.0 ** 40) / 3]:
        t = turns(k).tolist()
        for tj, x in zip(t, xs):
            d = (tj - t[0] - Fraction(k) * (x - xs[0]) * 2 ** 64) % 2 ** 64
            assert min(d, 2 ** 64 - d) <= 16


def per_point_power(columns, w, ks):
    """Reference: the table path with one row per point, tile for tile: per
    tile of _TILE point*k the digit tables gathered and multiplied in digit
    order, then dotted with w."""
    n = len(w)
    units, values, unit_of, digits = sp._digit_split(columns, n)
    theta = sp._thetas(units, ks)
    block = max(1, sp._TILE // n)
    step = sp._TILE // block
    out = np.empty(len(ks))
    for start in range(0, len(ks), block):
        table = sp._phases(sp._turn_tables(values, unit_of, theta[:, :, start:start + block]))
        total = np.zeros(table.shape[1], dtype=complex)
        for p in range(0, n, step):
            factors = [np.take(table, a[p:p + step], axis=0) for a in digits]
            total += w[p:p + step] @ functools.reduce(np.multiply, factors)
        out[start:start + block] = np.abs(total) ** 2
    return out


@functools.cache
def criterion_7_case():
    """Criterion 7's comb (Gaussian weights of width 0.5 on +-1e4), its 20
    largest atoms and the Hann-tapered weights."""
    scheme, profile = ap.fibonacci_scheme(), ap.GaussianProfile(0.5)
    comb = ap.density_weighted_comb(scheme, profile, (-1e4, 1e4))
    atoms = ap.theorem10_spectrum(scheme, profile, (0.0, 5.0)).pp_atoms
    ks = atoms[np.argsort(atoms[:, 1])[::-1][:20], 0]
    return comb, ks, sp._taper_weights(comb, "hann")[0]


def wide_band_comb():
    """20,000 unit points (m, n), m in {0, 1} and n in [-5000, 4999]."""
    mn = np.stack([np.repeat([0, 1], 10_000), np.tile(np.arange(-5000, 5000), 2)], axis=1)
    return ap.WeightedComb.from_module(mn, np.ones(len(mn)), 1e4)


# the columns the fold can give: nf/7 odd with a factor 11 or a power of
# two, both above _FOLD_MIN, and an unfolded grid below it
FOLD_KINDS = {
    "odd-with-11": lambda nf, fold: fold == 7 and (nf // 7) % 2 == 1 and (nf // 7) % 11 == 0,
    "power-of-two": lambda nf, fold: fold == 7 and (nf // 7) & (nf // 7 - 1) == 0,
    "unfolded": lambda nf, fold: fold == 1,
}


def grid_of_kind(kind, x_span, k_span, lengths):
    """The first length l of lengths whose fine grid, at spans x_span(l) and
    k_span(l) and one cell less or more, is of the kind."""
    for length in lengths:
        grids = [sp._fine_grid(x_span(length), k_span(length) * (1 + e)) for e in (-1e-9, 0, 1e-9)]
        if len({g[0] for g in grids}) == 1 and FOLD_KINDS[kind](grids[0][0], grids[0][2]):
            return length
    raise AssertionError(f"no grid of kind {kind}")


class TestFold:
    def test_fine_grid_over_a_sweep(self):
        # nf is divisible by the fold, 11-smooth and at least the unrounded
        # length nf0 (what _fine_grid returns past the cap); it folds above
        # _FOLD_MIN, and it fits the cap exactly when next_fast_len(nf0),
        # the unfolded rounding, did, so no NUFFT drops out of the costs
        count = 0
        for x_span in np.geomspace(0.5, 2e6, 181):
            for k_span in (0.0, 0.02, 1.0, 1.951, 3.0, 40.0):
                nf, dk, fold = sp._fine_grid(x_span, k_span)
                with mock.patch.object(sp, "_GRID_CAP", 0):
                    nf0, dk0, _ = sp._fine_grid(x_span, k_span)
                assert dk == dk0
                if nf0 > sp._GRID_CAP:
                    assert (nf, fold) == (nf0, 1)
                    continue
                count += 1
                # 11-smooth: the smallest such length at or above nf is nf
                assert nf >= nf0 and nf % fold == 0 and sp.next_fast_len(nf) == nf
                assert fold == (7 if nf0 > sp._FOLD_MIN else 1)
                assert (nf <= sp._GRID_CAP) == (sp.next_fast_len(nf0) <= sp._GRID_CAP)
        assert count > 500

    @pytest.mark.parametrize("kind", list(FOLD_KINDS))
    def test_scattered_k_against_exact_phases(self, kind):
        # one weight row: 2,000 random integers and 600 scattered k in
        # [-0.25, 2.25] (centred on 1, both exact), the span chosen for the
        # kind of grid
        span = grid_of_kind(kind, float, lambda _: 2.5, range(8_000, 28_000, 3))
        rng = np.random.default_rng(span)
        values = np.unique(np.concatenate([[0, span], rng.integers(0, span, 2_000)]))
        comb = ap.WeightedComb.from_integers(
            values - span // 2, rng.normal(size=len(values)) + 1j * rng.normal(size=len(values)),
            float(span))
        ks = np.concatenate([[-0.25, 2.25], rng.uniform(-0.25, 2.25, 598)])
        with recorded(sp) as plans:
            values = ap.periodogram_values(comb, ks) * comb.volume
        (plan,) = plans
        assert plan.path == "nufft" and plan.wrap is None
        assert FOLD_KINDS[kind](plan.nf, sp._fine_grid(plan.x_span, plan.k_span)[2])
        exact = exact_power(comb, comb.weights, ks)
        assert np.max(np.abs(values - exact)) <= 1e-10 * np.max(exact)

    @pytest.mark.parametrize("kind", list(FOLD_KINDS))
    def test_stray_wrapped_grid_against_exact_phases(self, kind):
        # two weight rows: 60 integers over 1e4 at count k of the grid
        # 0.3 + 0.001 l, which strays from its progression (delta != 0), so
        # the comb is wrapped to one period of 1000.  Its least integer is
        # -5000 and the others are r mod 1000 with r in [-498, 499], both
        # ends taken: the wrapped positions x - x_min mod 1000 are the r,
        # 997 wide, and nf follows count
        count = grid_of_kind(kind, lambda _: 997.0, lambda n: (n - 1) * 0.001,
                             range(15_001, 60_000, 2))
        rng = np.random.default_rng(count)
        residues = np.concatenate([[-498, 499], rng.integers(-498, 500, 58)])
        values = np.unique(np.append(1000 * rng.integers(-4, 5, 60) + residues, -5000))
        comb = ap.WeightedComb.from_integers(
            values, rng.normal(size=len(values)) + 1j * rng.normal(size=len(values)), 5e3)
        ks = np.linspace(0.3, 0.3 + (count - 1) * 0.001, count)
        with recorded(sp) as plans:
            values = ap.periodogram_values(comb, ks) * comb.volume
        (plan,) = plans
        assert plan.path == "nufft" and np.any(plan.wrap[2])
        nf, _, fold = sp._fine_grid(997.0, (count - 1) * plan.wrap[1])
        assert FOLD_KINDS[kind](nf, fold)
        exact = exact_power(comb, comb.weights, ks[::16])
        assert np.max(np.abs(values[::16] - exact)) <= 1e-10 * np.max(exact)

    def test_tiling_call_memory(self):
        # criterion 5's call on a tiling of 20,001 points at its 800 k: a
        # fine grid of 216,832 cells, held as one column of 30,976 at a time
        # (8.05 MiB peak with the whole grid).  pocketfft allocates its
        # scratch copy and twiddle factors in C++, which tracemalloc does
        # not see: this bounds the rest.
        comb = ap.sample(ap.fibonacci_spec(), 10_000, seed=6_002_000).comb
        kk = (np.linspace(0.05, 2.0, 100)[:, None] + (np.arange(8) - 3.5) * 2e-4).ravel()

        def call():
            return ap.periodogram_values(comb, kk, taper="hann", normalization="density")

        call()
        with recorded(sp) as plans:
            _, peak = traced(call)
        assert [(p.path, p.nf) for p in plans] == [("nufft", 216_832)]
        assert peak <= 5 * 2 ** 20


class TestCostRuleEdges:
    def test_nufft_priced_up_to_the_grid_cap(self):
        # a fine grid of exactly _GRID_CAP modes is priced, one more is not
        assert "nufft" in sp._costs(1000, 100, sp._GRID_CAP, sp._NS_TABLE)
        assert "nufft" not in sp._costs(1000, 100, sp._GRID_CAP + 1, sp._NS_TABLE)

    @pytest.mark.parametrize("x_span, k_span", [(0.0, 0.0), (0.0, 1e-3), (1e-9, 0.0)])
    def test_fine_grid_minimum_length(self, x_span, k_span):
        # a degenerate span gets the least grid, a stencil on each side
        # and one cell more each: 2 * _WIDTH + 2 = 30 modes, unfolded
        nf, _, fold = sp._fine_grid(x_span, k_span)
        assert (nf, fold) == (2 * sp._WIDTH + 2, 1) == (30, 1)


class TestTableRows:
    def test_criterion_7_comb_takes_the_band(self):
        comb, ks, w = criterion_7_case()
        columns = sp._columns(comb)
        anchors, weights = sp._band(columns, w)
        # one row per m, 8,947 rows of 9 cells for 66,491 points
        assert weights.shape == (8947, 9)
        assert weights.shape[0] * (weights.shape[1] + 1) <= 2 * len(comb)
        # each cell (row, r) holds the weight of the point anchor + r, the
        # anchors being the points' (m, n) less one common translation
        (m, _, _), (n, _, _) = anchors
        row, col = np.nonzero(weights)
        mn = comb.coords.mn
        cells = np.stack([m[row], n[row] + col], axis=1)
        cells += mn.min(axis=0) - cells.min(axis=0)
        assert (dict(zip(map(tuple, cells.tolist()), weights[row, col]))
                == dict(zip(map(tuple, mn.tolist()), w)))
        table = sp._table_power(columns, w, ks)
        exact = exact_power(comb, w, ks)
        # measured 8.3e-16 of max, per point 1.1e-15
        assert np.max(np.abs(table - exact)) <= 1e-10 * np.max(exact)

    def test_criterion_7_call_memory(self):
        # the rows' arrays stay within _TILE entries: the call peaked at
        # 3.9 MiB, against 4.1 MiB with one row per point
        comb, ks, _ = criterion_7_case()
        ap.bragg_amplitudes(comb, ks)
        _, peak = traced(lambda: ap.bragg_amplitudes(comb, ks))
        assert peak < 5 * 2 ** 20

    def test_wide_band_call_memory(self):
        # two rows of 10,000 cells: rows * (U + 1) is about N, but U > rows,
        # and a band's (U x k) column arrays would outgrow the rows' tiles
        # (a 30 MiB peak); one row per point keeps the call at 1.6 MiB
        comb = wide_band_comb()
        ks = np.random.default_rng(5).uniform(0.0, 100.0, size=64)
        ap.bragg_amplitudes(comb, ks[:1])
        with recorded(sp) as plans:
            _, peak = traced(lambda: ap.bragg_amplitudes(comb, ks))
        assert [p.path for p in plans] == ["tables"]
        assert peak < 5 * 2 ** 20

    @pytest.mark.parametrize("kind", ["chain", "tiling", "square", "integer", "wide"])
    def test_rows_of_one_point_keep_their_bits(self, kind):
        rng = np.random.default_rng(23)
        if kind == "chain":  # one point per m: rows * (U + 1) = 3N
            comb = ap.generate_model_set(ap.fibonacci_scheme(),
                                         ap.EuclideanWindow(((-0.3, 0.7),)), (-5000, 5000))
        elif kind == "wide":  # U = 10,000 cells in 2 rows
            comb = wide_band_comb()
        elif kind == "tiling":  # 40,001 points: more than one tile per k
            comb = ap.sample(ap.fibonacci_spec(), 20_000, seed=4).comb
        elif kind == "square":  # table_path_inputs' scattered module pairs
            mn = np.unique(rng.integers(-40, 41, size=(1500, 2)), axis=0)
            comb = ap.WeightedComb.from_module(mn, np.ones(len(mn)), 200.0)
        else:
            comb = ap.WeightedComb.from_integers(
                rng.choice(10 ** 5, size=3000, replace=False), np.ones(3000), 1e5)
        w = rng.normal(size=len(comb)) + 1j * rng.normal(size=len(comb))
        columns = sp._columns(comb)
        rows, weights = sp._band(columns, w)
        assert rows is columns and weights.shape == (len(comb), 1)
        for count in (1, 7, 130):
            ks = rng.uniform(-20.0, 20.0, size=count)
            assert np.array_equal(sp._table_power(columns, w, ks),
                                  per_point_power(columns, w, ks))


class TestLatticePath:
    @pytest.mark.parametrize("n, count, x_span, k_span, lattice, path", [
        (2_050, 16_385, 4_096.0, 1.0, 1 << 14, "lattice"),  # paperfolding 2^11 on [0, 1]
        (16_386, 1_025, 512.0, 2.0, 512, "lattice"),        # criterion 8, wrapped span
        (200_001, 3, 1.0, 2.0, 1, "lattice"),               # rational Bragg at 0, 1, 2
        (2, 1, 2e9, 0.0, 1 << 18, "tables"),                # +-1e9 at k = 2^-18
        (2_050, 16_385, 4_096.0, 1.0, 0, "nufft"),          # no lattice length
    ])
    def test_path_choice(self, n, count, x_span, k_span, lattice, path):
        assert cheapest(n, count, x_span, k_span, sp._NS_TABLE, lattice) == path

    @pytest.mark.parametrize("scale", [1.0, 0.5, 4.0])
    def test_huge_k_give_the_weight_sum(self, scale):
        # every k is an integer multiple of 4, so k x is an integer at each
        # scale: each value is |sum w|^2 / vol, with integer weights exactly
        rng = np.random.default_rng(17)
        values = np.unique(rng.integers(-10 ** 6, 10 ** 6, size=500))
        weights = rng.integers(-3, 4, size=len(values)).astype(float)
        comb = ap.WeightedComb.from_integers(values, weights, 1e6 * scale, scale)
        ks = np.array([2.0 ** 60, 1e300, -2.0 ** 60, -1e300, 0.0])
        with recorded(sp) as plans:
            vals = ap.periodogram_values(comb, ks)
        assert [(p.path, p.lattice) for p in plans] == [("lattice", 1)]
        assert np.array_equal(vals, np.full(len(ks), weights.sum() ** 2 / comb.volume))

    def test_integer_k_sum_the_weights(self):
        # the rational tiling (2, 1, 0.5) of 200,001 points at k = 0, 1, 2:
        # every k*scale is an integer, the DFT length is 1, and each sum is
        # the weights' sum, with no array of the comb's length (c & 0 and a
        # bincount into one bin peaked at 3.05 MiB)
        spec = ap.RandomTilingSpec(Fraction(2), Fraction(1), 0.5)
        comb = ap.sample(spec, 100_000, seed=31).comb
        ks = np.array([0.0, 1.0, 2.0])
        ap.bragg_amplitudes(comb, ks, taper="boxcar")
        with recorded(sp) as plans:
            values, peak = traced(lambda: ap.bragg_amplitudes(comb, ks, taper="boxcar"))
        assert len(comb) == 200_001 and [(p.path, p.lattice) for p in plans] == [("lattice", 1)]
        assert peak <= 2 ** 19
        exact = exact_power(comb, comb.weights, ks)
        assert np.max(np.abs(values * comb.volume ** 2 - exact)) <= 1e-12 * np.max(exact)

    def test_two_point_comb_at_dyadic_grid(self):
        # +-1e9 at 10,000 multiples of 2^-14: one FFT of length 2^14, exact,
        # with no allocation that scales with the 2e9 span
        a = 10 ** 9
        comb = ap.WeightedComb.from_integers([-a, a], [1.0, 1.0], float(a))
        ks = np.arange(10_000) * 2.0 ** -14
        assert sp._lattice_length(comb.coords, ks) == 1 << 14
        power, peak = traced(
            lambda: sp._lattice_power(comb.coords.values, comb.weights, ks, 1 << 14))
        assert peak < 64 * 2 ** 20
        exact = 4.0 * np.cos(2.0 * math.pi * np.mod(ks * a, 1.0)) ** 2
        assert np.max(np.abs(power - exact)) <= 1e-12 * np.max(exact)

    def test_one_k_turns_down_a_k_set_that_is_not_dyadic(self):
        # a 512-k linspace fails at its middle k, and the levels of its k
        # are never read; a dyadic set is read in full
        comb = integer_comb(100)
        levels = mock.patch.object(sp, "_dyadic_levels", wraps=sp._dyadic_levels)
        for ks, length, reads in [(np.linspace(0.0, 2.0, 512), 0, []),
                                  (np.arange(512) / 256, 256, [512]),
                                  (np.zeros(3), 1, [3]),  # k = 0 has level 0
                                  (np.zeros(0), 1, [0])]:
            with levels as spy:
                assert sp._lattice_length(comb.coords, ks) == length
            assert [len(c.args[0]) for c in spy.call_args_list] == reads

    def test_one_fine_k_keeps_the_tables(self):
        # k = 2^-18 needs a DFT of length 2^18 for two points: the tables
        # cost less, and the cost rule takes them
        a = 10 ** 9
        comb = ap.WeightedComb.from_integers([-a, a], [1.0, 1.0], float(a))
        ks = np.array([2.0 ** -18])
        with recorded(sp) as plans:
            vals = ap.periodogram_values(comb, ks)
        assert [(p.path, p.lattice) for p in plans] == [("tables", 1 << 18)]
        exact = 4.0 * math.cos(2.0 * math.pi * ((a % 2 ** 18) / 2 ** 18)) ** 2
        assert abs(vals[0] * comb.volume - exact) <= 1e-12 * max(exact, 1.0)

    @pytest.mark.parametrize("scale, ks", [
        (1.0, 0.02 * np.arange(64)),          # k not dyadic
        (3.0, np.arange(64) / 64),            # a scale no power of two
        (1.0, np.array([2.0 ** -19])),        # a DFT longer than the grid cap
        (None, np.arange(64) / 64),           # float positions
        (4.0, np.array([1e308])),             # k*scale overflows
    ])
    def test_outside_the_rule(self, scale, ks):
        values = np.arange(-50, 51)
        if scale is None:
            comb = ap.WeightedComb.from_positions(values.astype(float), np.ones(101), 50.0)
        else:
            comb = ap.WeightedComb.from_integers(values, np.ones(101), 50.0 * scale, scale)
        with recorded(sp) as plans:
            assert np.all(np.isfinite(ap.periodogram_values(comb, ks)))
        assert plans[0].lattice == 0 and plans[0].path != "lattice"


class TestUniformGrid:
    def test_values_and_count(self):
        ks = sp.uniform_grid(-1.0, 2.0, 0.37)
        assert ks.tolist() == [-1.0 + 0.37 * i for i in range(9)]
        assert sp.uniform_grid(0.5, 0.5, 0.1).tolist() == [0.5]
        # 0.3 / 0.1 rounds to 2.9999999999999996 steps: k_max is still on the grid
        assert len(sp.uniform_grid(0.0, 0.3, 0.1)) == 4

    def test_same_bits_as_arange_on_a_whole_number_of_steps(self):
        ks = sp.uniform_grid(0.0, 2.0, 0.01)
        assert ks.tobytes() == np.arange(0.0, 2.0 + 0.005, 0.01).tobytes()

    def test_stops_at_k_max(self):
        # 200.7 steps: the grid ends at step 200, not one step past k_max
        ks = sp.uniform_grid(0.0, 2.007, 0.01)
        assert len(ks) == 201 and ks[-1] == 2.0

    @pytest.mark.parametrize("k_min, k_max, dk, match", [
        (0.0, 1.0, 0.0, "positive"), (0.0, 1.0, -0.1, "positive"),
        (1.0, 0.0, 0.1, "empty"), (0.0, math.nan, 0.1, "finite"),
    ])
    def test_rejected(self, k_min, k_max, dk, match):
        with pytest.raises(ap.OutOfRangeError, match=match):
            sp.uniform_grid(k_min, k_max, dk)


def reference_bragg_extract(pgram, threshold):
    """The scalar loop bragg_extract replaced, kept as its oracle."""
    v = pgram.values
    out = []
    for i in range(len(v)):
        left = v[i - 1] if i > 0 else -math.inf
        right = v[i + 1] if i + 1 < len(v) else -math.inf
        if v[i] >= left and v[i] > right and v[i] / (2.0 * pgram.radius) >= threshold:
            out.append((float(pgram.ks[i]), float(v[i] / (2.0 * pgram.radius))))
    return out


class TestBraggExtract:
    def test_delta_z_atoms_at_integers(self):
        n = 1000
        pgram = ap.periodogram(integer_comb(n), -0.1, 2.2, 1.0 / (8 * n))
        atoms = ap.bragg_extract(pgram, threshold=0.5)
        ks = [k for k, _ in atoms]
        assert len(ks) == 3
        assert np.allclose(ks, [0.0, 1.0, 2.0], atol=1e-6)
        assert all(abs(i - 1.0) <= 1e-2 for _, i in atoms)

    def test_white_noise_no_atoms(self):
        n = 1000
        rng = np.random.default_rng(42)
        w = rng.choice([-1.0, 1.0], size=2 * n + 1)
        comb = ap.WeightedComb.from_integers(np.arange(-n, n + 1), w, float(n))
        pgram = ap.periodogram(comb, 0.0, 5.0, 1.0 / 1024)
        atoms = ap.bragg_extract(pgram, threshold=0.05)
        assert len(atoms) <= 2

    def test_rational_tiling_intensities(self):
        spec = ap.RandomTilingSpec(Fraction(2), Fraction(1), 0.5)
        s = ap.sample(spec, 100000, seed=31)
        est = ap.bragg_amplitudes(s.comb, np.array([0.0, 1.0, 2.0]),
                                  taper="boxcar")
        assert np.max(np.abs(est - 4.0 / 9.0)) <= 0.02

    def test_scaling_ratio_separates_bragg_from_ac(self):
        n = 2000
        bragg_ratio = ap.bragg_scaling_ratio(integer_comb(n), [1.0])
        assert bragg_ratio[0] >= BRAGG_RATIO_THRESHOLD
        rng = np.random.default_rng(6)
        w = rng.choice([-1.0, 1.0], size=2 * n + 1)
        noise = ap.WeightedComb.from_integers(np.arange(-n, n + 1), w, float(n))
        ks = np.linspace(0.21, 0.79, 40)
        ratios = ap.bragg_scaling_ratio(noise, ks)
        assert np.median(ratios) < BRAGG_RATIO_THRESHOLD

    def test_threshold_validated(self):
        pgram = ap.periodogram(integer_comb(10), 0.0, 1.0, 0.05)
        with pytest.raises(ap.OutOfRangeError):
            ap.bragg_extract(pgram, threshold=0.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        # a NaN threshold used to pass the check and select no atom
        pgram = ap.periodogram(integer_comb(10), 0.0, 1.0, 0.05)
        with pytest.raises(ap.OutOfRangeError, match="finite"):
            ap.bragg_extract(pgram, threshold=threshold)

    @pytest.mark.parametrize("values", [
        [1.0, 3.0, 3.0, 3.0, 1.0],        # plateau: its last point is the peak
        [3.0, 3.0, 1.0, 2.0, 2.0],        # plateaus at both ends
        [5.0, 1.0, 1.0, 1.0, 4.0],        # maxima at either endpoint
        [2.0],                            # one grid point
        [1.0, 1.0, 1.0],                  # flat
        [0.0, 0.5, 0.0, 0.5, 0.49],       # peaks below and at the threshold
    ])
    def test_vectorized_matches_loop(self, values):
        pgram = ap.Periodogram(np.arange(len(values)) * 0.1, values, 0.1, 0.5)
        assert ap.bragg_extract(pgram, 0.5) == reference_bragg_extract(pgram, 0.5)

    def test_vectorized_matches_loop_on_paperfolding_grid(self):
        comb = pf.binary_comb(1 << 10)
        pgram = ap.periodogram(comb, 0.0, 1.0)
        for threshold in (2e-3, 1e-4):
            assert ap.bragg_extract(pgram, threshold) == \
                reference_bragg_extract(pgram, threshold)


class TestPaperfoldingSpectrum:
    def test_constant_weights_give_integer_comb(self):
        measure = ap.paperfolding_spectrum(1, 1, 1, 1, r_max=6, k_range=(0, 3))
        ks = measure.pp_atoms[:, 0]
        assert np.allclose(ks, [0.0, 1.0, 2.0, 3.0])
        assert np.allclose(measure.pp_atoms[:, 1], 1.0)
        # non-integer positions carry intensity zero
        for k in (0.5, 0.25, 0.125):
            assert ap.paperfolding_intensity(1, 1, 1, 1, k) == 0.0

    def test_binary_reduction_values(self):
        a = b = 1.0
        c = d = 0.0
        assert ap.paperfolding_intensity(a, b, c, d, 1.0) == 0.25
        assert ap.paperfolding_intensity(a, b, c, d, 0.5) == 0.0
        assert ap.paperfolding_intensity(a, b, c, d, 0.25) == 1.0 / 16.0
        for r in (3, 4, 5):
            k = 1.0 / 2 ** r
            assert ap.paperfolding_intensity(a, b, c, d, k) == 4.0 ** (-r)

    def test_quaternary_values(self):
        a, b, c, d = 1.0, 1.0j, -1.0, -1.0j
        assert ap.paperfolding_intensity(a, b, c, d, 1.0) == 0.0
        assert ap.paperfolding_intensity(a, b, c, d, 0.5) == 0.0
        assert ap.paperfolding_intensity(a, b, c, d, 0.25) == 0.25
        for r in (3, 4):
            assert ap.paperfolding_intensity(a, b, c, d, 1.0 / 2 ** r) == \
                4.0 / 4.0 ** r

    def test_atom_enumeration_in_range(self):
        measure = ap.paperfolding_spectrum(1, 1, 0, 0, r_max=4, k_range=(0, 1))
        expected = {0.0, 1.0, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875,
                    0.0625, 0.1875, 0.3125, 0.4375, 0.5625, 0.6875, 0.8125, 0.9375}
        assert set(measure.pp_atoms[:, 0]) == expected

    def test_total_intensity_matches_eta0(self):
        # binary comb: eta(0) is the density of ones, 1/2; the partial sums
        # approach it as r_max grows
        for r_max in (6, 10, 16):
            total = paperfolding_total_intensity(1, 1, 0, 0, r_max)
            tail = sum(2.0 ** (r - 1) / 4.0 ** r for r in range(r_max + 1, 60))
            assert total < 0.5
            assert abs(total + tail - 0.5) <= 1e-12
        # and against the summed measure over [0, 1)
        measure = ap.paperfolding_spectrum(1, 1, 0, 0, r_max=12, k_range=(0, 1))
        total = paperfolding_total_intensity(1, 1, 0, 0, 12)
        in_unit = measure.pp_atoms[:, 1].sum() - measure.atom_at(1.0)
        assert abs(in_unit - total) <= 1e-12

    def test_r_max_validated(self):
        with pytest.raises(ap.OutOfRangeError):
            ap.paperfolding_spectrum(1, 1, 0, 0, r_max=2, k_range=(0, 1))
        with pytest.raises(ap.OutOfRangeError):
            ap.paperfolding_spectrum(1, 1, 0, 0, r_max=33, k_range=(0, 1e-6))

    def test_non_dyadic_k_has_no_atom(self):
        # a rounded 1/3 is m/2^54 as a double; it must not read as an atom
        for k in (1.0 / 3.0, 0.1, 2.0 / 3.0 + 1.0):
            assert ap.paperfolding_intensity(1, 1, 0, 0, k) == 0.0

    def test_dyadic_levels_match_loop(self):
        # the level read off the double is the scalar loop it replaced
        def loop(k, cap):
            return next((r for r in range(cap + 1) if k * 2 ** r == round(k * 2 ** r)), cap + 1)
        rng = np.random.default_rng(18)
        ks = np.concatenate([
            rng.integers(-2 ** 40, 2 ** 40, size=2_000) / 2.0 ** rng.integers(0, 45, size=2_000),
            rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200),
            [0.0, -0.0, 1.0, 2.0 ** 60, 1e300, 1 / 3, 3 / 2 ** 32, 3 / 2 ** 33, 5e-324, -2.5]])
        for cap in (18, 32):
            assert sp._dyadic_levels(ks, cap).tolist() == [loop(k, cap) for k in ks.tolist()]

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
    def test_non_finite_k_rejected(self, k):
        with pytest.raises(ap.OutOfRangeError, match="finite"):
            ap.paperfolding_intensity(1, 1, 0, 0, k)

    def test_dyadic_cap(self):
        # m/2^r is an atom up to r = 32 and not beyond
        assert ap.paperfolding_intensity(1, 1, 0, 0, 3.0 / 2 ** 32) == 4.0 ** -32
        assert ap.paperfolding_intensity(1, 1, 0, 0, 3.0 / 2 ** 33) == 0.0

    @pytest.mark.parametrize("k_range", [(0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)])
    def test_non_finite_k_range_rejected(self, k_range):
        with pytest.raises(ap.OutOfRangeError, match="finite"):
            ap.paperfolding_spectrum(1, 1, 0, 0, r_max=8, k_range=k_range)

    def test_inexact_atom_positions_rejected(self):
        # odd m/2^32 near 2^21 needs 54 bits: the rounded positions collide
        with pytest.raises(ap.OutOfRangeError, match="exact doubles"):
            ap.paperfolding_spectrum(1, 1, 0, 0, r_max=32,
                                     k_range=(2.0 ** 21, 2.0 ** 21 + 1e-6))
        top = 2.0 ** 21 - 2.0 ** -32
        measure = ap.paperfolding_spectrum(1, 1, 0, 0, r_max=32, k_range=(top, top))
        assert measure.pp_atoms.tolist() == [[top, 4.0 ** -32]]

    def test_total_intensity_sums_the_levels(self):
        a, b, c, d = 1, 2, 3, 4j
        total = (abs(a + b + c + d) ** 2 + abs(a - b + c - d) ** 2
                 + 2 * abs(a - c) ** 2) / 16.0
        total += sum(2.0 ** (r - 1) * abs(b - d) ** 2 / 4.0 ** r for r in range(3, 11))
        assert math.isclose(paperfolding_total_intensity(a, b, c, d, 10), total,
                            rel_tol=1e-15)
        measure = ap.paperfolding_spectrum(a, b, c, d, r_max=10, k_range=(0, 1))
        in_unit = measure.pp_atoms[:, 1].sum() - measure.atom_at(1.0)
        assert math.isclose(in_unit, total, rel_tol=1e-12)


class TestEstimatorConsistency:
    def test_quaternary_comb_matches_closed_form(self):
        # all four weights distinct, one complex: every level of the table
        # is nonzero, and the boxcar estimates meet criterion 2's 5e-3
        # (measured at most 5.5e-4)
        weights = (1, 2, 3, 4j)
        comb = pf.quaternary_comb(2 ** 13, weights)
        ks = np.array([1.0, 0.5, 0.25, 0.75, 0.125, 0.375, 0.0625, 1.0 / 3.0])
        est = ap.bragg_amplitudes(comb, ks, taper="boxcar")
        ref = np.array([ap.paperfolding_intensity(*weights, k) for k in ks])
        assert ref[-1] == 0.0 and np.all(ref[:-1] > 0)
        assert np.max(np.abs(est - ref)) <= 5e-3

    def test_bragg_estimates_stable_under_doubling(self):
        # regression fixture: C = max |I_2n - I_n| * sqrt(n) <= 0.02 for the
        # binary paperfolding comb (measured 0.0156 at n = 2^10, decreasing)
        ks = np.array([1.0, 0.25, 0.125])
        for log2n in (10, 11, 12):
            n = 1 << log2n
            i_n = ap.bragg_amplitudes(pf.binary_comb(n), ks, taper="boxcar")
            i_2n = ap.bragg_amplitudes(pf.binary_comb(2 * n), ks, taper="boxcar")
            dev = np.max(np.abs(i_2n - i_n))
            assert dev * math.sqrt(n) <= 0.02


class TestLatticePeriodicity:
    def test_delta_z_period_one(self):
        pgram = ap.periodogram(integer_comb(500), 0.0, 2.0, 1.0 / 256)
        report = ap.lattice_periodicity_check(pgram, ap.dual_lattice(Z_BASIS),
                                              1e-6)
        assert report.passed
        assert report.max_relative <= 1e-6

    def test_paperfolding_binary_periodicity(self):
        comb = pf.binary_comb(1 << 12)
        pgram = ap.periodogram(comb, 0.0, 2.0, 1.0 / 512)
        report = ap.lattice_periodicity_check(pgram, ap.dual_lattice(Z_BASIS),
                                              1e-2)
        assert report.passed

    def test_random_weights_periodicity(self):
        rng = np.random.default_rng(7)
        n = 1000
        w = rng.choice([-1.0, 1.0], size=2 * n + 1)
        comb = ap.WeightedComb.from_integers(np.arange(-n, n + 1), w, float(n))
        pgram = ap.periodogram(comb, 0.0, 2.0, 1.0 / 128)
        report = ap.lattice_periodicity_check(pgram, ap.dual_lattice(Z_BASIS),
                                              5e-2)
        assert report.mean_discrepancy / max(pgram.values.max(), 1e-300) <= 5e-2
        assert report.passed

    def test_grid_mismatch_rejected(self):
        pgram = ap.periodogram(integer_comb(100), 0.0, 2.0, 0.3)
        with pytest.raises(GridMismatchError):
            ap.lattice_periodicity_check(pgram, ap.dual_lattice(Z_BASIS), 1e-2)


class TestComplementCheck:
    def test_even_odd_homometric(self):
        n = 1000
        evens = np.arange(-n, n + 1, 2, dtype=float)
        report = ap.complement_check(evens, Z_BASIS, n)
        assert report.identity_max_deviation <= 5e-2
        assert report.spectral_max_difference is not None
        assert report.spectral_max_difference <= 1e-2

    def test_full_lattice_degenerate(self):
        n = 100
        report = ap.complement_check(np.arange(-n, n + 1, dtype=float), Z_BASIS, n)
        assert report.degenerate
        assert "trivially" in report.message

    def test_bernoulli_half_subset(self):
        n = 1000
        rng = np.random.default_rng(1234)
        keep = rng.random(2 * n + 1) < 0.5
        subset = np.arange(-n, n + 1, dtype=float)[keep]
        report = ap.complement_check(subset, Z_BASIS, n)
        assert report.identity_max_deviation <= 5e-2
        assert report.bragg_shift_max_deviation <= 5e-2
        assert report.spectral_mean_difference is not None
        assert report.spectral_mean_difference <= 5e-2

    def test_non_subset_rejected(self):
        # a NaN point passed the subset test, and its cast to int64 surfaced
        # as "points outside the stated radius"
        for s_points in ([0.5], [0.0, math.nan], [0.0, math.inf], [-math.inf]):
            with pytest.raises(SubsetError):
                ap.complement_check(np.array(s_points), Z_BASIS, 10.0)

    def test_radius_must_be_finite_and_positive(self):
        # radius 0 raised a bare ZeroDivisionError; -1 with an empty S
        # reported a degenerate check with density -0.0
        for s_points, radius in (([0.0], 0.0), ([], -1.0), ([0.0], math.nan),
                                 ([0.0], math.inf)):
            with pytest.raises(ap.OutOfRangeError):
                ap.complement_check(np.array(s_points), Z_BASIS, radius)

    def test_empty_s_is_degenerate(self):
        # an empty S raised EmptyInputError from the autocorrelation, at any
        # radius, where an empty complement gave the degenerate report
        for radius in (10.0, 0.5):
            report = ap.complement_check(np.array([]), Z_BASIS, radius)
            assert report.degenerate and "trivially" in report.message
            assert report.dens_s == 0.0 and report.dens_c > 0.0

    @pytest.mark.parametrize("s_points", [[0.0, 0.0, 2.0], [0.0, -0.0, 2.0], [4.0, 2.0, 4.0]])
    def test_repeated_point_rejected(self, s_points):
        # a point listed twice raised "positions must be strictly ascending"
        # from the comb it was put in
        point = max(s_points, key=s_points.count)
        with pytest.raises(SubsetError, match=f"point {abs(point)}"):
            ap.complement_check(np.array(s_points), Z_BASIS, 10.0)

    def test_grid_on_aZ_takes_the_lattice_path(self):
        # the spectra of a comb on aZ have period 1/a: 512 points of
        # [0, 2/a) lose nothing, and at a = 1 they are multiples of 2^-8,
        # which the lattice path sums by one FFT of length 256 (a 512-point
        # linspace of [0, 2] took the wrapped NUFFT)
        evens = np.arange(-100, 101, 2.0)
        with recorded(sp) as plans:
            report = ap.complement_check(evens, Z_BASIS, 100)
        assert report.spectral_max_difference is not None
        assert "nufft" not in [p.path for p in plans]
        assert [(p.path, p.lattice) for p in plans if p.count == 512] == [("lattice", 256)] * 2

    def test_negative_spacing_is_the_same_lattice(self):
        # the basis -1 spans Z too: its report is the spacing +1 report
        evens = np.arange(-100, 101, 2.0)
        flipped = ap.complement_check(evens, ap.LatticeBasis(np.array([[-1.0]])), 100)
        assert not flipped.degenerate
        assert flipped == ap.complement_check(evens, Z_BASIS, 100)


class TestTaperNormalizations:
    def test_hann_line_calibration_on_delta_z(self):
        comb = integer_comb(1000)
        est = ap.bragg_amplitudes(comb, np.array([0.0, 1.0]), taper="hann")
        assert np.max(np.abs(est - 1.0)) <= 1e-2

    def test_density_mode_matches_boxcar_for_noise(self):
        rng = np.random.default_rng(8)
        n = 2000
        w = rng.choice([-1.0, 1.0], size=2 * n + 1)
        comb = ap.WeightedComb.from_integers(np.arange(-n, n + 1), w, float(n))
        ks = np.linspace(0.1, 0.9, 160)
        box = ap.periodogram_values(comb, ks, taper="boxcar").mean()
        hann = ap.periodogram_values(comb, ks, taper="hann",
                                     normalization="density").mean()
        assert math.isclose(box, hann, rel_tol=0.1)


UNIT_COMB = ap.WeightedComb.from_integers([-1, 0, 1], [1.0, 1.0, 1.0], 1.0)
PLANE = ap.LatticeBasis(np.eye(2))


@pytest.mark.parametrize("call, error, match", [
    (lambda: ap.Periodogram([0.0, 0.1], [1.0], 0.1, 1.0), ap.AperiodicaError,
     "grid and values differ in length"),
    (lambda: ap.Periodogram([0.0], [-1.0], 0.1, 1.0), ap.AperiodicaError,
     "values must be non-negative"),
    (lambda: ap.periodogram_values(UNIT_COMB, [0.1], taper="gauss"), ap.AperiodicaError,
     "unknown taper 'gauss'"),
    (lambda: ap.periodogram_values(ap.WeightedComb.from_positions([], [], 1.0), [0.1]),
     ap.EmptyInputError, "empty comb"),
    (lambda: ap.periodogram_values(UNIT_COMB, [0.1], normalization="peak"), ap.AperiodicaError,
     "unknown normalization 'peak'"),
    (lambda: ap.lattice_periodicity_check(ap.periodogram(UNIT_COMB, 0.0, 1.0, 0.25), PLANE, 0.1),
     ap.AperiodicaError, "periodicity check is one-dimensional"),
    # a period of 4 steps on a grid of 3 points
    (lambda: ap.lattice_periodicity_check(ap.periodogram(UNIT_COMB, 0.0, 0.5, 0.25), Z_BASIS,
                                          0.1), GridMismatchError, "grid shorter than one period"),
    (lambda: ap.complement_check([0.0], PLANE, 5.0), ap.AperiodicaError,
     "complement check is one-dimensional"),
    (lambda: ap.complement_check([0.0, 10.0], Z_BASIS, 5.0), SubsetError,
     "S reaches outside the ball"),
], ids=["periodogram-lengths", "periodogram-negative", "unknown-taper", "empty-comb",
        "unknown-normalization", "periodicity-2d", "periodicity-short-grid", "complement-2d",
        "complement-outside-ball"])
def test_invalid_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_no_extended_precision_in_the_library():
    # np.longdouble is the 80-bit x87 format on some platforms and float64
    # on others (MSVC, Apple silicon): a result that used it would differ
    # between them, so every phase is formed in integers
    library = Path(sp.__file__).parent
    assert [f.name for f in sorted(library.glob("*.py")) if "longdouble" in f.read_text()] == []
