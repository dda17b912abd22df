import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import aperiodica as ap
from aperiodica import paperfolding as pf
from aperiodica import spectrum as sp
from aperiodica.spectrum import (
    BRAGG_RATIO_THRESHOLD,
    GridMismatchError,
    SubsetError,
    paperfolding_total_intensity,
)

Z_BASIS = ap.LatticeBasis(np.array([[1.0]]))


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
            assert sp._use_nufft(len(comb), len(pgram.ks), np.ptp(comb.positions),
                                 np.ptp(pgram.ks))
            direct = sp._direct_power(comb.positions, comb.weights, pgram.ks) / comb.volume
            assert np.max(np.abs(direct - pgram.values)) <= tol * np.max(direct)

    @pytest.mark.parametrize("n, count, x_span, k_span, fast", [
        (20_001, 800, 27_640.0, 1.951, True),     # tiling-diffraction, criterion 5
        (2_050, 16_385, 4_096.0, 1.0, True),      # paperfolding 2^11 on [0, 1]
        (16_386, 1_025, 32_768.0, 2.0, True),     # criterion 8
        (4_473, 3_001, 10_000.0, 3.0, True),      # CLI model set, float positions
        (66_491, 20, 20_000.0, 4.96, False),      # criterion 7: grid over cap
        (200_001, 126, 276_534.0, 2.5, False),    # criterion 4 scan: grid over cap
        (1, 10_000, 0.0, 1.0, False),             # one point: direct is cheaper
        (2_000, 3, 4_000.0, 2.0, False),          # three k: direct is cheaper
    ])
    def test_path_choice(self, n, count, x_span, k_span, fast):
        assert sp._use_nufft(n, count, x_span, k_span) == fast

    def test_sparse_wide_comb_bounded_memory(self):
        # two points at +-1e9: no allocation may scale with the 2e9 span
        a = 10 ** 9
        comb = ap.WeightedComb.from_integers([-a, a], [1.0, 1.0], float(a))
        dk = 2.0 ** -14  # dyadic: every k * a is exact
        tracemalloc.start()
        try:
            pgram = ap.periodogram(comb, 0.0, 9_999 * dk, dk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pgram.ks) == 10_000
        assert peak < 64 * 2 ** 20
        phase = np.mod(pgram.ks * a, 1.0)
        exact = 4.0 * np.cos(2.0 * math.pi * phase) ** 2 / comb.volume
        # phases near 2 pi * 6e8 keep about 7 digits in double precision
        assert np.max(np.abs(pgram.values - exact)) <= 2e-6 * np.max(exact)

    def test_non_finite_k_rejected(self):
        with pytest.raises(ap.OutOfRangeError):
            ap.periodogram_values(integer_comb(10), [0.0, math.nan])

    @pytest.mark.parametrize("k_min, k_max, dk", [
        (0.0, math.nan, 0.01), (math.nan, 1.0, 0.01), (0.0, 1.0, math.nan),
        (0.0, math.inf, 0.01), (-math.inf, 1.0, 0.01), (0.0, 1.0, math.inf),
    ])
    def test_non_finite_grid_rejected(self, k_min, k_max, dk):
        with pytest.raises(ap.OutOfRangeError, match="finite"):
            ap.periodogram(integer_comb(10), k_min, k_max, dk)


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
        with pytest.raises(SubsetError):
            ap.complement_check(np.array([0.5]), Z_BASIS, 10.0)

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
