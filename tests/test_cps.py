import math

import numpy as np
import pytest
from scipy.integrate import quad

import aperiodica as ap
from aperiodica import paperfolding as pf
from aperiodica.cps import EmptyWindowError, ProfileError


class TestStar:
    def test_golden_conjugate(self):
        scheme = ap.fibonacci_scheme()
        value = ap.star(scheme, ap.ModuleElement(1, 0))
        assert math.isclose(value, -1.0 / ap.TAU, abs_tol=1e-12)
        assert math.isclose(value, -0.618034, abs_tol=1e-6)

    def test_zero(self):
        scheme = ap.fibonacci_scheme()
        assert ap.star(scheme, ap.ModuleElement(0, 0)) == 0.0

    def test_additive(self):
        scheme = ap.fibonacci_scheme()
        rng = np.random.default_rng(8)
        for _ in range(50):
            m1, n1, m2, n2 = rng.integers(-100, 100, size=4)
            a, b = ap.ModuleElement(m1, n1), ap.ModuleElement(m2, n2)
            assert math.isclose(ap.star(scheme, a + b),
                                ap.star(scheme, a) + ap.star(scheme, b),
                                abs_tol=1e-9)

    def test_qadic_star_is_integer(self):
        scheme = ap.qadic_scheme()
        assert ap.star(scheme, 7) == 7

    def test_fd_volume_is_sqrt5(self):
        scheme = ap.fibonacci_scheme()
        assert math.isclose(scheme.fd_volume, math.sqrt(5.0), rel_tol=1e-12)
        assert math.isclose(scheme.embedding_basis.covolume(), math.sqrt(5.0),
                            rel_tol=1e-12)


class TestGenerateModelSet:
    def test_qadic_residue_class(self):
        scheme = ap.qadic_scheme()
        window = ap.QAdicWindow(((0, 4),))
        comb = ap.generate_model_set(scheme, window, (0, 12))
        assert comb.coords.values.tolist() == [0, 4, 8, 12]

    def test_qadic_full_window(self):
        scheme = ap.qadic_scheme()
        window = ap.QAdicWindow(((0, 1),))  # all residues
        comb = ap.generate_model_set(scheme, window, (-3, 3))
        assert comb.coords.values.tolist() == list(range(-3, 4))

    def test_empty_window_rejected(self):
        scheme = ap.qadic_scheme()
        window = ap.QAdicWindow((), added=frozenset())
        with pytest.raises(EmptyWindowError):
            ap.generate_model_set(scheme, window, (0, 10))

    def test_fibonacci_against_brute_force(self):
        scheme = ap.fibonacci_scheme()
        window = ap.EuclideanWindow(((-0.3, 0.7),))
        comb = ap.generate_model_set(scheme, window, (0, 100))
        expected = []
        for m in range(-200, 201):
            for n in range(-400, 401):
                x = m * ap.TAU + n
                y = m * ap.TAU_CONJ + n
                if 0 <= x <= 100 and -0.3 <= y < 0.7:
                    expected.append(x)
        assert len(comb) == len(expected)
        assert np.allclose(np.sort(expected), comb.positions)

    def test_delone_property(self):
        scheme = ap.fibonacci_scheme()
        window = ap.EuclideanWindow(((-0.3, 0.7),))
        comb = ap.generate_model_set(scheme, window, (-500, 500))
        gaps = np.diff(comb.positions)
        assert np.min(gaps) > 0.9      # uniformly discrete
        assert np.max(gaps) < 10.0     # relatively dense

    @pytest.mark.parametrize("region", [(1e19, 1e19), (-1e19, -1e19), (0, 2.0 ** 63)])
    def test_2adic_region_beyond_int64_rejected(self, region):
        # unchecked, QAdicWindow.points ends in an OverflowError
        with pytest.raises(ap.OutOfRangeError, match="int64"):
            ap.generate_model_set(ap.qadic_scheme(), ap.QAdicWindow(((0, 4),)), region)

    def test_density_matches_window_length_over_covolume(self):
        scheme = ap.fibonacci_scheme()
        for length in (0.5, 1.0, 1.7):
            window = ap.EuclideanWindow(((-0.2, length - 0.2),))
            comb = ap.generate_model_set(scheme, window, (-5000, 5000))
            dens = len(comb) / 10000.0
            assert math.isclose(dens, length / math.sqrt(5.0), rel_tol=1e-2)


    @pytest.mark.parametrize("region", [(0, math.inf), (0, math.nan), (math.nan, 5),
                                        (-math.inf, 0)])
    @pytest.mark.parametrize("scheme, window", [
        (ap.fibonacci_scheme(), ap.EuclideanWindow(((-0.3, 0.7),))),
        (ap.qadic_scheme(), ap.QAdicWindow(((0, 4),))),
    ], ids=["euclidean", "2-adic"])
    def test_non_finite_region_rejected(self, scheme, window, region):
        with pytest.raises(ap.OutOfRangeError, match="finite"):
            ap.generate_model_set(scheme, window, region)


class TestPaperfoldingWindows:
    def test_b_window_positions(self):
        windows = ap.paperfolding_windows("w1")
        scheme = ap.qadic_scheme()
        comb = ap.generate_model_set(scheme, windows["b"], (0, 9))
        assert comb.coords.values.tolist() == [1, 3, 7, 9]

    def test_d_window_positions(self):
        windows = ap.paperfolding_windows("w1")
        scheme = ap.qadic_scheme()
        comb = ap.generate_model_set(scheme, windows["d"], (0, 13))
        assert comb.coords.values.tolist() == [5, 11, 13]

    def test_partition_of_z(self):
        windows = ap.paperfolding_windows("w1")
        xs = np.arange(-(1 << 12), (1 << 12) + 1)
        hits = sum(windows[letter].contains(xs).astype(int) for letter in "abcd")
        assert np.all(hits == 1)

    def test_exceptional_point_assignment(self):
        w1 = ap.paperfolding_windows("w1")
        w2 = ap.paperfolding_windows("w2")
        assert w1["b"].contains(np.array([-1]))[0]
        assert not w1["d"].contains(np.array([-1]))[0]
        assert w2["d"].contains(np.array([-1]))[0]
        assert not w2["b"].contains(np.array([-1]))[0]

    def test_region_beyond_truncation_rejected(self):
        windows = ap.paperfolding_windows("w1", m_max=8)
        scheme = ap.qadic_scheme()
        with pytest.raises(ap.OutOfRangeError):
            ap.generate_model_set(scheme, windows["b"], (0, 300))


class TestBinaryReduction:
    def test_ones_window(self):
        one, _ = ap.binary_reduction(ap.paperfolding_windows("w1"))
        scheme = ap.qadic_scheme()
        comb = ap.generate_model_set(scheme, one, (0, 10))
        assert comb.coords.values.tolist() == [0, 1, 3, 4, 7, 8, 9]

    def test_zeros_window_is_complement(self):
        one, zero = ap.binary_reduction(ap.paperfolding_windows("w1"))
        scheme = ap.qadic_scheme()
        ones = ap.generate_model_set(scheme, one, (0, 10)).coords.values
        zeros = ap.generate_model_set(scheme, zero, (0, 10)).coords.values
        assert zeros.tolist() == [2, 5, 6, 10]
        together = np.sort(np.concatenate([ones, zeros]))
        assert together.tolist() == list(range(11))

    def test_partition_over_larger_window(self):
        one, zero = ap.binary_reduction(ap.paperfolding_windows("w1"))
        xs = np.arange(-(1 << 12), (1 << 12) + 1)
        overlap = one.contains(xs) & zero.contains(xs)
        union = one.contains(xs) | zero.contains(xs)
        assert not np.any(overlap)
        assert np.all(union)


class TestCrossRepresentation:
    @pytest.mark.parametrize("choice", ["w1", "w2"])
    def test_substitution_equals_model_set(self, choice):
        lo, hi = -(1 << 12), (1 << 12) + 1
        sub = pf.letter_positions_substitution(choice, lo, hi)
        mod = pf.letter_positions_model_set(choice, lo, hi)
        for letter in "abcd":
            assert np.array_equal(sub[letter], mod[letter])


    @pytest.mark.parametrize("choice", ["w1", "w2"])
    def test_one_site_windows(self, choice):
        # [0, 1) is a region of radius 0, which no comb may have
        for lo in (-2, -1, 0, 1, 2):
            sub = pf.letter_positions_substitution(choice, lo, lo + 1)
            mod = pf.letter_positions_model_set(choice, lo, lo + 1)
            for letter in "abcd":
                assert np.array_equal(sub[letter], mod[letter])


class TestDensityWeightedComb:
    def test_indicator_reproduces_model_set(self):
        scheme = ap.fibonacci_scheme()
        window = ap.EuclideanWindow(((-0.3, 0.7),))
        model = ap.generate_model_set(scheme, window, (-50, 50))
        weighted = ap.density_weighted_comb(scheme, ap.IndicatorProfile(window),
                                            (-50, 50))
        assert np.array_equal(weighted.positions, model.positions)
        assert np.all(weighted.weights == 1.0)

    def test_narrow_gaussian_keeps_only_small_stars(self):
        scheme = ap.fibonacci_scheme()
        comb = ap.density_weighted_comb(scheme, ap.GaussianProfile(1e-3), (0, 100))
        stars = comb.coords.stars()
        assert np.all(np.abs(stars) <= 1e-3 * math.sqrt(2 * math.log(1e12)) + 1e-9)
        assert len(comb) <= 1

    def test_total_weight_density_matches_quadrature(self):
        scheme = ap.fibonacci_scheme()
        profile = ap.GaussianProfile(0.8)
        comb = ap.density_weighted_comb(scheme, profile, (-500, 500))
        dens = comb.total_weight().real / 1000.0
        rho = quad(profile, -20, 20)[0] / math.sqrt(5.0)
        assert math.isclose(dens, rho, rel_tol=2e-2)
        assert math.isclose(ap.point_density(scheme, profile), rho, rel_tol=1e-9)


    @pytest.mark.parametrize("region", [(0, math.inf), (math.nan, 5)])
    def test_non_finite_region_rejected(self, region):
        with pytest.raises(ap.OutOfRangeError, match="finite"):
            ap.density_weighted_comb(ap.fibonacci_scheme(), ap.GaussianProfile(0.5), region)


class TestTheorem10Autocorrelation:
    def test_positive_at_zero(self):
        scheme = ap.fibonacci_scheme()
        profile = ap.GaussianProfile(1.0)
        eta0 = ap.theorem10_autocorrelation(scheme, profile, ap.ModuleElement(0, 0))
        oracle = quad(lambda u: profile(u) ** 2, -20, 20)[0] / math.sqrt(5.0)
        assert eta0.real > 0
        assert math.isclose(eta0.real, oracle, abs_tol=1e-10)

    def test_hermitian_and_real(self):
        scheme = ap.fibonacci_scheme()
        profile = ap.GaussianProfile(1.0)
        z = ap.ModuleElement(2, -3)
        plus = ap.theorem10_autocorrelation(scheme, profile, z)
        minus = ap.theorem10_autocorrelation(scheme, profile, -z)
        assert plus.imag == 0.0
        assert plus == np.conj(minus)
        eta0 = ap.theorem10_autocorrelation(scheme, profile, ap.ModuleElement(0, 0))
        assert abs(plus) <= eta0.real

    def test_matches_quadrature_at_tau_minus_one(self):
        scheme = ap.fibonacci_scheme()
        profile = ap.GaussianProfile(1.0)
        z = ap.ModuleElement(1, -1)
        zs = z.star()
        oracle = quad(lambda u: profile(u) * profile(u - zs), -30, 30,
                      epsabs=1e-13)[0] / math.sqrt(5.0)
        value = ap.theorem10_autocorrelation(scheme, profile, z)
        assert abs(value.real - oracle) <= 1e-8

    def test_indicator_rejected(self):
        scheme = ap.fibonacci_scheme()
        window = ap.EuclideanWindow(((0.0, 1.0),))
        with pytest.raises(ProfileError):
            ap.theorem10_autocorrelation(scheme, ap.IndicatorProfile(window),
                                         ap.ModuleElement(0, 0))


class TestTheorem10Spectrum:
    def test_origin_atom_is_squared_density(self):
        scheme = ap.fibonacci_scheme()
        profile = ap.GaussianProfile(0.5)
        measure = ap.theorem10_spectrum(scheme, profile, (0.0, 5.0))
        rho = ap.point_density(scheme, profile)
        assert math.isclose(measure.atom_at(0.0), rho ** 2, rel_tol=1e-12)
        # closed form: 2 pi sigma^2 / 5 = pi / 10 at sigma = 1/2
        assert math.isclose(measure.atom_at(0.0), math.pi / 10.0, rel_tol=1e-12)

    def test_intensities_nonnegative_and_pruned(self):
        scheme = ap.fibonacci_scheme()
        measure = ap.theorem10_spectrum(scheme, ap.GaussianProfile(0.5), (0.0, 5.0))
        assert np.all(measure.pp_atoms[:, 1] >= 1e-14)

    def test_atoms_match_periodogram_at_moderate_radius(self):
        scheme = ap.fibonacci_scheme()
        profile = ap.GaussianProfile(0.5)
        comb = ap.density_weighted_comb(scheme, profile, (-2000, 2000))
        measure = ap.theorem10_spectrum(scheme, profile, (0.0, 3.0))
        order = np.argsort(measure.pp_atoms[:, 1])[::-1][:8]
        atoms = measure.pp_atoms[order]
        est = ap.bragg_amplitudes(comb, atoms[:, 0], taper="hann")
        assert np.max(np.abs(est - atoms[:, 1]) / atoms[:, 1]) < 5e-3

    def test_indicator_rejected(self):
        scheme = ap.fibonacci_scheme()
        window = ap.EuclideanWindow(((0.0, 1.0),))
        with pytest.raises(ProfileError):
            ap.theorem10_spectrum(scheme, ap.IndicatorProfile(window), (0.0, 1.0))

    @pytest.mark.parametrize("k_range", [(0.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_k_range_rejected(self, k_range):
        with pytest.raises(ap.OutOfRangeError, match="finite"):
            ap.theorem10_spectrum(ap.fibonacci_scheme(), ap.GaussianProfile(0.5), k_range)

    def test_atoms_at_range_ends_kept(self):
        # k = 2 is the atom of x = 4 tau - 2 = 2 sqrt5; rounding in x must
        # not drop it from either end of the range
        scheme, profile = ap.fibonacci_scheme(), ap.GaussianProfile(0.2)
        for k_range in ((2.0, 2.0), (0.0, 2.0), (2.0, 3.0)):
            assert ap.theorem10_spectrum(scheme, profile, k_range).atom_at(2.0) > 0


class TestWindows:
    def test_overlapping_intervals_rejected(self):
        with pytest.raises(ap.AperiodicaError):
            ap.EuclideanWindow(((0.0, 1.0), (0.5, 2.0)))

    def test_reversed_interval_rejected(self):
        with pytest.raises(ap.AperiodicaError):
            ap.EuclideanWindow(((1.0, 0.0),))

    def test_added_and_removed_conflict(self):
        with pytest.raises(ap.AperiodicaError):
            ap.QAdicWindow(((0, 2),), added=frozenset({3}), removed=frozenset({3}))

    @pytest.mark.parametrize("kwargs", [
        {"classes": ((1.5, 4.7),)}, {"classes": ((1, 4.0),)},
        {"classes": ((0, 4),), "added": frozenset({2.5})},
        {"classes": ((0, 4),), "removed": frozenset({"8"})},
        {"classes": ((0, 4),), "complete_below": 10.5},
    ], ids=["residue-and-modulus", "float-modulus", "added", "removed", "complete-below"])
    def test_non_integer_entries_rejected(self, kwargs):
        # int() made ((1.5, 4.7),) the class 1 mod 4, generating [1, 5, 9]
        with pytest.raises(ap.AperiodicaError, match="integer"):
            ap.QAdicWindow(**kwargs)

    def test_numpy_integer_entries_accepted(self):
        window = ap.QAdicWindow(((np.int64(1), np.int64(4)),), complete_below=np.int64(100))
        assert window.classes == ((1, 4),) and window.complete_below == 100
        comb = ap.generate_model_set(ap.qadic_scheme(), window, (0, 12))
        assert comb.coords.values.tolist() == [1, 5, 9]

    @pytest.mark.parametrize("intervals", [
        ((1,),), (("a", 2),), 5, ((math.nan, 0.7),), ((-math.inf, 0.7),),
    ], ids=["not-a-pair", "not-a-number", "not-a-list", "nan-bound", "infinite-bound"])
    def test_malformed_euclidean_window_rejected(self, intervals):
        # these used to raise a bare ValueError or TypeError, or to be accepted
        with pytest.raises(ap.AperiodicaError, match=r'"window" must be .*\[lo, hi\]'):
            ap.EuclideanWindow(intervals)

    @pytest.mark.parametrize("args, kwargs, key", [
        ((((1,),),), {}, "classes"),
        ((((1, 4),),), {"added": 5}, "added"),
        ((((1, 4),),), {"removed": 5}, "removed"),
        ((((1, 4),),), {"complete_below": "x"}, "complete_below"),
    ], ids=["class-not-a-pair", "added-not-a-list", "removed-not-a-list",
            "complete-below-not-an-integer"])
    def test_malformed_qadic_window_rejected(self, args, kwargs, key):
        with pytest.raises(ap.AperiodicaError, match=f'"{key}" must be'):
            ap.QAdicWindow(*args, **kwargs)

    @pytest.mark.parametrize("modulus", [0, -4])
    def test_nonpositive_modulus_rejected(self, modulus):
        with pytest.raises(ap.AperiodicaError, match="modulus must be positive"):
            ap.QAdicWindow(((1, modulus),))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1.0])
def test_gaussian_sigma_finite_and_positive(sigma):
    # nan and inf used to pass the sigma <= 0 check
    with pytest.raises(ProfileError, match="finite and positive"):
        ap.GaussianProfile(sigma)
