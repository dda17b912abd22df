import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import aperiodica as ap
from aperiodica import core
from aperiodica.core import AperiodicaError


class TestWeightedComb:
    def test_sorted_and_distinct_enforced(self):
        with pytest.raises(AperiodicaError):
            ap.WeightedComb(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(AperiodicaError):
            ap.WeightedComb(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 1.0)

    def test_points_inside_ball(self):
        with pytest.raises(AperiodicaError):
            ap.WeightedComb(np.array([0.0, 5.0]), np.array([1.0, 1.0]), 2.0)

    def test_finite_weights(self):
        with pytest.raises(AperiodicaError):
            ap.WeightedComb(np.array([0.0]), np.array([np.inf]), 1.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
    def test_radius_finite_and_positive(self, radius):
        # unchecked, radius 0 divides by a zero volume and radius inf makes
        # every estimate 0
        with pytest.raises(ap.OutOfRangeError, match="finite and positive"):
            ap.WeightedComb(np.array([0.0]), np.array([1.0]), radius)

    def test_volume_dim1(self):
        comb = ap.WeightedComb.from_integers([0, 1], [1.0, 1.0], 3.0)
        assert comb.volume == 6.0

    def test_module_comb_positions(self):
        comb = ap.WeightedComb.from_module([[1, 0], [0, 1]], [1.0, 1.0], 2.0)
        assert np.allclose(comb.positions, [1.0, ap.TAU])


class TestRestrict:
    def test_integer_filtering(self):
        comb = ap.WeightedComb.from_integers([0, 1, 2, 3], np.ones(4), 3.0)
        small = ap.restrict(comb, 2.0)
        assert list(small.coords.values) == [0, 1, 2]
        assert small.radius == 2.0

    def test_identity_case(self):
        comb = ap.WeightedComb.from_integers([0, 1, 2], np.ones(3), 2.0)
        same = ap.restrict(comb, comb.radius)
        assert np.array_equal(same.positions, comb.positions)
        assert np.array_equal(same.weights, comb.weights)

    def test_radius_above_comb_radius_rejected(self):
        comb = ap.WeightedComb.from_integers([0], [1.0], 1.0)
        with pytest.raises(ap.OutOfRangeError):
            ap.restrict(comb, 2.0)

    def test_fibonacci_restriction_matches_regeneration(self):
        scheme = ap.fibonacci_scheme()
        window = ap.EuclideanWindow(((-0.3, 0.7),))
        big = ap.generate_model_set(scheme, window, (-100, 100))
        small = ap.restrict(big, 50.0)
        regen = ap.generate_model_set(scheme, window, (-50, 50))
        assert len(small) == len(regen)
        assert np.allclose(small.positions, regen.positions)

    def test_idempotent(self):
        comb = ap.WeightedComb.from_integers(np.arange(-10, 11), np.ones(21), 10.0)
        once = ap.restrict(comb, 4.0)
        twice = ap.restrict(once, 4.0)
        assert np.array_equal(once.positions, twice.positions)


class TestDualLattice:
    def test_identity_self_dual(self):
        basis = ap.LatticeBasis(np.eye(2))
        assert np.allclose(ap.dual_lattice(basis).matrix, np.eye(2))

    def test_diagonal(self):
        basis = ap.LatticeBasis(np.diag([2.0, 1.0]))
        assert np.allclose(ap.dual_lattice(basis).matrix, np.diag([0.5, 1.0]))

    def test_fibonacci_embedding_integrality(self):
        basis = ap.LatticeBasis(np.array([[ap.TAU, 1.0], [ap.TAU_CONJ, 1.0]]))
        dual = ap.dual_lattice(basis)
        rng = np.random.default_rng(11)
        for _ in range(100):
            mn = rng.integers(-50, 51, size=2)
            pq = rng.integers(-50, 51, size=2)
            x = basis.matrix @ mn
            k = dual.matrix @ pq
            assert abs(k @ x - round(k @ x)) < 1e-9

    def test_involution(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            if abs(np.linalg.det(m)) < 1e-3:
                continue
            basis = ap.LatticeBasis(m)
            back = ap.dual_lattice(ap.dual_lattice(basis))
            assert np.max(np.abs(back.matrix - basis.matrix)) < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(ap.DegenerateLatticeError):
            ap.LatticeBasis(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestModuleElement:
    def test_embed_and_star(self):
        x = ap.ModuleElement(1, 0)
        assert math.isclose(x.embed(), ap.TAU)
        assert math.isclose(x.star(), -1.0 / ap.TAU)

    def test_injectivity_within_bound(self):
        # distinct (m, n) with |m|, |n| <= 1000 embed at least 1e-12 apart,
        # equivalently |dm*tau + dn| > 1e-12 for all nonzero (dm, dn) with
        # |dm|, |dn| <= 2000
        dm = np.arange(1, 2001)
        frac = np.abs(dm * ap.TAU - np.round(dm * ap.TAU))
        assert np.min(frac) > 1e-12
        assert 1.0 > 1e-12  # dm = 0 case: |dn| >= 1

    def test_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m1, n1, m2, n2 = rng.integers(-100, 100, size=4)
            a, b = ap.ModuleElement(m1, n1), ap.ModuleElement(m2, n2)
            assert math.isclose((a + b).star(), a.star() + b.star(), abs_tol=1e-9)


class TestSpectralMeasure:
    def test_negative_intensity_rejected(self):
        with pytest.raises(AperiodicaError):
            ap.SpectralMeasure(np.array([[0.0, -1.0]]))

    def test_duplicate_positions_rejected(self):
        with pytest.raises(AperiodicaError):
            ap.SpectralMeasure(np.array([[0.0, 1.0], [0.0, 2.0]]))

    def test_atom_lookup(self):
        ms = ap.SpectralMeasure(np.array([[0.0, 1.0], [0.5, 0.25]]))
        assert ms.atom_at(0.5) == 0.25
        assert ms.atom_at(0.3) == 0.0


class TestCombCsv:
    def test_round_trip_dim1(self, tmp_path):
        comb = ap.WeightedComb.from_positions([-1.5, 0.25], [1 + 2j, 0.5 - 1j], 2.0)
        path = tmp_path / "comb.csv"
        ap.write_comb_csv(comb, path)
        text = path.read_bytes()
        assert text.startswith(b"x,re_weight,im_weight\n")
        assert b"\r" not in text
        back = ap.read_comb_csv(path, radius=2.0)
        assert np.allclose(back.positions, comb.positions)
        assert np.allclose(back.weights, comb.weights)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ap.read_comb_csv(tmp_path / "absent.csv")


class TestNextFastLen:
    def test_matches_scipy(self):
        from scipy.fft import next_fast_len

        ns = np.concatenate([np.arange(1, 2 ** 15 + 1),
                             np.random.default_rng(9).integers(1, 2 ** 32, 10_000,
                                                                endpoint=True)])
        assert [core.next_fast_len(int(n)) for n in ns] == [
            next_fast_len(int(n)) for n in ns]

    def test_past_the_table_rejected(self):
        assert core.next_fast_len(2 ** 32) == 2 ** 32
        with pytest.raises(ap.OutOfRangeError, match="FFT length"):
            core.next_fast_len(2 ** 32 + 1)


def raises_before_allocating(call, match):
    """call() raises OutOfRangeError naming match within 1 s, with a
    tracemalloc peak under 16 MiB."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ap.OutOfRangeError, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 16 * 2 ** 20


class TestSizeBudget:
    def test_budget_boundary(self):
        core.check_size(core.SIZE_BUDGET, "an array")
        for count in (core.SIZE_BUDGET + 1, math.inf, math.nan):
            with pytest.raises(ap.OutOfRangeError, match="an array"):
                core.check_size(count, "an array")

    # without the guard each asks numpy for 8 TB or more
    @pytest.mark.parametrize("call, match", [
        (lambda: ap.periodogram(ap.WeightedComb.from_integers([0, 1], [1, 1], 1.0),
                                0.0, 1e12, 1e-3), "k grid"),
        (lambda: ap.generate_model_set(ap.fibonacci_scheme(),
                                       ap.EuclideanWindow(((-0.3, 0.7),)), (0, 1e17)),
         "m range"),
        (lambda: ap.generate_model_set(ap.qadic_scheme(), ap.QAdicWindow(((0, 4),)),
                                       (0, 1e12)), "2-adic region"),
        # one letter, but the word must grow past 2^40 letters to reach it
        (lambda: ap.fixed_point(ap.PAPERFOLDING, ("b", "a")).window(2 ** 40, 2 ** 40 + 1),
         "fixed-point word"),
        (lambda: ap.complement_check(np.array([0.0]), ap.LatticeBasis(np.array([[1e-12]])),
                                     1.0), "lattice points"),
        (lambda: ap.pp_part(ap.RandomTilingSpec(2, 1, 0.5), 1e12), "Bragg lattice"),
        (lambda: ap.paperfolding_spectrum(1, 1, 0, 0, 8, (0.0, 1e9)), "atom list"),
    ], ids=["periodogram-grid", "slab-m-range", "2-adic-region", "fixed-point-word",
            "complement-lattice", "tiling-bragg-lattice", "paperfolding-atoms"])
    def test_guard_raises_before_allocating(self, call, match):
        raises_before_allocating(call, match)

    def test_slab_candidates_guarded(self):
        # 183 m values, but 17,888 points; at the real budget a square
        # window and region of side 2.2e5 would make 1.2e10 candidates
        window = ap.EuclideanWindow(((-100.0, 100.0),))
        with mock.patch.object(core, "SIZE_BUDGET", 10_000):
            raises_before_allocating(
                lambda: ap.generate_model_set(ap.fibonacci_scheme(), window, (-100, 100)),
                "candidate list")
        assert len(ap.generate_model_set(ap.fibonacci_scheme(), window, (-100, 100))) == 17_888

    def test_paperfolding_atoms_guarded(self):
        # r_max 14 on [0, 1] has 16,384 atoms; the bound sized first is
        # 1 * 2^14 + 14 + 1
        with mock.patch.object(core, "SIZE_BUDGET", 10_000):
            raises_before_allocating(
                lambda: ap.paperfolding_spectrum(1, 1, 0, 0, 14, (0.0, 1.0)), "atom list")
        assert len(ap.paperfolding_spectrum(1, 1, 0, 0, 14, (0.0, 1.0)).pp_atoms) == 16_384
