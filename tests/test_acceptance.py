"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Stochastic
checks use fixed seeds so they are reproducible regressions.  Criterion 6's
histogram sup-norm clause is implemented exactly as stated and is expected
to fail: at 100 patches of 10^4 intervals the pooled histogram deviates
from the profile by 0.089 of its peak, against a stated tolerance of 0.05;
it is marked strict-xfail so a status change is flagged.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import aperiodica as ap
from aperiodica import paperfolding as pf
from aperiodica.randomtiling import patch_heights

from dekking_oracle import agrees_with_definition

FIB_D2 = 0.5236067977499790


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_cross_representation():
    """Substitution fixed points equal 2-adic model sets on [-2^16, 2^16]."""
    start = time.time()
    bound = 1 << 16
    exact = True
    for choice in ("w1", "w2"):
        sub = pf.letter_positions_substitution(choice, -bound, bound + 1)
        mod = pf.letter_positions_model_set(choice, -bound, bound + 1)
        for letter in "abcd":
            exact = exact and np.array_equal(sub[letter], mod[letter])
    elapsed = time.time() - start
    report(1, exact and elapsed < 10.0,
           f"paperfolding letters match exactly on [-2^16, 2^16] for w1 and w2 "
           f"({elapsed:.2f} s < 10 s)")


def test_criterion_2_paperfolding_spectrum():
    """Bragg estimates at k = 1, 1/4, 1/8, 1/16 hit 1/4, 1/16, 1/64, 1/256."""
    start = time.time()
    comb = pf.binary_comb(1 << 15)  # 2^16 + 1 lattice sites
    ks = np.array([1.0, 0.25, 0.125, 0.0625])
    targets = np.array([0.25, 1.0 / 16, 1.0 / 64, 1.0 / 256])
    est = ap.bragg_amplitudes(comb, ks, taper="boxcar")
    dev = np.max(np.abs(est - targets))
    elapsed = time.time() - start
    report(2, dev <= 5e-3 and elapsed < 60.0,
           f"binary-comb Bragg deviations max {dev:.2e} <= 5e-3 "
           f"({elapsed:.2f} s < 60 s)")


def test_criterion_3_coincidence():
    """Dekking and modular coincidence verdicts, agreement on a 10-rule suite."""
    from aperiodica.substitution import SubstitutionRule

    pf_dekking = ap.dekking_coincidence(ap.PAPERFOLDING)
    pf_modular = ap.modular_coincidence(ap.mfs_from_substitution(ap.PAPERFOLDING))
    tm_modular = ap.modular_coincidence(ap.mfs_from_substitution(ap.THUE_MORSE))
    rules = [
        ap.PAPERFOLDING,
        ap.THUE_MORSE,
        SubstitutionRule(("a",), {"a": "aa"}),
        SubstitutionRule(("a", "b"), {"a": "ab", "b": "aa"}),
        SubstitutionRule(("a", "b", "c", "d"),
                         {"a": "ab", "b": "ac", "c": "db", "d": "dc"}),
        SubstitutionRule(("a", "b"), {"a": "aab", "b": "abb"}),
        SubstitutionRule(("a", "b"), {"a": "aba", "b": "bab"}),
        SubstitutionRule(("a", "b", "c"), {"a": "abc", "b": "acb", "c": "acc"}),
        SubstitutionRule(("a", "b", "c"), {"a": "ab", "b": "cb", "c": "ab"}),
        SubstitutionRule(("a", "b"), {"a": "abab", "b": "baba"}),
    ]
    agree = True
    for rule in rules:
        dk = ap.dekking_coincidence(rule)
        verdict = ap.modular_coincidence(ap.mfs_from_substitution(rule),
                                         max_power=30)
        if dk is None:
            agree = agree and verdict.status == "never"
        else:
            agree = agree and verdict.status == "coincident" and verdict.power == dk
        # both searches run one column refinement; the oracle applies the definition
        modular = verdict.power if verdict.status == "coincident" else None
        agree = (agree and agrees_with_definition(rule, dk)
                 and agrees_with_definition(rule, modular))
    ok = (pf_dekking == 2 and pf_modular.status == "coincident"
          and pf_modular.power == 2 and tm_modular.status == "never" and agree)
    report(3, ok,
           "paperfolding coincides at power 2, Thue-Morse proven never, "
           "Dekking and modular verdicts agree with each other and with "
           "Dekking's definition (images grown to 2^16 letters) on the 10-rule suite")


def test_criterion_4_theorem7_pp():
    """Pure-point part: rational tiling Bragg lattice, Fibonacci lone atom."""
    spec = ap.RandomTilingSpec(Fraction(2), Fraction(1), 0.5)
    seeds = 50
    acc = ap.mean_bragg_amplitudes(spec, [0.0, 1.0, 2.0], 100000, seeds, 1000)
    rational_dev = float(np.max(np.abs(acc - 4.0 / 9.0)))

    fib = ap.fibonacci_spec()
    scan = np.arange(0.0, 2.5001, 0.02)
    mean_i = ap.mean_bragg_amplitudes(fib, scan, 100000, 25, 2000)
    flagged = scan[mean_i >= 0.05]
    only_origin = len(flagged) == 1 and flagged[0] == 0.0
    # volume-scaling probe confirms the flagged peak is Bragg
    probe = ap.sample(fib, 100000, seed=2000)
    ratio = ap.bragg_scaling_ratio(probe.comb, [0.0])[0]
    origin = ap.mean_bragg_amplitudes(fib, [0.0], 100000, seeds, 2000)[0]
    fib_dev = abs(origin - FIB_D2)
    ok = rational_dev <= 0.02 and only_origin and fib_dev <= 0.02 and ratio >= 1.7
    report(4, ok,
           f"rational Bragg mean dev {rational_dev:.2e} <= 0.02; Fibonacci scan "
           f"flags only k=0 (scaling ratio {ratio:.2f}), intensity dev "
           f"{fib_dev:.2e} <= 0.02")


def test_criterion_5_theorem7_ac():
    """Mean periodogram of the Fibonacci tiling against the closed-form ac
    density at 100 needle-free k points."""
    start = time.time()
    fib = ap.fibonacci_spec()
    ks = np.linspace(0.05, 2.0, 100)
    # needles: sharp local peaks of g (g > 1.5), excluded with margin 0.02
    keep = ap.needle_free(fib, ks)
    g = ap.ac_density_grid(fib, ks)[keep]
    # each k is a Welch-style local bin of 8 sub-offsets spaced 2e-4
    est = ap.mean_ac_periodogram(fib, ks, 10000, 200, 3000)
    rel = np.abs(est[keep] - g) / g
    elapsed = time.time() - start
    ok = rel.mean() <= 0.05 and rel.max() <= 0.15 and elapsed < 300.0
    report(5, ok,
           f"ac density at {int(keep.sum())} needle-free k points: mean rel dev "
           f"{rel.mean():.3f} <= 0.05, max {rel.max():.3f} <= 0.15 "
           f"({elapsed:.0f} s < 300 s)")


def test_criterion_6_theorem9_profile_and_scaling():
    """Theorem 9: profile constants and the sqrt(N) width scaling."""
    from scipy.integrate import quad

    f0_dev = abs(ap.scaling_profile(0.0) - 2.0 / math.sqrt(math.pi))
    integral = quad(ap.scaling_profile, -50, 50, epsabs=1e-12, limit=400)[0]
    int_dev = abs(integral - 1.0)

    spec = ap.fibonacci_spec()
    n = 10000
    std_n = np.concatenate(
        [patch_heights(spec, n, seed=5000 + i)
         for i in range(100)]).std()
    std_4n = np.concatenate(
        [patch_heights(spec, 4 * n, seed=7000 + i)
         for i in range(100)]).std()
    ratio = std_4n / std_n
    ok = f0_dev <= 1e-10 and int_dev <= 1e-8 and abs(ratio - 2.0) <= 0.1
    report(6, ok,
           f"f(0) dev {f0_dev:.1e} <= 1e-10, integral dev {int_dev:.1e} <= 1e-8, "
           f"width ratio {ratio:.3f} within 2 +- 5%")


@pytest.mark.xfail(strict=True,
                   reason="5% sup-norm tolerance is below the pooled-histogram "
                          "estimator's statistical floor at 100 patches: "
                          "walk-level occupation noise puts the measured "
                          "sup-norm at 0.089 of peak")
def test_criterion_6_theorem9_histogram_sup_norm():
    """Theorem 9 histogram clause, exactly as stated (expected to fail)."""
    spec = ap.fibonacci_spec()
    n, seeds = 10000, 100
    edges, counts = ap.empirical_height_histogram(spec, n, seeds, seed0=0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    bw = edges[1] - edges[0]
    expected = ap.internal_distribution(n, centers) * bw * 2 * n * seeds
    sup = np.abs(counts - expected).max() / expected.max()
    report(6, sup <= 0.05,
           f"(histogram clause) sup-norm {sup:.3f} of peak vs stated 0.05; "
           f"walk-level noise of 100 patches, expected to fail")


def test_criterion_7_theorem10():
    """Gaussian-weighted Fibonacci comb against the closed-form atoms."""
    scheme = ap.fibonacci_scheme()
    profile = ap.GaussianProfile(0.5)
    comb = ap.density_weighted_comb(scheme, profile, (-10000, 10000))
    measure = ap.theorem10_spectrum(scheme, profile, (0.0, 5.0))
    order = np.argsort(measure.pp_atoms[:, 1])[::-1][:20]
    atoms = measure.pp_atoms[order]
    est = ap.bragg_amplitudes(comb, atoms[:, 0], taper="hann")
    rel = np.max(np.abs(est - atoms[:, 1]) / atoms[:, 1])
    measured_rho2 = (comb.total_weight().real / comb.volume) ** 2
    origin_dev = abs(measure.atom_at(0.0) - measured_rho2) / measured_rho2
    ok = rel <= 0.02 and origin_dev <= 0.01
    report(7, ok,
           f"top-20 atoms max rel dev {rel:.2e} <= 0.02; k=0 atom vs squared "
           f"point density dev {origin_dev:.2e} <= 0.01")


def test_criterion_8_theorem4_and_5():
    """Dual-lattice periodicity and complement homometry checks."""
    z_basis = ap.LatticeBasis(np.array([[1.0]]))
    comb = pf.binary_comb(1 << 14)
    pgram = ap.periodogram(comb, 0.0, 2.0, 1.0 / 512)
    per = ap.lattice_periodicity_check(pgram, ap.dual_lattice(z_basis), 1e-2)

    n = 1000
    evens = np.arange(-n, n + 1, 2, dtype=float)
    even_odd = ap.complement_check(evens, z_basis, n)
    rng = np.random.default_rng(1234)
    keep = rng.random(2 * n + 1) < 0.5
    bern = ap.complement_check(np.arange(-n, n + 1, dtype=float)[keep],
                               z_basis, n)
    ok = (per.passed and per.max_relative <= 1e-2
          and even_odd.spectral_max_difference is not None
          and even_odd.spectral_max_difference <= 1e-2
          and bern.identity_max_deviation <= 5e-2)
    report(8, ok,
           f"paperfolding periodogram 1-periodic (max rel {per.max_relative:.1e} "
           f"<= 1e-2); even/odd spectra agree ({even_odd.spectral_max_difference:.1e} "
           f"<= 1e-2); Bernoulli identity dev {bern.identity_max_deviation:.1e} "
           f"<= 5e-2")


def test_criterion_9_property_suites():
    """Property suites run standalone and pass."""
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         str(Path(__file__).with_name("test_properties.py"))],
        capture_output=True, text=True)
    ok = result.returncode == 0
    tail = result.stdout.strip().splitlines()[-1] if result.stdout else ""
    report(9, ok, f"standalone property suite: {tail}")


def test_criterion_10_almost_period_evidence():
    """The theorem's hypotheses on the Fibonacci model set, and its P_epsilon
    gaps recorded as fixtures.

    A nonzero y in Z[tau] has |y| * |y*| = |N(y)| >= 1.  Two model-set
    points differ by a y with |y*| < 1, so they lie more than 1 apart and a
    unit window holds at most one; two essential differences differ by a y
    with |y*| < 2, so they lie more than 1/2 apart."""
    scheme = ap.fibonacci_scheme()
    window = ap.EuclideanWindow(((-0.3, 0.7),))
    comb = ap.generate_model_set(scheme, window, (-1000, 1000))
    est = ap.estimate_autocorrelation(comb, 500.0)
    hypotheses = ap.check_A1_A3(comb, est, 0.25)
    ok = hypotheses.window_sup == 1.0 and hypotheses.uniformly_discrete
    cands = est.support()
    cands = cands[np.abs(cands) <= 500]
    fixtures = {0.25: 423.9868443825, 0.5: 55.0112362388, 0.75: 4.2360679775}
    gaps = {}
    for eps, frozen in fixtures.items():
        p_eps = ap.epsilon_almost_periods(est, eps, cands)
        gap = ap.max_gap(p_eps, (-500.0, 500.0))
        gaps[eps] = gap
        ok = ok and math.isfinite(gap) and math.isclose(gap, frozen, abs_tol=1e-6)
    report(10, ok,
           f"unit-window sup {hypotheses.window_sup:g} == 1 and essential "
           f"differences >= 0.5 apart (least gap {hypotheses.min_ess_gap:.4f}); "
           "P_eps max gaps finite and equal to the recorded fixtures "
           + ", ".join(f"eps={e}: {g:.4f}" for e, g in gaps.items())
           + " (evidence for relative denseness, not proof)")
