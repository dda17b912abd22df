"""Test-only references that the library does not export: the bounded
legality proxy of a substitution fixed point, the MFS action on multisets
and the symmetric-difference densities of a fixed point, the binary
paperfolding windows, the binomial and de Moivre-Laplace endpoint laws of
the golden random tiling, and the total atom intensity of the paperfolding
spectrum."""

from __future__ import annotations

import math

import numpy as np

from aperiodica.core import SQRT5, TAU, AperiodicaError, OutOfRangeError, check_size
from aperiodica.randomtiling import density, fibonacci_spec
from aperiodica.spectrum import _DYADIC_R_CAP, _level_intensities


def legal_clusters(rule, word, width: int = 16, n_max: int = 12,
                   sample_radius: int = 2048) -> bool:
    """Bounded legality check for the fixed multiset: every width-`width`
    window of the word within the sample radius must occur inside some
    iterate sigma^n(letter), n <= n_max.

    Full legality is not decidable by bounded search; this is a finite
    proxy for the hypothesis that every cluster of the fixed point is
    generated from a single point.
    """
    if width < 1 or n_max < 1:
        raise AperiodicaError("width and n_max must be positive")
    text = word.window(-sample_radius, sample_radius)
    windows = {text[i:i + width] for i in range(len(text) - width + 1)}
    haystacks, held = [], 0
    for letter in rule.alphabet:
        image = letter
        for _ in range(n_max):
            held += len(image) * rule.length
            check_size(held, "the iterates of the rule")
            image = rule.apply(image)
            haystacks.append(image)
    return all(any(w in h for h in haystacks) for w in windows)


def paperfolding_total_intensity(a: complex, b: complex, c: complex, d: complex,
                                 r_max: int) -> float:
    """Total atom intensity per unit k interval, summed up to denominator
    2^r_max: sum_r (atoms per unit at level r) * I_r, with one atom per
    unit at r <= 1 and 2^(r-1) at r >= 2, for 3 <= r_max <= 32."""
    if not 3 <= r_max <= _DYADIC_R_CAP:
        raise OutOfRangeError(f"r_max must lie in [3, {_DYADIC_R_CAP}]")
    total = 0.0
    for r, level in enumerate(_level_intensities(a, b, c, d, r_max)):
        total += max(1.0, 2.0 ** (r - 1)) * level
    return total


class NotLatticeSubstitutionError(AperiodicaError):
    """Unions in the MFS action overlap: not a lattice substitution system."""


def iterate_mfs(mfs, multiset, steps: int = 1) -> list[np.ndarray]:
    """Apply the MFS action to a multiset (one integer array per component),
    `steps` times.  Components must be pairwise disjoint and every union in
    the action must be disjoint, otherwise NotLatticeSubstitutionError."""
    current = [np.asarray(u, dtype=np.int64) for u in multiset]
    if len(current) != mfs.size:
        raise AperiodicaError("multiset has the wrong number of components")
    _check_disjoint(current, "input components overlap")
    q = mfs.inflation
    counts = mfs.substitution_matrix()
    for _ in range(steps):
        check_size(int(np.sum(counts @ [len(u) for u in current])), "the multiset after a step")
        new = []
        for i in range(mfs.size):
            parts = [q * current[j] + a
                     for j in range(mfs.size) for a in mfs.maps[i][j]]
            merged = np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
            if _has_repeats(merged):
                raise NotLatticeSubstitutionError(
                    f"overlapping union in component {i}")
            new.append(merged)
        _check_disjoint(new, "components overlap after substitution")
        current = new
    return current


def _has_repeats(ascending: np.ndarray) -> bool:
    """Whether an ascending array holds some value twice."""
    return bool(np.any(ascending[1:] == ascending[:-1]))


def _check_disjoint(arrays, message):
    if sum(len(a) for a in arrays):
        if _has_repeats(np.sort(np.concatenate([np.asarray(a) for a in arrays]))):
            raise NotLatticeSubstitutionError(message)


def symmetric_difference_density(mfs, word, alpha: int, n: int,
                                 window: int) -> np.ndarray:
    """Per-component density within [-window, window] of U_i symmetric-
    difference (Q^n * alpha + U_i), computed by direct enumeration."""
    if window <= 0:
        raise AperiodicaError("window must be positive")
    shift = mfs.inflation ** n * alpha
    lo, hi = -window, window + 1
    out = np.empty(mfs.size)
    positions = word.letter_positions(min(lo, lo - shift), max(hi, hi - shift))
    for i, a in enumerate(word.rule.alphabet):
        u = positions[a]
        u_win = u[(u >= lo) & (u < hi)]
        shifted = u + shift
        s_win = shifted[(shifted >= lo) & (shifted < hi)]
        sym = np.setxor1d(u_win, s_win)
        out[i] = len(sym) / (2.0 * window)
    return out


def binary_reduction(windows: dict) -> tuple:
    """Windows of the binary paperfolding reduction: letter 1 collects a and
    b, letter 0 collects c and d.  The unions coincide with the closed-form
    classes 2^m - 1 and 3*2^m - 1 mod 2^(m+2) taken from m = 0."""
    one = windows["a"].union(windows["b"])
    zero = windows["c"].union(windows["d"])
    m_max = max(mod for _, mod in one.classes).bit_length() - 3
    closed_one = tuple((2 ** m - 1, 2 ** (m + 2)) for m in range(0, m_max + 1))
    closed_zero = tuple((3 * 2 ** m - 1, 2 ** (m + 2)) for m in range(0, m_max + 1))
    if set(one.classes) != set((r % mod, mod) for r, mod in closed_one):
        raise AperiodicaError("binary reduction does not match its closed form")
    if set(zero.classes) != set((r % mod, mod) for r, mod in closed_zero):
        raise AperiodicaError("binary reduction does not match its closed form")
    return one, zero


def endpoint_distribution(m_intervals: int, m: int, p: float = 1.0 / TAU) -> float:
    """Probability that a patch of M intervals contains exactly m u-intervals,
    i.e. ends at x = m*u + (M-m)*v: the binomial mass C(M, m) p^m q^(M-m)."""
    big_m = int(m_intervals)
    if not 0 <= m <= big_m:
        raise OutOfRangeError(f"m = {m} outside 0..{big_m}")
    return math.comb(big_m, m) * p ** m * (1.0 - p) ** (big_m - m)


def gaussian_endpoint_density(m_intervals: int, x_star: float,
                              normalization: str = "unit-mass") -> float:
    """De Moivre-Laplace limit of the rightmost-endpoint height density for
    a golden-ratio patch of M intervals:

        rho(M, x*) = sqrt(tau / (2 pi M)) * exp(-tau x*^2 / (2 M)).

    The printed prefactor sqrt((1/pi) * tau/(2M)) equals this constant and
    already gives unit mass; quadrature in the test suite pins it.  The
    "point-density" normalization rescales the unit-mass density by the
    endpoint density times the fundamental-domain volume, d * sqrt(5).
    """
    big_m = int(m_intervals)
    if big_m < 1:
        raise OutOfRangeError("M must be at least 1")
    if normalization == "unit-mass":
        factor = 1.0
    elif normalization == "point-density":
        factor = density(fibonacci_spec()) * SQRT5
    else:
        raise AperiodicaError(f"unknown normalization {normalization!r}")
    value = math.sqrt(TAU / (2.0 * math.pi * big_m)) * math.exp(
        -TAU * x_star * x_star / (2.0 * big_m))
    return value * factor
