"""Numerical diffraction estimation and closed-form spectra.

Periodogram values are

    value(k) = |sum_x v(x) T(x/n) e^(-2 pi i k x)|^2 / (vol(B_n) * mean(T)^2)

with T the boxcar taper by default.  With this normalization a Bragg atom
of intensity I produces value ~ vol(B_n) * I at its position, so intensity
estimates are value / vol; for the unit integer comb the estimate at
integer k is 1.  The optional Hann taper trades a slightly wider main lobe
for fast side-lobe decay, which matters when small atoms are read off next
to large ones.

The sums are evaluated on one of two paths, chosen from the input's shape
alone (point count N, k count K, and the fine-grid length that the position
span times the k span implies):

* direct summation, in blocks of _CHUNK complex exponentials; it serves
  small N*K and wide spans, and is the oracle for the other path;
* a type-3 non-uniform FFT (Lee & Greengard, J. Comput. Phys. 206 (2005) 1)
  with the exponential-of-semicircle kernel of Barnett, Magland &
  af Klinteberg (SIAM J. Sci. Comput. 41 (2019) C479), at a fixed
  tolerance of 1e-13, below the phase rounding of direct summation.  It
  serves integer, module and float positions at uniform or scattered k.

The fast path is taken when its cost estimate is below the direct one and
its fine grid fits the memory of one direct block.  Tests hold the two paths
within 1e-10 of the largest value of each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate, chebval

from .autocorr import estimate_autocorrelation
from .core import (
    AperiodicaError,
    EmptyInputError,
    LatticeBasis,
    OutOfRangeError,
    SpectralMeasure,
    WeightedComb,
    _own_copy,
    check_size,
    finite_range,
    next_fast_len,
    restrict,
)

_CHUNK = 1 << 18  # complex exponentials per direct evaluation block


class GridMismatchError(AperiodicaError):
    """Periodogram grid is incommensurate with the requested period."""


class SubsetError(AperiodicaError):
    """Points are not a subset of the stated lattice."""


@dataclass(frozen=True)
class Periodogram:
    """Periodogram on a uniform k grid."""

    ks: np.ndarray
    values: np.ndarray
    dk: float
    radius: float

    def __post_init__(self):
        ks = _own_copy(self.ks, float)
        vals = _own_copy(self.values, float)
        if len(ks) != len(vals):
            raise AperiodicaError("grid and values differ in length")
        if np.any(vals < 0):
            raise AperiodicaError("periodogram values must be non-negative")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "values", vals)


def _taper_weights(comb: WeightedComb, taper: str):
    """Tapered weights with the taper's mean and mean square over [-1, 1]."""
    if taper == "boxcar":
        return comb.weights, 1.0, 1.0
    if taper == "hann":
        s = comb.positions / comb.radius
        t = np.cos(0.5 * math.pi * np.clip(s, -1.0, 1.0)) ** 2
        return comb.weights * t, 0.5, 0.375  # mean, mean square of cos^2
    raise AperiodicaError(f"unknown taper {taper!r}")


def periodogram_values(comb: WeightedComb, ks, taper: str = "boxcar",
                       normalization: str = "line") -> np.ndarray:
    """Periodogram values at arbitrary k.

    "line" normalization divides by vol * mean(T)^2, making Bragg atoms of
    intensity I read vol * I at their position; "density" divides by
    vol * mean(T^2), which is the unbiased scale for an absolutely
    continuous background.  The two agree for the boxcar taper.
    """
    if len(comb) == 0:
        raise EmptyInputError("empty comb")
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    if not np.all(np.isfinite(ks)):
        raise OutOfRangeError("k values must be finite")
    w, t_mean, t_mean_sq = _taper_weights(comb, taper)
    if normalization == "line":
        norm = comb.volume * t_mean * t_mean
    elif normalization == "density":
        norm = comb.volume * t_mean_sq
    else:
        raise AperiodicaError(f"unknown normalization {normalization!r}")
    x = comb.positions
    if len(ks) and _use_nufft(len(x), len(ks), x[-1] - x[0], np.ptp(ks)):
        power = _nufft_power(x, w, ks)
    else:
        power = _direct_power(x, w, ks)
    return power / norm


def _direct_power(x: np.ndarray, w: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """|sum_j w_j e^(-2 pi i k x_j)|^2 at every k, by direct summation."""
    out = np.empty(len(ks))
    block = max(1, _CHUNK // max(len(x), 1))
    for start in range(0, len(ks), block):
        kc = ks[start:start + block]
        phases = np.exp(-2j * math.pi * np.outer(kc, x))
        out[start:start + block] = np.abs(phases @ w) ** 2
    return out


# -- type-3 NUFFT ---------------------------------------------------------------
#
# With positions centred to |x| <= X and k centred to |k| <= S, the sum
# F(k) = sum_j c_j e^(-2 pi i k x_j) is computed in three steps:
#   1. spread c_j / psi^(x_j) onto an x grid of spacing h with the kernel phi;
#   2. one FFT of length nf gives the spread sums at the k grid j*dk,
#      dk = 1/(nf h); divide by phi^(j dk) only at the modes step 3 reads;
#   3. interpolate those modes to each k with the kernel psi.
# phi and psi are the same ES kernel, _WIDTH cells of their grid wide.  The
# k grid oversamples the position span (dk = 1/(2 sigma X)) and the x grid
# oversamples the padded k span (h <= 1/(2 sigma S')), both by _SIGMA.

_NUFFT_TOL = 1e-13
_SIGMA = 2.0
_WIDTH = int(math.ceil(-math.log10(_NUFFT_TOL / 10.0)))  # kernel cells: 14
_BETA = 2.30 * _WIDTH                                     # ES shape at sigma 2
_T_MAX = _WIDTH / (4.0 * _SIGMA)  # largest argument of the kernel transform
_BLOCK = 2048                     # points spread, or k interpolated, per block
# fine-grid cap, from peak RSS measured around each path: a direct block of
# _CHUNK exponentials peaks at ~52 bytes each, and the fast path holds three
# complex arrays of nf modes (the grid, the FFT's scratch copy and its
# twiddle factors), 48 bytes a mode; the fast path may use no more
_GRID_CAP = 52 * _CHUNK // 48

# cost model, in ns as measured on a 2-core Xeon VM: direct summation per
# point*k; the fast path per point spread, per nf*log2(nf) of the FFT, per k
# interpolated, plus a fixed set-up
_NS_DIRECT = 55.0
_NS_SPREAD = 450.0
_NS_FFT = 3.0
_NS_INTERP = 350.0
_NS_FIXED = 5.0e5


def _es(z: np.ndarray) -> np.ndarray:
    """ES kernel exp(beta (sqrt(1 - z^2) - 1)), for z in [-1, 1]."""
    return np.exp(_BETA * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0))


def _es_transform_series() -> np.ndarray:
    """Chebyshev series on [0, _T_MAX] of the kernel's Fourier transform
    E(t) = int_{-1}^{1} es(z) e^(-2 pi i t z) dz.  The kernel is even, so E is
    a cosine integral; 16 Gauss-Legendre nodes on [0, 1] give it to 1e-14,
    and degree 20 holds that over the interval."""
    z, wq = np.polynomial.legendre.leggauss(32)
    z, wq = z[16:], 2.0 * wq[16:] * _es(z[16:])
    return chebinterpolate(
        lambda s: np.cos(math.pi * _T_MAX * np.outer(s + 1.0, z)) @ wq, 20)


_ES_SERIES = _es_transform_series()


def _es_transform(t: np.ndarray) -> np.ndarray:
    """E(|t|) for |t| <= _T_MAX, from its Chebyshev series."""
    return chebval(2.0 * np.abs(t) / _T_MAX - 1.0, _ES_SERIES)


def _fine_grid(x_span: float, k_span: float) -> tuple[int, float]:
    """Fine-grid length nf >= 4 sigma^2 X S', rounded up to a fast FFT
    length when it fits the cap, and the k-grid spacing dk for the given
    position and k spans."""
    half_k = 0.5 * k_span
    # a degenerate position span only needs some dk that keeps nf finite
    half_x = max(0.5 * x_span, 1.0 / max(half_k, 1.0))
    dk = 1.0 / (2.0 * _SIGMA * half_x)
    padded = half_k + 0.5 * _WIDTH * dk
    # the spread support, nf / sigma cells plus a stencil, must not wrap
    nf = max(math.ceil(2.0 * _SIGMA * padded / dk), 2 * _WIDTH + 2)
    return (next_fast_len(nf) if nf <= _GRID_CAP else nf), dk


def _use_nufft(n: int, count: int, x_span: float, k_span: float) -> bool:
    """Path choice from the input's shape: the fast path when its fine grid
    fits the cap and its estimated cost is below direct summation's."""
    nf, _ = _fine_grid(x_span, k_span)
    if nf > _GRID_CAP:
        return False
    fast = (_NS_FIXED + _NS_SPREAD * n + _NS_FFT * nf * math.log2(nf)
            + _NS_INTERP * count)
    return fast < _NS_DIRECT * n * count


def _nufft_power(x: np.ndarray, w: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """|sum_j w_j e^(-2 pi i k x_j)|^2 at every k, by the type-3 NUFFT.
    x must be ascending; the result drops a unit-modulus factor per k."""
    x_center = 0.5 * (x[0] + x[-1])
    k_center = 0.5 * (ks.max() + ks.min())
    nf, dk = _fine_grid(x[-1] - x[0], np.ptp(ks))
    h = 1.0 / (nf * dk)
    offsets = np.arange(_WIDTH)
    first = math.floor((x[0] - x_center) / h - 0.5 * _WIDTH)  # cell at index 0

    # 1. spread, pre-weighted by the k centre and the k kernel's transform
    grid = np.zeros(nf, dtype=complex)
    for start in range(0, len(x), _BLOCK):
        xb = x[start:start + _BLOCK] - x_center
        cb = (w[start:start + _BLOCK] * np.exp(-2j * math.pi * k_center * xb)
              / _es_transform(0.5 * _WIDTH * dk * xb))
        ub = xb / h
        left = np.ceil(ub - 0.5 * _WIDTH).astype(np.int64)
        cells = left[:, None] + offsets
        phi = _es((cells - ub[:, None]) * (2.0 / _WIDTH))
        idx = (cells - left[0]).ravel()
        lo = int(left[0]) - first
        size = int(left[-1]) - int(left[0]) + _WIDTH
        grid.real[lo:lo + size] += np.bincount(idx, (phi * cb.real[:, None]).ravel(), size)
        grid.imag[lo:lo + size] += np.bincount(idx, (phi * cb.imag[:, None]).ravel(), size)

    # 2. FFT; deconvolve only the modes under the interpolation stencils
    np.fft.fft(grid, out=grid)
    kappa = ks - k_center
    left = np.ceil(kappa / dk - 0.5 * _WIDTH).astype(np.int64)
    j_lo = int(left.min())
    touched = np.zeros(int(left.max()) - j_lo + _WIDTH, dtype=bool)
    for i in range(_WIDTH):
        touched[left - j_lo + i] = True
    j = np.flatnonzero(touched) + j_lo
    modes = np.zeros(len(touched), dtype=complex)
    # the grid starts at cell `first`: shift each mode's phase back
    shift = np.exp(-2j * math.pi * ((j * first) % nf) / nf)
    modes[j - j_lo] = grid[j % nf] * shift / _es_transform(0.5 * _WIDTH * h * dk * j)

    # 3. interpolate to each k
    out = np.empty(len(ks))
    for start in range(0, len(ks), _BLOCK):
        cells = left[start:start + _BLOCK, None] + offsets
        psi = _es((cells * dk - kappa[start:start + _BLOCK, None]) * (2.0 / (_WIDTH * dk)))
        out[start:start + _BLOCK] = np.abs(
            np.einsum("ij,ij->i", psi, modes[cells - j_lo])) ** 2
    return out * (4.0 / _WIDTH ** 2) ** 2


def uniform_grid(k_min: float, k_max: float, dk: float) -> np.ndarray:
    """The uniform grid k_min + dk*i for i = 0, 1, ... while it stays
    <= k_max (within 1e-9 of a step); OutOfRangeError for a non-finite
    bound or dk, dk <= 0, an empty range or a grid over the size budget."""
    k_min, k_max = finite_range((k_min, k_max), "k range")
    if not math.isfinite(dk):
        raise OutOfRangeError("dk must be finite")
    if dk <= 0:
        raise OutOfRangeError("dk must be positive")
    steps = (k_max - k_min) / dk
    check_size(steps + 1, "the k grid")
    return k_min + dk * np.arange(int(math.floor(steps + 1e-9)) + 1)


def periodogram(comb: WeightedComb, k_min: float, k_max: float,
                dk: float | None = None) -> Periodogram:
    """Periodogram on the uniform grid k_min, k_min + dk, ..., <= k_max.

    The default grid spacing 1/(8n) resolves the Dirichlet main lobes of
    Bragg peaks at averaging radius n.
    """
    if dk is None:
        dk = 1.0 / (8.0 * comb.radius)
    ks = uniform_grid(k_min, k_max, dk)
    return Periodogram(ks, periodogram_values(comb, ks), float(dk), comb.radius)


def bragg_extract(pgram: Periodogram, threshold: float) -> list[tuple[float, float]]:
    """Local maxima of the periodogram read as Bragg atoms: intensity
    estimate I = peak value / vol(B_n), n the periodogram's radius; peaks
    with I >= threshold.  A grid point is a maximum when it is >= its left
    and > its right neighbour, with -inf beyond either end, so a plateau
    reports its last point."""
    if not 0 < threshold < math.inf:
        raise OutOfRangeError(f"threshold must be finite and positive; got {threshold}")
    v = pgram.values
    intensity = v / (2.0 * pgram.radius)
    left = np.concatenate(([-math.inf], v[:-1]))
    right = np.concatenate((v[1:], [-math.inf]))
    peak = (v >= left) & (v > right) & (intensity >= threshold)
    return list(zip(pgram.ks[peak].tolist(), intensity[peak].tolist()))


def bragg_amplitudes(comb: WeightedComb, ks, taper: str = "hann") -> np.ndarray:
    """Bragg intensity estimates at prescribed positions: periodogram value
    over vol(B_n), with the Hann taper by default to suppress leakage from
    neighbouring atoms."""
    return periodogram_values(comb, ks, taper) / comb.volume


def bragg_scaling_ratio(comb: WeightedComb, ks, taper: str = "boxcar") -> np.ndarray:
    """Two-point volume-scaling probe: periodogram value at full radius over
    the value at half radius.  Bragg peaks grow linearly with volume (ratio
    near 2); an absolutely continuous background stays put (ratio near 1).
    A ratio of at least 1.7 classifies a peak as Bragg."""
    half = restrict(comb, comb.radius / 2.0)
    full_v = periodogram_values(comb, ks, taper)
    half_v = periodogram_values(half, ks, taper)
    return full_v / np.maximum(half_v, 1e-300)


BRAGG_RATIO_THRESHOLD = 1.7


# -- paperfolding closed form -------------------------------------------------

# largest r at which k = m/2^r counts as an atom position: every double is
# m/2^r for some r, so without a cap a rounded 1/3 (m/2^54) reads as an atom
_DYADIC_R_CAP = 32


def _dyadic_level(k: float) -> int | None:
    """The r with k = odd/2^r (r = 0 for integers) and r <= _DYADIC_R_CAP;
    None when no such r exists."""
    for r in range(_DYADIC_R_CAP + 1):
        scaled = k * (1 << r)
        if scaled == round(scaled):
            return r
    return None


def _level_intensities(a: complex, b: complex, c: complex, d: complex,
                       r_max: int) -> list[float]:
    """Intensity I_r of the atoms at odd/2^r (r = 0: at the integers), for
    r = 0..max(r_max, 2): |A+B+C+D|^2/16, |A-B+C-D|^2/16, |A-C|^2/16, then
    |B-D|^2/4^r for r >= 3."""
    return ([abs(a + b + c + d) ** 2 / 16.0, abs(a - b + c - d) ** 2 / 16.0,
             abs(a - c) ** 2 / 16.0]
            + [abs(b - d) ** 2 / 4.0 ** r for r in range(3, r_max + 1)])


def paperfolding_intensity(a: complex, b: complex, c: complex, d: complex,
                           k: float) -> float:
    """Atom intensity of the quaternary paperfolding comb at position k.

    k = odd/2^r carries the level intensity I_r of _level_intensities
    (integers: r = 0) for r <= 32; every other k has no atom.  Every double
    is m/2^r for some r, so the cap r <= 32 is what tells a dyadic k from a
    rounded one such as 1/3 (m/2^54); each atom it leaves out carries at
    most 4^-33 |B-D|^2.
    """
    r = _dyadic_level(k)
    if r is None:
        return 0.0
    return _level_intensities(a, b, c, d, r)[r]


def paperfolding_spectrum(a: complex, b: complex, c: complex, d: complex,
                          r_max: int, k_range: tuple[float, float]) -> SpectralMeasure:
    """Pure-point paperfolding diffraction with all atoms of denominator
    2^r, r <= r_max <= 32, inside the k range; zero-intensity positions are
    omitted (use paperfolding_intensity for the pointwise formula).  Level r
    holds the odd m/2^r (every integer at r = 0), all of intensity I_r;
    their count, at most (k_hi - k_lo) 2^r_max + r_max + 1, is sized first.
    """
    if not 3 <= r_max <= _DYADIC_R_CAP:
        raise OutOfRangeError(f"r_max must lie in [3, {_DYADIC_R_CAP}]")
    k_lo, k_hi = finite_range(k_range, "k range")
    top = 1 << r_max
    if max(abs(k_lo), abs(k_hi)) * top >= 2.0 ** 53:
        raise OutOfRangeError(
            f"atoms m/2^{r_max} beyond |k| = 2^{53 - r_max} are not exact doubles")
    check_size((k_hi - k_lo) * top + r_max + 1, "the paperfolding atom list")
    ks, intensities = [np.empty(0)], [np.empty(0)]
    for r, level in enumerate(_level_intensities(a, b, c, d, r_max)):
        if not level > 0:
            continue
        denom = 1 << r
        m_lo = math.ceil(k_lo * denom - 1e-12)
        m_hi = math.floor(k_hi * denom + 1e-12)
        if r > 0:
            m_lo += 1 - m_lo % 2  # even numerators reduce to a smaller r
        ks.append(np.arange(m_lo, m_hi + 1, 2 if r else 1, dtype=np.int64) / denom)
        intensities.append(np.full(len(ks[-1]), level))
    atoms = np.stack([np.concatenate(ks), np.concatenate(intensities)], axis=1)
    return SpectralMeasure(atoms[np.argsort(atoms[:, 0], kind="stable")])


def paperfolding_total_intensity(a: complex, b: complex, c: complex, d: complex,
                                 r_max: int) -> float:
    """Total atom intensity per unit k interval, summed up to denominator
    2^r_max: sum_r (atoms per unit at level r) * I_r, with one atom per
    unit at r <= 1 and 2^(r-1) at r >= 2."""
    total = 0.0
    for r, level in enumerate(_level_intensities(a, b, c, d, r_max)):
        total += max(1.0, 2.0 ** (r - 1)) * level
    return total


# -- lattice periodicity and complement homometry -----------------------------

@dataclass(frozen=True)
class PeriodicityReport:
    period: float
    max_discrepancy: float       # max |v(k + g*) - v(k)|
    max_relative: float          # normalized by the largest compared value
    mean_discrepancy: float
    passed: bool


def lattice_periodicity_check(pgram: Periodogram, dual_basis: LatticeBasis,
                              tolerance: float) -> PeriodicityReport:
    """Check periodogram periodicity under a dual-lattice generator: values
    at k and k + g* are compared for every grid point where both lie on the
    grid.  The grid spacing must divide the period."""
    if dual_basis.dim != 1:
        raise AperiodicaError("periodicity check is one-dimensional")
    period = float(abs(dual_basis.matrix[0, 0]))
    steps = period / pgram.dk
    if abs(steps - round(steps)) > 1e-9 or round(steps) == 0:
        raise GridMismatchError(
            f"grid spacing {pgram.dk} does not divide the period {period}")
    s = int(round(steps))
    if s >= len(pgram.values):
        raise GridMismatchError("grid shorter than one period")
    a = pgram.values[:-s]
    b = pgram.values[s:]
    diff = np.abs(b - a)
    scale = max(float(np.max(pgram.values)), 1e-300)
    max_rel = float(np.max(diff)) / scale
    return PeriodicityReport(period, float(np.max(diff)), max_rel,
                             float(np.mean(diff)), bool(max_rel <= tolerance))


_COMPLEMENT_KS = 512  # k points of the spectral comparison in complement_check


@dataclass(frozen=True)
class ComplementReport:
    dens_s: float
    dens_c: float
    identity_max_deviation: float    # (a) eta_c - dens_c vs eta_s - dens_s
    bragg_shift_max_deviation: float  # (b) spectral difference at dual points
    spectral_max_difference: float | None  # (c) near-equal densities, intensity scale
    spectral_mean_difference: float | None
    degenerate: bool                 # S^c empty: identity holds trivially
    message: str = ""


def complement_check(s_points, lattice: LatticeBasis, radius: float) -> ComplementReport:
    """Compare a lattice subset against its complement inside B_radius.

    (a) the finite-volume identity eta_c(z) - dens(S^c) = eta_s(z) - dens(S)
        over |z| <= radius/2 (boundary bias is O(1/n));
    (b) the periodogram difference against the predicted pure Bragg shift
        (dens(S^c) - dens(S)) * dens(lattice) at dual lattice points;
    (c) when the densities agree, the maximal spectral difference on the
        intensity scale over _COMPLEMENT_KS points of [0, 2/a], a the lattice
        spacing.
    """
    if lattice.dim != 1:
        raise AperiodicaError("complement check is one-dimensional")
    a = abs(float(lattice.matrix[0, 0]))  # the basis -a spans the same lattice
    s_points = np.asarray(s_points, dtype=float)
    ratios = s_points / a
    if np.any(np.abs(ratios - np.round(ratios)) > 1e-9):
        raise SubsetError("S is not a subset of the lattice")
    if np.any(np.abs(s_points) > radius + 1e-9):
        raise SubsetError("S reaches outside the ball")
    s_idx = np.round(ratios).astype(np.int64)
    check_size(2.0 * radius / a + 1.0, "the lattice points of the ball")
    all_idx = np.arange(math.ceil(-radius / a - 1e-9),
                        math.floor(radius / a + 1e-9) + 1, dtype=np.int64)
    c_idx = np.setdiff1d(all_idx, s_idx)
    vol = 2.0 * radius
    dens_s = len(s_idx) / vol
    dens_c = len(c_idx) / vol

    if len(c_idx) == 0:
        return ComplementReport(dens_s, dens_c, 0.0, 0.0, None, None, True,
                                "complement is empty; identity holds trivially")
    comb_s = WeightedComb.from_integers(s_idx, np.ones(len(s_idx)), radius, a)
    comb_c = WeightedComb.from_integers(c_idx, np.ones(len(c_idx)), radius, a)

    max_z = radius / 2.0
    est_s = estimate_autocorrelation(comb_s, max_z)
    est_c = estimate_autocorrelation(comb_c, max_z)
    lags = np.arange(0, int(math.floor(max_z / a)) + 1) * a
    dev = np.abs((est_c.eta_lookup(lags).real - dens_c)
                 - (est_s.eta_lookup(lags).real - dens_s))
    identity_dev = float(np.max(dev))

    dual = 1.0 / a
    dual_ks = np.array([0.0, dual, 2.0 * dual])
    i_s = bragg_amplitudes(comb_s, dual_ks, taper="boxcar")
    i_c = bragg_amplitudes(comb_c, dual_ks, taper="boxcar")
    predicted = (dens_c - dens_s) * (1.0 / a)
    bragg_dev = float(np.max(np.abs((i_c - i_s) - predicted)))

    spectral_max = spectral_mean = None
    if abs(dens_c - dens_s) <= 0.1 / a:  # near-equal densities: homometric regime
        k_grid = np.linspace(0.0, 2.0 / a, _COMPLEMENT_KS)
        v_s = periodogram_values(comb_s, k_grid)
        v_c = periodogram_values(comb_c, k_grid)
        diff = np.abs(v_c - v_s) / vol
        spectral_max = float(np.max(diff))
        spectral_mean = float(np.mean(diff))
    return ComplementReport(dens_s, dens_c, identity_dev, bragg_dev,
                            spectral_max, spectral_mean, False)
