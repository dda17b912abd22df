"""Cut-and-project machinery with two concrete internal spaces: the
Euclidean line of the golden module Z[tau] (star map: algebraic
conjugation) and the 2-adic integers (residue-class windows).

The Euclidean scheme embeds the module Z*tau + Z as the planar lattice
with basis columns (tau, tau') and (1, 1); physical and internal
coordinates are the two components, so the canonical projections are the
orthogonal coordinate projections and the fundamental-domain volume is
|tau - tau'| = sqrt(5).

2-adic windows are finite unions of residue classes r mod 2^k plus finite
exception sets, which is exactly enough to encode the paperfolding letter
sets including the single extra point -1 that distinguishes the two
bi-infinite fixed points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    SQRT5,
    TAU,
    TAU_CONJ,
    AperiodicaError,
    ModuleElement,
    OutOfRangeError,
    SpectralMeasure,
    WeightedComb,
    check_size,
    finite_range,
    module_star,
)


class EmptyWindowError(AperiodicaError):
    """Window accepts nothing."""


class ProfileError(AperiodicaError):
    """Weight profile unsuitable for the requested operation."""


_GAUSS_CUTOFF = 1e-12  # Gaussian weights below this are left out of a comb
_PRUNE = 1e-14         # closed-form atoms below this intensity are left out
# 8-byte entries that _slab_points holds at once (tracemalloc peaks at
# +-1e6 and in square slabs): up to 9 per m value, plus 7 per candidate once
# the candidates exist
_SLAB_PER_M = 9
_SLAB_PER_CANDIDATE = 7
# the paperfolding letter windows are truncated at classes mod 2^(m+2),
# m <= _PAPERFOLDING_M_MAX, and are exact for |x| < 2^_PAPERFOLDING_M_MAX
_PAPERFOLDING_M_MAX = 24


# -- schemes -----------------------------------------------------------------

@dataclass(frozen=True)
class CutProjectScheme:
    """Cut-and-project scheme with one-dimensional physical space; its
    internal space is the Euclidean line of Z[tau] when `euclidean` is set,
    the 2-adic integers otherwise."""

    euclidean: bool

    @property
    def fd_volume(self) -> float:
        """Covolume of the embedding lattice (Euclidean internal space)."""
        if not self.euclidean:
            raise AperiodicaError("fd volume exists for Euclidean internal space")
        return SQRT5


def fibonacci_scheme() -> CutProjectScheme:
    return CutProjectScheme(True)


def qadic_scheme() -> CutProjectScheme:
    return CutProjectScheme(False)


def star(scheme: CutProjectScheme, x):
    """Star map into internal space.

    Euclidean: m*tau + n maps to m*tau' + n (algebraic conjugation, exact
    on the integer pair).  2-adic: the integer itself represents its image
    in the completion; window tests reduce mod 2^k.
    """
    if scheme.euclidean:
        if not isinstance(x, ModuleElement):
            raise AperiodicaError("Euclidean star map needs a ModuleElement")
        return x.star()
    return int(x)


# -- windows -------------------------------------------------------------------

def _entry(key: str, value, parse, expected: str):
    """parse(value) for the window entry `key`.  A value of the wrong shape
    or type, or a bound that is not finite, raises AperiodicaError naming
    the entry and the shape it needs."""
    try:
        return parse(value)
    except (TypeError, ValueError):
        raise AperiodicaError(f"\"{key}\" must be {expected}; got {value!r}") from None


def _finite(x) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(x)
    return x


def _integers(values) -> frozenset:
    # operator.index, not int(): int() would truncate 2.5 to 2
    return frozenset(operator.index(x) for x in values)


@dataclass(frozen=True)
class EuclideanWindow:
    """Finite union of disjoint half-open intervals [lo, hi) with finite
    bounds and nonempty interior."""

    intervals: tuple

    def __post_init__(self):
        ivs = _entry("window", self.intervals, lambda e: sorted(
            (_finite(lo), _finite(hi)) for lo, hi in e),
            "a list of finite [lo, hi] number pairs")
        if not ivs:
            raise EmptyWindowError("window has no intervals")
        for i, (lo, hi) in enumerate(ivs):
            if hi <= lo:
                raise AperiodicaError(f"interval ({lo}, {hi}) is empty or reversed")
            if i and lo < ivs[i - 1][1]:
                raise AperiodicaError("window intervals overlap")
        object.__setattr__(self, "intervals", tuple(ivs))

    @property
    def total_length(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def bounds(self) -> tuple[float, float]:
        return self.intervals[0][0], self.intervals[-1][1]

    def contains(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        inside = np.zeros(y.shape, dtype=bool)
        for lo, hi in self.intervals:
            inside |= (y >= lo) & (y < hi)
        return inside


@dataclass(frozen=True)
class QAdicWindow:
    """Finite union of residue classes (r mod modulus) with finite added and
    removed integer sets.

    complete_below, when set, bounds the region on which the truncated class
    union is exact: generation outside |x| < complete_below is refused.
    """

    classes: tuple                      # ((residue, modulus), ...)
    added: frozenset = frozenset()
    removed: frozenset = frozenset()
    complete_below: int | None = None

    def __post_init__(self):
        cls = _entry("classes", self.classes, lambda e: tuple(
            (operator.index(r), operator.index(mod)) for r, mod in e),
            "a list of [residue, modulus] integer pairs")
        if any(mod < 1 for _, mod in cls):
            raise AperiodicaError("modulus must be positive")
        added = _entry("added", self.added, _integers, "a list of integers")
        removed = _entry("removed", self.removed, _integers, "a list of integers")
        if added & removed:
            raise AperiodicaError("a point cannot be both added and removed")
        complete_below = _entry("complete_below", self.complete_below, lambda v: (
            None if v is None else operator.index(v)), "an integer")
        object.__setattr__(self, "classes", tuple(sorted((r % mod, mod) for r, mod in cls)))
        object.__setattr__(self, "added", added)
        object.__setattr__(self, "removed", removed)
        object.__setattr__(self, "complete_below", complete_below)

    def is_empty(self) -> bool:
        return not self.classes and not self.added

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        inside = np.zeros(x.shape, dtype=bool)
        for r, mod in self.classes:
            inside |= (x - r) % mod == 0
        for a in self.added:
            inside |= x == a
        for a in self.removed:
            inside &= x != a
        return inside

    def points(self, first: int, last: int) -> np.ndarray:
        """The integers of [first, last] in the window, ascending, as int64.

        Each class contributes one arithmetic progression and the added
        points in range join them; one sort, a pass that drops equal
        neighbours (classes may overlap) and the removed points finish the
        set.  The cost is that of the output, not of the region.
        """
        parts = [np.arange(first + (r - first) % mod, last + 1, mod, dtype=np.int64)
                 for r, mod in self.classes]
        parts.append(np.array([a for a in self.added if first <= a <= last],
                              dtype=np.int64))
        # a stable sort merges the ascending progressions as runs
        xs = np.sort(np.concatenate(parts), kind="stable")
        # np.unique would sort again; on sorted input one comparison does
        keep = np.ones(len(xs), dtype=bool)
        np.not_equal(xs[1:], xs[:-1], out=keep[1:])
        xs = xs[keep]
        removed = [a for a in self.removed if first <= a <= last]
        if removed:
            xs = xs[~np.isin(xs, np.array(removed, dtype=np.int64))]
        return xs

    def union(self, other: "QAdicWindow") -> "QAdicWindow":
        cb = self.complete_below
        if other.complete_below is not None:
            cb = other.complete_below if cb is None else min(cb, other.complete_below)
        return QAdicWindow(self.classes + other.classes,
                           self.added | other.added,
                           self.removed | other.removed, cb)


# -- model set generation --------------------------------------------------

def generate_model_set(scheme: CutProjectScheme, window,
                       region: tuple[float, float]) -> WeightedComb:
    """All module points x in the region whose star image lies in the
    window, as a unit-weight comb; enumeration is exact.

    Euclidean: lattice points of the embedding are walked in the slab
    region x window.  2-adic: each residue class of the window is listed as
    an arithmetic progression over the region (qadic_points).
    """
    lo, hi = finite_range(region, "region")
    radius = max(abs(lo), abs(hi))
    if not scheme.euclidean:
        xs = qadic_points(window, (lo, hi))
        return WeightedComb._integers(xs, np.ones(len(xs), dtype=complex), radius)

    if not isinstance(window, EuclideanWindow):
        raise AperiodicaError("Euclidean scheme needs a EuclideanWindow")
    mn = _slab_points(window, lo, hi)
    return WeightedComb._module(mn, np.ones(len(mn), dtype=complex), radius)


def qadic_points(window, region: tuple[float, float]) -> np.ndarray:
    """The integers of the region in the 2-adic window, ascending, as int64
    (QAdicWindow.points).  EmptyWindowError for an empty window;
    OutOfRangeError for a region past the window's truncation bound,
    beyond int64 or over the size budget."""
    lo, hi = finite_range(region, "region")
    if not isinstance(window, QAdicWindow):
        raise AperiodicaError("2-adic scheme needs a QAdicWindow")
    if window.is_empty():
        raise EmptyWindowError("window accepts nothing")
    if window.complete_below is not None:
        if max(abs(lo), abs(hi)) >= window.complete_below:
            raise OutOfRangeError(
                f"region exceeds the window truncation bound "
                f"|x| < {window.complete_below}")
    if not max(abs(lo), abs(hi)) < 2.0 ** 63:
        raise OutOfRangeError(
            f"the 2-adic region ({lo}, {hi}) leaves int64: |x| < 2^63")
    check_size(math.floor(hi) - math.ceil(lo) + 1, "the 2-adic region")
    return window.points(math.ceil(lo), math.floor(hi))


def _slab_points(window: EuclideanWindow, lo: float, hi: float) -> np.ndarray:
    """Integer pairs (m, n) with m*tau + n in [lo, hi] and the star image
    in the window, ordered by m, then n.

    For each m the physical and internal constraints bound n to one
    interval; all intervals are expanded at once (np.repeat of m plus an
    offset arange), then the exact membership test runs on every candidate.
    """
    w_lo, w_hi = window.bounds()
    m_min = math.floor((lo - w_hi) / SQRT5) - 1
    m_max = math.ceil((hi - w_lo) / SQRT5) + 1
    check_size(_SLAB_PER_M * (m_max - m_min + 1), "the arrays of the slab's m range")
    ms = np.arange(m_min, m_max + 1, dtype=np.int64)
    m_theta, m_conj = ms * TAU, ms * TAU_CONJ
    n_lo = np.maximum(lo - m_theta, w_lo - m_conj)
    n_hi = np.minimum(hi - m_theta, w_hi - m_conj)
    first = np.ceil(n_lo - 1e-9).astype(np.int64)
    counts = np.floor(n_hi + 1e-9).astype(np.int64) - first + 1
    counts[n_hi < n_lo] = 0
    total = int(counts.sum())
    check_size(_SLAB_PER_M * len(ms) + _SLAB_PER_CANDIDATE * total,
               "the arrays of the slab's candidate list")
    starts = np.cumsum(counts) - counts
    ns = (np.arange(total, dtype=np.int64)
          - np.repeat(starts - first, counts))
    x = np.repeat(m_theta, counts) + ns
    y = np.repeat(m_conj, counts) + ns
    keep = (x >= lo) & (x <= hi) & window.contains(y)
    return np.stack([np.repeat(ms, counts)[keep], ns[keep]], axis=1)


# -- paperfolding windows ---------------------------------------------------

def paperfolding_windows(fixed_point_choice: str = "w1") -> dict:
    """The four 2-adic letter windows of the paperfolding fixed points.

    a: 4Z, c: 4Z + 2; b and d are unions over m = 1.._PAPERFOLDING_M_MAX of
    the classes 2^m - 1 and 3*2^m - 1 mod 2^(m+2).  The 2-adic limit point -1
    belongs to b for the first fixed point and to d for the second; with it,
    the truncated unions are exact for |x| < 2^_PAPERFOLDING_M_MAX.
    """
    if fixed_point_choice not in ("w1", "w2"):
        raise AperiodicaError("fixed_point_choice must be 'w1' or 'w2'")
    m_max = _PAPERFOLDING_M_MAX
    bound = 2 ** m_max
    b_classes = tuple((2 ** m - 1, 2 ** (m + 2)) for m in range(1, m_max + 1))
    d_classes = tuple((3 * 2 ** m - 1, 2 ** (m + 2)) for m in range(1, m_max + 1))
    exceptional = frozenset({-1})
    return {
        "a": QAdicWindow(((0, 4),), complete_below=bound),
        "b": QAdicWindow(b_classes,
                         added=exceptional if fixed_point_choice == "w1" else frozenset(),
                         complete_below=bound),
        "c": QAdicWindow(((2, 4),), complete_below=bound),
        "d": QAdicWindow(d_classes,
                         added=exceptional if fixed_point_choice == "w2" else frozenset(),
                         complete_below=bound),
    }


# -- density-weighted combs and their closed-form diffraction ----------------

@dataclass(frozen=True)
class GaussianProfile:
    """Internal weight profile phi(u) = exp(-u^2 / (2 sigma^2))."""

    sigma: float

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ProfileError(f"sigma must be finite and positive; got {self.sigma}")

    def __call__(self, u):
        return np.exp(-np.square(u) / (2.0 * self.sigma ** 2))

    def integral(self) -> float:
        return self.sigma * math.sqrt(2.0 * math.pi)

    def transform(self, k):
        """Fourier transform with the e^(-2 pi i k u) convention:
        phi_hat(k) = sigma * sqrt(2 pi) * exp(-2 pi^2 sigma^2 k^2)."""
        return self.sigma * math.sqrt(2.0 * math.pi) * np.exp(
            -2.0 * math.pi ** 2 * self.sigma ** 2 * np.square(k))


def density_weighted_comb(scheme: CutProjectScheme, profile, region) -> WeightedComb:
    """Comb sum of phi(x*) delta_x over module points x in the region.

    The profile is Gaussian; points with phi below _GAUSS_CUTOFF are
    dropped (the enumeration slab in internal space is finite).
    """
    if not scheme.euclidean:
        raise AperiodicaError("density-weighted combs need a Euclidean scheme")
    lo, hi = finite_range(region, "region")
    if not isinstance(profile, GaussianProfile):
        raise ProfileError("profile must be Gaussian")
    y_max = profile.sigma * math.sqrt(2.0 * math.log(1.0 / _GAUSS_CUTOFF))
    window = EuclideanWindow(((-y_max, y_max + 1e-12),))
    mn = _slab_points(window, lo, hi)
    weights = profile(module_star(mn[:, 0], mn[:, 1]))
    radius = max(abs(lo), abs(hi))
    return WeightedComb._module(mn, weights, radius)


def theorem10_autocorrelation(scheme: CutProjectScheme, profile,
                              z: ModuleElement) -> complex:
    """Closed-form autocorrelation coefficient of a Gaussian-weighted comb:

        eta(z) = (1 / vol(FD)) * integral phi(u) conj(phi(u - z*)) du
               = (sigma sqrt(pi) / vol(FD)) * exp(-(z*)^2 / (4 sigma^2))

    for the unit-amplitude Gaussian phi(u) = exp(-u^2 / (2 sigma^2)): the
    product of the two shifted Gaussians is exp(-(u - a/2)^2 / sigma^2) *
    exp(-a^2 / (4 sigma^2)) with a = z*, and the remaining integral is
    sigma sqrt(pi).
    """
    if not isinstance(profile, GaussianProfile):
        raise ProfileError("closed-form autocorrelation requires a Gaussian profile")
    zs = star(scheme, z)
    s = profile.sigma
    value = s * math.sqrt(math.pi) / scheme.fd_volume * math.exp(
        -zs * zs / (4.0 * s * s))
    return complex(value)


def theorem10_spectrum(scheme: CutProjectScheme, profile,
                       k_range: tuple[float, float]) -> SpectralMeasure:
    """Closed-form pure-point diffraction of a Gaussian-weighted comb:
    atoms at the physical projections y of the dual embedding lattice with
    intensity |phi_hat(-y*)|^2 / vol(FD)^2; atoms below _PRUNE are dropped.

    The dual lattice is {(x, -x*)/sqrt5 : x in Z[tau]}: the module point
    x = m tau + n gives the atom at y = (p - q tau')/sqrt5 with internal
    part (q tau - p)/sqrt5, for (p, q) = (m + n, m).  Its candidates are the
    slab points of x in sqrt5 times the k range, with |x*| within sqrt5
    times the internal bound that _PRUNE implies.
    """
    if not isinstance(profile, GaussianProfile):
        raise ProfileError("closed-form spectrum requires a Gaussian profile")
    if not scheme.euclidean:
        raise AperiodicaError("closed-form spectrum needs a Euclidean scheme")
    k_lo, k_hi = finite_range(k_range, "k range")
    vol = scheme.fd_volume
    # |phi_hat(y*)|^2 / vol^2 >= _PRUNE bounds the internal part
    amp0 = profile.integral()
    bound = _PRUNE * vol * vol
    if amp0 ** 2 <= bound:
        return SpectralMeasure(np.empty((0, 2)))
    y_max = math.sqrt(math.log(amp0 ** 2 / bound) /
                      (4.0 * math.pi ** 2 * profile.sigma ** 2))
    # the slab is a little wider than the atoms kept, so rounding in x and
    # x* loses none of them
    y = (y_max + 1e-9) * SQRT5
    mn = _slab_points(EuclideanWindow(((-y, y),)),
                      (k_lo - 1e-9) * SQRT5, (k_hi + 1e-9) * SQRT5)
    p, q = mn[:, 0] + mn[:, 1], mn[:, 0]
    k_phys = (p - q * TAU_CONJ) / SQRT5
    k_int = (q * TAU - p) / SQRT5
    intensity = np.abs(profile.transform(-k_int)) ** 2 / (vol * vol)
    keep = ((k_phys >= k_lo - 1e-12) & (k_phys <= k_hi + 1e-12)
            & (intensity >= _PRUNE))
    atoms = np.stack([k_phys, intensity], axis=1)[keep]
    return SpectralMeasure(atoms[np.argsort(atoms[:, 0], kind="stable")])
