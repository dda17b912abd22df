"""One-dimensional binary random tilings: Bernoulli sampling with exact
endpoint arithmetic, the closed-form density and diffraction (pure-point
part and absolutely continuous background), and the internal-space height
statistics of the golden-ratio ensemble.

The ac background comes from the identity

    g(k) = d * (1 - |Phi(k)|^2) / |1 - Phi(k)|^2,
    Phi(k) = p e(k u) + q e(k v),  e(t) = exp(2 pi i t),

whose numerator and denominator are 4*pq*sin^2(pi k (u-v)) and
4*(p sin^2(pi k u) + q sin^2(pi k v) - pq sin^2(pi k (u-v))).  The
denominator vanishes exactly where k u and k v are both integers, so the
excluded points are handled by exact case analysis on the rational flag:
the removable value is d*pq*(u-v)^2/(p u + q v)^2, which in the rational
case equals d*pq*(a-b)^2/(p a + q b)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    SQRT5,
    TAU,
    AperiodicaError,
    ModuleElement,
    OutOfRangeError,
    SpectralMeasure,
    WeightedComb,
    check_size,
    module_position,
    module_star,
)
from .spectrum import bragg_amplitudes, periodogram_values

_erfc = np.frompyfunc(math.erfc, 1, 1)  # elementwise, as Python floats

_SINGULAR_TOL = 1e-9


@dataclass(frozen=True)
class RandomTilingSpec:
    """Two interval lengths u, v > 0 with occupation probabilities p, q=1-p.

    Lengths may be exact rationals (Fraction or int) or golden-ratio module
    elements; the rational flag, the reduced ratio a/b and the period unit
    xi = u/a = v/b are derived exactly when both lengths are rational.
    """

    u: Fraction | ModuleElement
    v: Fraction | ModuleElement
    p: float

    def __post_init__(self):
        u = _canonical_length(self.u)
        v = _canonical_length(self.v)
        # a module length promotes an integral partner into the same module
        if isinstance(u, ModuleElement) != isinstance(v, ModuleElement):
            u, v = _promote_pair(u, v)
        if not 0.0 < self.p < 1.0:
            raise OutOfRangeError("p must lie strictly between 0 and 1")
        if _length_value(u) <= 0 or _length_value(v) <= 0:
            raise OutOfRangeError("interval lengths must be positive")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def u_value(self) -> float:
        return _length_value(self.u)

    @property
    def v_value(self) -> float:
        return _length_value(self.v)

    @property
    def rational(self) -> bool:
        return isinstance(self.u, Fraction) and isinstance(self.v, Fraction)

    @property
    def ratio(self) -> Fraction | None:
        """alpha = u/v as a reduced fraction, None when irrational."""
        if not self.rational:
            return None
        return self.u / self.v

    @property
    def ab(self) -> tuple[int, int] | None:
        r = self.ratio
        if r is None:
            return None
        return r.numerator, r.denominator

    @property
    def xi(self) -> Fraction | None:
        """Common unit xi with u = a*xi, v = b*xi (rational case)."""
        if not self.rational:
            return None
        a, _ = self.ab
        return self.u / a

    @property
    def module(self) -> bool:
        return isinstance(self.u, ModuleElement) and isinstance(self.v, ModuleElement)


def _canonical_length(x):
    if isinstance(x, ModuleElement):
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        if float(x).is_integer():
            return Fraction(int(x))
        raise AperiodicaError(
            "non-integer float lengths are ambiguous; pass a Fraction or a "
            "ModuleElement")
    raise AperiodicaError(f"unsupported interval length {x!r}")


def _length_value(x) -> float:
    return x.embed() if isinstance(x, ModuleElement) else float(x)


def _promote_pair(u, v):
    module, other = (u, v) if isinstance(u, ModuleElement) else (v, u)
    if other.denominator != 1:
        raise AperiodicaError(
            "cannot mix a module length with a non-integer rational length")
    promoted = ModuleElement(0, int(other))
    return (module, promoted) if isinstance(u, ModuleElement) else (promoted, module)


def fibonacci_spec() -> RandomTilingSpec:
    """u = tau, v = 1 with occupation probabilities 1/tau and 1/tau^2."""
    return RandomTilingSpec(ModuleElement(1, 0), ModuleElement(0, 1), 1.0 / TAU)


@dataclass(frozen=True)
class TilingSample:
    """One sampled tiling patch: 2M intervals, M on each side of 0.

    Endpoints are accumulated exactly (integer module pairs or integer
    multiples of xi) and exposed as a unit-weight comb.  heights holds the
    internal coordinate of every endpoint for module specs.
    """

    spec: RandomTilingSpec
    seed: int
    types: np.ndarray            # bool, True where the interval is a u-interval
    comb: WeightedComb
    heights: np.ndarray | None

    @property
    def endpoints(self) -> np.ndarray:
        return self.comb.positions


def sample(spec: RandomTilingSpec, intervals: int, seed: int) -> TilingSample:
    """Sample 2*intervals i.i.d. interval choices (the first M fill the
    positive axis, the next M the negative axis) and accumulate endpoints.

    The returned comb contains the 2M+1 endpoints from the leftmost interval
    start to the rightmost interval end, with 0 among them.
    """
    m_side = int(intervals)
    if m_side < 1:
        raise OutOfRangeError("at least one interval per side is required")
    rng = np.random.default_rng(seed)
    draws = rng.random(2 * m_side) < spec.p
    right, left = draws[:m_side], draws[m_side:]

    if spec.module:
        u_mn = np.array([spec.u.m, spec.u.n], dtype=np.int64)
        v_mn = np.array([spec.v.m, spec.v.n], dtype=np.int64)
        steps_r = np.where(right[:, None], u_mn[None, :], v_mn[None, :])
        steps_l = np.where(left[:, None], u_mn[None, :], v_mn[None, :])
        mn_right = np.cumsum(steps_r, axis=0)
        mn_left = -np.cumsum(steps_l, axis=0)
        mn = np.concatenate([mn_left[::-1], [[0, 0]], mn_right])
        positions = module_position(mn[:, 0], mn[:, 1])
        radius = float(np.max(np.abs(positions)))
        comb = WeightedComb.from_module(mn, np.ones(len(mn)), radius)
        # the positions ascend already, so the comb keeps the order of mn
        heights = module_star(mn[:, 0], mn[:, 1])
    else:
        xi = spec.xi
        a, b = spec.ab
        steps_r = np.where(right, a, b).astype(np.int64)
        steps_l = np.where(left, a, b).astype(np.int64)
        k_right = np.cumsum(steps_r)
        k_left = -np.cumsum(steps_l)
        ks = np.concatenate([k_left[::-1], [0], k_right])
        radius = float(max(abs(ks[0]), abs(ks[-1])) * xi)
        comb = WeightedComb.from_integers(ks, np.ones(len(ks)), radius,
                                          scale=float(xi))
        heights = None
    types = np.concatenate([left[::-1], right])
    return TilingSample(spec, int(seed), types, comb, heights)


def density(spec: RandomTilingSpec) -> float:
    """Natural density of the endpoint set: d = 1 / (p u + q v)."""
    return 1.0 / (spec.p * spec.u_value + spec.q * spec.v_value)


def pp_part(spec: RandomTilingSpec, k_max: float) -> SpectralMeasure:
    """Pure-point diffraction: d^2 * delta_0 for irrational length ratio,
    d^2 on the whole lattice (1/xi) Z for rational ratio."""
    d2 = density(spec) ** 2
    if not spec.rational:
        return SpectralMeasure(np.array([[0.0, d2]]))
    step = 1.0 / float(spec.xi)
    steps = max(float(k_max), 0.0) / step
    check_size(2.0 * steps + 1.0, "the Bragg lattice")
    jmax = int(math.floor(steps + 1e-12))
    ks = np.arange(-jmax, jmax + 1) * step
    return SpectralMeasure(np.stack([ks, np.full(len(ks), d2)], axis=1))


def _singular_value(spec: RandomTilingSpec) -> float:
    d = density(spec)
    if spec.rational:
        a, b = spec.ab
        return d * spec.p * spec.q * (a - b) ** 2 / (spec.p * a + spec.q * b) ** 2
    du = spec.u_value - spec.v_value
    return d * spec.p * spec.q * du * du / (spec.p * spec.u_value +
                                            spec.q * spec.v_value) ** 2


def ac_density(spec: RandomTilingSpec, k: float) -> float:
    """Absolutely continuous diffraction density g(k) at one k; see
    ac_density_grid."""
    return float(ac_density_grid(spec, [float(k)])[0])


def ac_density_grid(spec: RandomTilingSpec, ks) -> np.ndarray:
    """Absolutely continuous diffraction density g(k) at every k, total by
    smooth continuation at the excluded points.

    Rational ratio: k on the Bragg lattice (k*xi integral) takes the
    removable value d*pq*(a-b)^2/(pa+qb)^2, other k with k(u-v) integral
    give 0.  Irrational ratio: k(u-v) within the singular tolerance of 0
    takes the removable value and of any other integer gives 0.
    """
    k = np.asarray(ks, dtype=float)
    p, q = spec.p, spec.q
    u, v = spec.u_value, spec.v_value
    if spec.rational:
        kxi = k * float(spec.xi)
        removable = np.abs(kxi - np.round(kxi)) <= _SINGULAR_TOL
        kuv = k * float(spec.u - spec.v)
    else:
        kuv = k * (u - v)
        removable = np.abs(kuv) <= _SINGULAR_TOL
    zero = ~removable & (np.abs(kuv - np.round(kuv)) <= _SINGULAR_TOL)
    num = p * q * np.sin(math.pi * k * (u - v)) ** 2
    den = (p * np.sin(math.pi * k * u) ** 2 + q * np.sin(math.pi * k * v) ** 2
           - num)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = density(spec) * num / den
    g[zero] = 0.0
    g[removable] = _singular_value(spec)
    return g


# -- seed-averaged estimators ---------------------------------------------------
# Both average over seeds first_seed, first_seed + 1, ..., summing per seed
# and dividing once, so a caller with the same seeds gets the same bits.

_AC_OFFSETS = (np.arange(8) - 3.5) * 2e-4  # sub-offsets binned into each k
_NEEDLE_CUT = 1.5                           # g above this is a needle
_NEEDLE_MARGIN = 0.02                       # half-width excluded per needle


def mean_bragg_amplitudes(spec: RandomTilingSpec, ks, intervals: int,
                          seeds: int, first_seed: int) -> np.ndarray:
    """Boxcar Bragg intensity estimates at ks, averaged over sampled
    tilings of 2*intervals intervals each."""
    if seeds < 1:
        raise OutOfRangeError(f"at least one seed is required; got {seeds}")
    ks = np.asarray(ks, dtype=float)
    acc = np.zeros(len(ks))
    for i in range(seeds):
        acc += bragg_amplitudes(sample(spec, intervals, first_seed + i).comb, ks,
                                taper="boxcar")
    return acc / seeds


def mean_ac_periodogram(spec: RandomTilingSpec, ks, intervals: int,
                        seeds: int, first_seed: int) -> np.ndarray:
    """Estimate of the ac density g at ks: the Hann-tapered, density-
    normalized periodogram averaged over sampled tilings, then over 8
    sub-offsets 2e-4 apart around each k (a local Welch-style bin)."""
    if seeds < 1:
        raise OutOfRangeError(f"at least one seed is required; got {seeds}")
    ks = np.asarray(ks, dtype=float)
    kk = (ks[:, None] + _AC_OFFSETS[None, :]).ravel()
    acc = np.zeros(len(kk))
    for i in range(seeds):
        acc += periodogram_values(sample(spec, intervals, first_seed + i).comb, kk,
                                  taper="hann", normalization="density")
    acc /= seeds
    return acc.reshape(len(ks), len(_AC_OFFSETS)).mean(axis=1)


def needle_free(spec: RandomTilingSpec, ks) -> np.ndarray:
    """Mask of the k more than 0.02 away from every needle of g, the sharp
    peaks where g exceeds 1.5, located on a 1e-3 grid around ks."""
    ks = np.asarray(ks, dtype=float)
    fine = np.arange(max(np.min(ks) - 0.1, 0.01), np.max(ks) + 0.1, 1e-3)
    keep = np.ones(len(ks), dtype=bool)
    for needle in fine[ac_density_grid(spec, fine) > _NEEDLE_CUT]:
        keep &= np.abs(ks - needle) > _NEEDLE_MARGIN
    return keep


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
    value = math.sqrt(TAU / (2.0 * math.pi * big_m)) * math.exp(
        -TAU * x_star * x_star / (2.0 * big_m))
    return value * _normalization_factor(normalization)


def _normalization_factor(normalization: str) -> float:
    if normalization == "unit-mass":
        return 1.0
    if normalization == "point-density":
        return density(fibonacci_spec()) * SQRT5
    raise AperiodicaError(f"unknown normalization {normalization!r}")


def scaling_profile(z) -> np.ndarray | float:
    """Universal height profile f(z) = 2 (exp(-z^2)/sqrt(pi) - |z| erfc|z|);
    unit mass, peak 2/sqrt(pi) at 0."""
    z = np.abs(np.asarray(z, dtype=float))
    erfc = np.asarray(_erfc(z), dtype=float)
    value = 2.0 * (np.exp(-z * z) / math.sqrt(math.pi) - z * erfc)
    return float(value) if value.ndim == 0 else value


def internal_distribution(n_intervals: int, x_star,
                          normalization: str = "unit-mass"):
    """Height distribution pooled over patches of up to N intervals:
    rho(x*) = sqrt(tau/(2N)) * f(sqrt(tau/(2N)) * x*)."""
    n = int(n_intervals)
    if n < 1:
        raise OutOfRangeError("N must be at least 1")
    s = math.sqrt(TAU / (2.0 * n))
    return s * scaling_profile(s * np.asarray(x_star, dtype=float)) * \
        _normalization_factor(normalization)


def patch_heights(spec: RandomTilingSpec, n_intervals: int, seed: int,
                  both_sides: bool = False) -> np.ndarray:
    """Heights of the endpoints after 1..N intervals of a sampled patch
    (positive side; optionally pooled with the negative side)."""
    if not spec.module:
        raise AperiodicaError("heights need a module spec")
    s = sample(spec, n_intervals, seed)
    n = len(s.heights)
    origin = (n - 1) // 2
    right = s.heights[origin + 1:]
    if not both_sides:
        return right
    return np.concatenate([s.heights[:origin], right])


def empirical_height_histogram(spec: RandomTilingSpec, n_intervals: int,
                               seeds: int, seed0: int = 0,
                               both_sides: bool = False):
    """Pooled histogram of endpoint heights over independent patches.

    Returns (bin_edges, counts); the bin width is one twentieth of the
    profile's natural scale sqrt(2N/tau).
    """
    n = int(n_intervals)
    if n < 100:
        raise OutOfRangeError("N must be at least 100")
    bin_width = math.sqrt(2.0 * n / TAU) / 20.0
    all_heights = [patch_heights(spec, n, seed0 + i, both_sides)
                   for i in range(int(seeds))]
    heights = np.concatenate(all_heights)
    lo = math.floor(np.min(heights) / bin_width) * bin_width
    hi = math.ceil(np.max(heights) / bin_width) * bin_width
    nbins = max(int(round((hi - lo) / bin_width)), 1)
    counts, edges = np.histogram(heights, bins=nbins, range=(lo, lo + nbins * bin_width))
    return edges, counts
