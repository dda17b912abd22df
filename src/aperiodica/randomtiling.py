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
from .spectrum import bragg_amplitudes, periodogram_values, uniform_grid

_erfc = np.frompyfunc(math.erfc, 1, 1)  # elementwise, as Python floats

_SINGULAR_TOL = 1e-9


@dataclass(frozen=True)
class RandomTilingSpec:
    """Two interval lengths u, v > 0 with occupation probabilities p, q=1-p.

    Lengths may be exact rationals (Fraction or int) or golden-ratio module
    elements.  Construction decides the case from u/v: a rational ratio
    leaves two Fractions, with a/b and the period unit xi = u/a = v/b exact,
    an irrational one two module elements.  A length 0*tau + n is the
    integer n; other module lengths with a rational ratio, such as tau and
    tau, are rejected, as their xi is irrational.
    """

    u: Fraction | ModuleElement
    v: Fraction | ModuleElement
    p: float

    def __post_init__(self):
        u, v = _canonical_length(self.u), _canonical_length(self.v)
        # a module length promotes its partner into the same module
        if isinstance(u, ModuleElement) or isinstance(v, ModuleElement):
            u, v = _as_module(u), _as_module(v)
        if not 0.0 < self.p < 1.0:
            raise OutOfRangeError("p must lie strictly between 0 and 1")
        if _length_value(u) <= 0 or _length_value(v) <= 0:
            raise OutOfRangeError("interval lengths must be positive")
        if isinstance(u, ModuleElement) and u.m * v.n == v.m * u.n:
            raise AperiodicaError(
                f"lengths {u.m}*tau + {u.n} and {v.m}*tau + {v.n} have a rational "
                "ratio but an irrational period unit")
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
        """Whether u/v is rational; the lengths are then Fractions."""
        return isinstance(self.u, Fraction)

    @property
    def ab(self) -> tuple[int, int] | None:
        """u/v = a/b in lowest terms, None when irrational."""
        if not self.rational:
            return None
        r = self.u / self.v
        return r.numerator, r.denominator

    @property
    def xi(self) -> Fraction | None:
        """Common unit xi with u = a*xi, v = b*xi (rational case)."""
        if not self.rational:
            return None
        a, _ = self.ab
        return self.u / a


def _canonical_length(x):
    """x as a Fraction, or as a ModuleElement with m != 0 (0*tau + n is the
    integer n)."""
    if isinstance(x, ModuleElement):
        return Fraction(x.n) if x.m == 0 else x
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


def _as_module(x) -> ModuleElement:
    """A canonical length as a module element; only integers qualify."""
    if isinstance(x, ModuleElement):
        return x
    if x.denominator != 1:
        raise AperiodicaError(
            "cannot mix a module length with a non-integer rational length")
    return ModuleElement(0, int(x))


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
    check_size(2 * m_side + 1, "the tiling sample")
    # the steps v (row 0) and u (row 1), in units of xi or as module pairs
    if spec.rational:
        a, b = spec.ab
        table = [b, a]
    else:
        table = [[spec.v.m, spec.v.n], [spec.u.m, spec.u.n]]
    # each side's keys sum up to m_side steps: they must fit in int64
    entries = table if spec.rational else table[0] + table[1]
    if m_side * max(map(abs, entries)) >= 2 ** 63:
        raise OutOfRangeError(
            f"the endpoint keys of {m_side} intervals a side reach 2^63 or more, "
            "past int64")
    rng = np.random.default_rng(seed)
    draws = rng.random(2 * m_side) < spec.p
    # interval types from left to right: the negative side's draws run outwards
    types = np.concatenate([draws[m_side:][::-1], draws[:m_side]])
    keys = _endpoint_keys(np.array(table, dtype=np.int64), types, m_side)
    weights = np.ones(len(keys), dtype=complex)
    if spec.rational:
        xi = spec.xi
        radius = float(max(abs(keys[0]), abs(keys[-1])) * xi)
        comb = WeightedComb._integers(keys, weights, radius, scale=float(xi))
        heights = None
    else:
        # the positions ascend, so the farthest endpoint is an end
        radius = float(max(abs(module_position(*keys[0])), abs(module_position(*keys[-1]))))
        comb = WeightedComb._module(keys, weights, radius)
        # nothing was sorted, so the comb keeps the order of keys
        heights = module_star(keys[:, 0], keys[:, 1])
    return TilingSample(spec, int(seed), types, comb, heights)


def _endpoint_keys(table: np.ndarray, types: np.ndarray, m_side: int) -> np.ndarray:
    """Exact endpoint keys, left to right, of the intervals of the given
    types (a row of table each), with key 0 after the first m_side: two
    cumulative sums into one array, the left one shifted to end at 0."""
    steps = np.take(table, types.view(np.uint8), axis=0)
    keys = np.empty((len(types) + 1, *table.shape[1:]), dtype=np.int64)
    keys[0] = 0
    left = keys[:m_side + 1]
    np.cumsum(steps[:m_side], axis=0, out=left[1:])
    left -= left[-1].copy()
    np.cumsum(steps[m_side:], axis=0, out=keys[m_side + 1:])
    return keys


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

_AC_OFFSETS = (np.arange(8) - 3.5) * 2e-4  # sub-offsets binned into each k
_NEEDLE_CUT = 1.5                           # g above this is a needle
_NEEDLE_MARGIN = 0.02                       # half-width excluded per needle


def _seed_mean(estimate, spec: RandomTilingSpec, intervals: int, seeds: int,
               first_seed: int) -> np.ndarray:
    """Mean of the array estimate(comb) over the tilings sampled at seeds
    first_seed, ..., first_seed + seeds - 1: summed in seed order and divided
    once, so a caller with the same seeds gets the same bits."""
    if seeds < 1:
        raise OutOfRangeError(f"at least one seed is required; got {seeds}")
    total = 0.0
    for seed in range(first_seed, first_seed + seeds):
        total += estimate(sample(spec, intervals, seed).comb)
    return total / seeds


def mean_bragg_amplitudes(spec: RandomTilingSpec, ks, intervals: int,
                          seeds: int, first_seed: int) -> np.ndarray:
    """Boxcar Bragg intensity estimates at ks, averaged over sampled
    tilings of 2*intervals intervals each."""
    ks = np.asarray(ks, dtype=float)
    return _seed_mean(lambda comb: bragg_amplitudes(comb, ks, taper="boxcar"),
                      spec, intervals, seeds, first_seed)


def mean_ac_periodogram(spec: RandomTilingSpec, ks, intervals: int,
                        seeds: int, first_seed: int) -> np.ndarray:
    """Estimate of the ac density g at ks: the Hann-tapered, density-
    normalized periodogram averaged over sampled tilings, then over 8
    sub-offsets 2e-4 apart around each k (a local Welch-style bin)."""
    ks = np.asarray(ks, dtype=float)
    check_size(len(ks) * len(_AC_OFFSETS), "the k points and their sub-offsets")
    kk = (ks[:, None] + _AC_OFFSETS[None, :]).ravel()
    acc = _seed_mean(lambda comb: periodogram_values(comb, kk, taper="hann",
                                                     normalization="density"),
                     spec, intervals, seeds, first_seed)
    return acc.reshape(len(ks), len(_AC_OFFSETS)).mean(axis=1)


def needle_free(spec: RandomTilingSpec, ks) -> np.ndarray:
    """Mask of the k more than 0.02 away from every needle of g, the sharp
    peaks where g exceeds 1.5, located on a 1e-3 grid around ks."""
    ks = np.asarray(ks, dtype=float)
    if not ks.size:
        raise OutOfRangeError("needle_free needs at least one k in ks; got none")
    fine = uniform_grid(max(np.min(ks) - 0.1, 0.01), np.max(ks) + 0.1, 1e-3)
    keep = np.ones(len(ks), dtype=bool)
    for needle in fine[ac_density_grid(spec, fine) > _NEEDLE_CUT]:
        keep &= np.abs(ks - needle) > _NEEDLE_MARGIN
    return keep


def scaling_profile(z) -> np.ndarray | float:
    """Universal height profile f(z) = 2 (exp(-z^2)/sqrt(pi) - |z| erfc|z|);
    unit mass, peak 2/sqrt(pi) at 0."""
    z = np.abs(np.asarray(z, dtype=float))
    erfc = np.asarray(_erfc(z), dtype=float)
    value = 2.0 * (np.exp(-z * z) / math.sqrt(math.pi) - z * erfc)
    return float(value) if value.ndim == 0 else value


def internal_distribution(n_intervals: int, x_star):
    """Unit-mass height distribution pooled over patches of up to N
    intervals: rho(x*) = sqrt(tau/(2N)) * f(sqrt(tau/(2N)) * x*)."""
    n = int(n_intervals)
    if n < 1:
        raise OutOfRangeError("N must be at least 1")
    s = math.sqrt(TAU / (2.0 * n))
    return s * scaling_profile(s * np.asarray(x_star, dtype=float))


def patch_heights(spec: RandomTilingSpec, n_intervals: int, seed: int) -> np.ndarray:
    """Heights of the endpoints after 1..N intervals on each side of a
    sampled patch, both sides pooled (the origin left out)."""
    if spec.rational:
        raise AperiodicaError("heights need a module spec")
    s = sample(spec, n_intervals, seed)
    n = len(s.heights)
    origin = (n - 1) // 2
    return np.concatenate([s.heights[:origin], s.heights[origin + 1:]])


def empirical_height_histogram(spec: RandomTilingSpec, n_intervals: int,
                               seeds: int, seed0: int = 0):
    """Pooled histogram of endpoint heights over independent patches.

    Returns (bin_edges, counts); the bin width is one twentieth of the
    profile's natural scale sqrt(2N/tau).
    """
    n = int(n_intervals)
    if n < 100:
        raise OutOfRangeError("N must be at least 100")
    if seeds < 1:
        raise OutOfRangeError(f"at least one seed is required; got {seeds}")
    check_size(int(seeds) * (2 * n + 1), "the pooled heights")
    bin_width = math.sqrt(2.0 * n / TAU) / 20.0
    all_heights = [patch_heights(spec, n, seed0 + i)
                   for i in range(int(seeds))]
    heights = np.concatenate(all_heights)
    lo = math.floor(np.min(heights) / bin_width) * bin_width
    hi = math.ceil(np.max(heights) / bin_width) * bin_width
    nbins = max(int(round((hi - lo) / bin_width)), 1)
    counts, edges = np.histogram(heights, bins=nbins, range=(lo, lo + nbins * bin_width))
    return edges, counts
