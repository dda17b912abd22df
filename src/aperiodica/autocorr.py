"""Empirical autocorrelation coefficients, the autocorrelation pseudo-metric,
epsilon-almost periods, and translation-boundedness / uniform-discreteness
checks.

Finite-radius estimates normalize by vol(B_n) = 2n; the boundary bias of
this continuum normalization is O(1/n).  Coefficients for a
difference z are only stored when z actually occurs in S - S; a difference
that was never observed counts as eta(z) = 0, which puts the pseudo-metric
off the support at exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .core import (
    AperiodicaError,
    EmptyInputError,
    IntegerCoords,
    ModuleCoords,
    OutOfRangeError,
    WeightedComb,
)

_LOOKUP_TOL = 1e-9


class DegenerateAutocorrelationError(AperiodicaError):
    """eta(0) vanishes, the pseudo-metric is undefined."""


@dataclass(frozen=True)
class AutocorrelationEstimate:
    """Finite-volume autocorrelation coefficients of a comb.

    diffs holds every observed difference (symmetric about 0, sorted), eta
    the matching coefficients.  eta(-z) = conj(eta(z)) holds exactly: the
    estimate is built on z >= 0 and mirrored by conjugation.
    """

    diffs: np.ndarray          # float64, sorted
    eta: np.ndarray            # complex128
    radius: float
    volume: float
    max_diff: float

    def __post_init__(self):
        d = np.asarray(self.diffs, dtype=float)
        e = np.asarray(self.eta, dtype=complex)
        if len(d) != len(e):
            raise AperiodicaError("diffs and eta differ in length")
        d.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "diffs", d)
        object.__setattr__(self, "eta", e)

    @property
    def zero_coefficient(self) -> float:
        return float(self.eta_at(0.0).real)

    def eta_at(self, z: float, tol: float = _LOOKUP_TOL) -> complex:
        """eta(z), with eta = 0 for differences that never occurred."""
        i = np.searchsorted(self.diffs, z)
        for j in (i - 1, i):
            if 0 <= j < len(self.diffs) and abs(self.diffs[j] - z) <= tol:
                return complex(self.eta[j])
        return 0.0 + 0.0j

    def support(self, atol: float = 1e-12) -> np.ndarray:
        """Differences with nonzero coefficient (Delta^ess at this radius)."""
        return self.diffs[np.abs(self.eta) > atol]


def _integer_autocorr(values, weights, max_lag):
    """Coefficient sums and lag-occurrence flags for integer positions,
    lags 0..max_lag.

    Direct per-lag dot products for small lag counts, one FFT convolution
    otherwise; both are deterministic for a fixed input.
    """
    lo, hi = int(values[0]), int(values[-1])
    size = hi - lo + 1
    dense = np.zeros(size, dtype=complex)
    dense[values - lo] = weights
    occ = np.zeros(size)
    occ[values - lo] = 1.0
    max_lag = min(max_lag, size - 1)
    if (max_lag + 1) * size <= 5_000_000:
        sums = np.empty(max_lag + 1, dtype=complex)
        counts = np.empty(max_lag + 1)
        for lag in range(max_lag + 1):
            if lag:
                sums[lag] = np.dot(dense[lag:], np.conj(dense[:-lag]))
                counts[lag] = np.dot(occ[lag:], occ[:-lag])
            else:
                sums[lag] = np.dot(dense, np.conj(dense))
                counts[lag] = np.dot(occ, occ)
    else:
        full = fftconvolve(dense, np.conj(dense[::-1]))
        center = size - 1
        sums = full[center:center + max_lag + 1]
        sums[0] = np.dot(dense, np.conj(dense))  # exact zero-lag
        cfull = fftconvolve(occ, occ[::-1])
        counts = cfull[center:center + max_lag + 1]
    return np.arange(max_lag + 1), sums, counts > 0.5


def _pairwise_sums(positions, weights, keys, max_diff):
    """Accumulate sum of v(x) conj(v(y)) per exact difference key for ordered
    pairs with 0 < x - y <= max_diff.  keys are integer row labels."""
    n = len(positions)
    acc: dict = {}
    j_lo = 0
    for i in range(n):
        while positions[i] - positions[j_lo] > max_diff:
            j_lo += 1
        for j in range(j_lo, i):
            key = tuple(keys[i] - keys[j])
            acc[key] = acc.get(key, 0.0 + 0.0j) + weights[i] * np.conj(weights[j])
    return acc


def estimate_autocorrelation(comb: WeightedComb, max_diff: float) -> AutocorrelationEstimate:
    """Finite-volume autocorrelation coefficients of a comb for all observed
    differences z with |z| <= max_diff:

        eta(z) = (1 / vol(B_n)) * sum over x - y = z of v(x) conj(v(y))

    with x, y running over the comb.  Requires max_diff <= 2 * radius.
    """
    if len(comb) == 0:
        raise EmptyInputError("cannot estimate the autocorrelation of an empty comb")
    if max_diff > 2 * comb.radius:
        raise OutOfRangeError("max_diff exceeds the comb diameter 2*radius")
    vol = comb.volume
    w = comb.weights

    if isinstance(comb.coords, IntegerCoords):
        scale = comb.coords.scale
        max_lag = int(math.floor(max_diff / scale + 1e-12))
        lags, sums, occurred = _integer_autocorr(comb.coords.values, w, max_lag)
        lags, sums = lags[occurred], sums[occurred]
        pos_diffs = lags * scale
    else:
        if isinstance(comb.coords, ModuleCoords):
            keys = comb.coords.mn
            gen = comb.coords.generator
            embed = lambda key: key[0] * gen.theta + key[1]
        else:
            # generic float positions: group differences to _LOOKUP_TOL
            keys = np.round(comb.positions / _LOOKUP_TOL).astype(np.int64).reshape(-1, 1)
            embed = lambda key: key[0] * _LOOKUP_TOL
        acc = _pairwise_sums(comb.positions, w, keys, max_diff)
        zero = complex(np.dot(w, np.conj(w)))
        items = sorted(acc.items(), key=lambda kv: embed(kv[0]))
        pos_diffs = np.array([embed(k) for k, _ in items] + [0.0])
        sums = np.array([v for _, v in items] + [zero])
        order = np.argsort(pos_diffs, kind="stable")
        pos_diffs, sums = pos_diffs[order], sums[order]
        keep = pos_diffs >= 0
        pos_diffs, sums = pos_diffs[keep], sums[keep]

    # mirror positive differences; Hermitian symmetry is exact by construction
    pos_mask = pos_diffs > 0
    diffs = np.concatenate([-pos_diffs[pos_mask][::-1], pos_diffs])
    eta = np.concatenate([np.conj(sums[pos_mask][::-1]), sums]) / vol
    return AutocorrelationEstimate(diffs, eta, comb.radius, vol, float(max_diff))


def pseudo_metric(est: AutocorrelationEstimate, s: float, t: float) -> float:
    """Autocorrelation pseudo-metric rho(s, t) = |1 - eta(s-t)/eta(0)|^(1/2).

    Differences never observed have eta = 0, hence rho = 1 off the support.
    """
    eta0 = est.eta_at(0.0).real
    if eta0 <= 0.0:
        raise DegenerateAutocorrelationError("eta(0) must be positive")
    z = s - t
    if abs(z) > est.max_diff + _LOOKUP_TOL:
        raise OutOfRangeError("difference s - t outside the estimated range")
    return math.sqrt(abs(1.0 - est.eta_at(z) / eta0))


def epsilon_almost_periods(est: AutocorrelationEstimate, epsilon: float,
                           candidates) -> list[float]:
    """Candidates t with rho(t, 0) < epsilon, sorted ascending."""
    if not 0.0 < epsilon <= math.sqrt(2.0) + 1e-12:
        raise OutOfRangeError("epsilon must lie in (0, sqrt(2)]")
    kept = [float(t) for t in candidates if pseudo_metric(est, t, 0.0) < epsilon]
    return sorted(kept)


def max_gap(points, window: tuple[float, float]) -> float:
    """Largest gap between consecutive points inside the window, counting the
    gaps to the window edges; +inf when no point falls in the window."""
    lo, hi = window
    if hi < lo:
        raise OutOfRangeError("window is empty")
    pts = np.asarray(points, dtype=float)
    pts = np.sort(pts[(pts >= lo) & (pts <= hi)])
    if len(pts) == 0:
        return math.inf
    fenced = np.concatenate([[lo], pts, [hi]])
    return float(np.max(np.diff(fenced)))


@dataclass(frozen=True)
class A1A3Report:
    window_sup: float            # sup over unit windows of sum |v|
    uniformly_discrete: bool     # Delta^ess points pairwise >= 2r apart
    min_ess_gap: float           # smallest gap between distinct Delta^ess points
    radius_checked: float


def check_A1_A3(comb: WeightedComb, est: AutocorrelationEstimate,
                r: float) -> A1A3Report:
    """Translation-boundedness proxy and uniform discreteness of the
    essential difference set.

    (a) sup over sliding half-open unit windows [t, t+1) of sum |v|; the sup
        is attained with the window's left edge on a point.
    (b) whether all pairs of distinct nonzero-coefficient differences are at
        least 2r apart.
    """
    pos = comb.positions
    absw = np.abs(comb.weights)
    sup = 0.0
    if len(pos):
        cums = np.concatenate([[0.0], np.cumsum(absw)])
        hi = np.searchsorted(pos, pos + 1.0, side="left")
        sums = cums[hi] - cums[np.arange(len(pos))]
        sup = float(np.max(sums))
    ess = np.sort(est.support())
    if len(ess) > 1:
        min_gap = float(np.min(np.diff(ess)))
    else:
        min_gap = math.inf
    return A1A3Report(sup, bool(min_gap >= 2 * r), min_gap, float(r))
