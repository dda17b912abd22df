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

from .core import (
    AperiodicaError,
    EmptyInputError,
    IntegerCoords,
    ModuleCoords,
    OutOfRangeError,
    WeightedComb,
    module_position,
    next_fast_len,
)

_LOOKUP_TOL = 1e-9
_SUPPORT_TOL = 1e-12  # coefficients at most this large count as zero
# pairs the pair path reduces at a time; bounds its temporaries to a few MiB
_PAIR_BLOCK = 1 << 15
# integer combs use dense arrays over their span when it is at most this
# many positions per point, or at most _DENSE_MAX_SPAN positions
_DENSE_SPAN_FACTOR = 16
_DENSE_MAX_SPAN = 1 << 18
_INT64_MAX = int(np.iinfo(np.int64).max)


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

    def eta_at(self, z: float) -> complex:
        """eta(z), with eta = 0 for differences that never occurred."""
        return complex(self.eta_lookup([z])[0])

    def eta_lookup(self, zs) -> np.ndarray:
        """eta at every z of zs: the coefficient of the stored difference
        within _LOOKUP_TOL of z, the lower neighbour first; 0 where there is
        none."""
        z = np.asarray(zs, dtype=float)
        out = np.zeros(z.shape, dtype=complex)
        n = len(self.diffs)
        if not n:
            return out
        i = np.searchsorted(self.diffs, z)
        # clamping only repeats the other neighbour; the lower one is
        # written last, so it wins
        for j in (np.minimum(i, n - 1), np.maximum(i - 1, 0)):
            hit = np.abs(self.diffs[j] - z) <= _LOOKUP_TOL
            out[hit] = self.eta[j[hit]]
        return out

    def support(self) -> np.ndarray:
        """Differences with nonzero coefficient (Delta^ess at this radius)."""
        return self.diffs[np.abs(self.eta) > _SUPPORT_TOL]


def _group_sums(codes, values):
    """Distinct codes, ascending, and the sum of the values under each."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    sums = (np.bincount(inverse, values.real, len(distinct))
            + 1j * np.bincount(inverse, values.imag, len(distinct)))
    return distinct, sums


def _pairwise_sums(cut, bound, keys, weights):
    """Sums of v(x) conj(v(y)) over the pairs of points i > j with
    0 < cut[i] - cut[j] <= bound, grouped by their code keys[i] - keys[j].

    cut ascends strictly.  Returns the distinct codes, ascending, and their
    sums.  Pairs are enumerated by index offset d = i - j: when
    cut[i] - cut[i - d] <= bound, so is cut[i] - cut[i - d + 1], so the i
    kept at offset d are among those kept at d - 1, and the cost is linear
    in N plus the number of pairs.  At most _PAIR_BLOCK pairs are reduced at
    a time, and the reduced blocks are merged into the result whenever they
    hold as many codes as it does, so memory is O(N + _PAIR_BLOCK + distinct
    codes).
    """
    codes, sums = np.empty(0, dtype=np.int64), np.empty(0, dtype=complex)
    parts, held = [], 0
    i = np.arange(len(cut))
    for d in range(1, len(cut)):
        i = i[i >= d]
        i = i[cut[i] - cut[i - d] <= bound]
        if not len(i):
            break
        for lo in range(0, len(i), _PAIR_BLOCK):
            b = i[lo:lo + _PAIR_BLOCK]
            parts.append(_group_sums(keys[b] - keys[b - d],
                                     weights[b] * np.conj(weights[b - d])))
            held += len(parts[-1][0])
            if held >= max(len(codes), _PAIR_BLOCK):
                parts.append((codes, sums))
                codes, sums = _group_sums(*map(np.concatenate, zip(*parts)))
                parts, held = [], 0
    parts.append((codes, sums))
    return _group_sums(*map(np.concatenate, zip(*parts)))


def _convolve(a, b):
    """Full linear convolution of two 1-d arrays by FFTs at a fast length."""
    n = len(a) + len(b) - 1
    nf = next_fast_len(n)
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        return np.fft.ifft(np.fft.fft(a, nf) * np.fft.fft(b, nf))[:n]
    return np.fft.irfft(np.fft.rfft(a, nf) * np.fft.rfft(b, nf), nf)[:n]


def _dense_sums(keys, weights, max_lag):
    """Lags 1..max_lag that occur between the integer keys, ascending, and
    their sums: FFT convolutions of the weights and the occupancy."""
    lo, size = int(keys[0]), int(keys[-1]) - int(keys[0]) + 1
    dense = np.zeros(size, dtype=complex)
    dense[keys - lo] = weights
    occ = np.bincount(keys - lo, minlength=size).astype(float)
    lags = slice(size, size + max_lag)  # the convolution ends at lag size - 1
    sums = _convolve(dense, np.conj(dense[::-1]))[lags]
    occurred = _convolve(occ, occ[::-1])[lags] > 0.5
    return np.arange(1, len(sums) + 1)[occurred], sums[occurred]


def _float_keys(positions, max_diff):
    """Positions on the _LOOKUP_TOL grid as int64; OutOfRangeError where
    the grid index, or the key difference of a pair within max_diff, does
    not fit."""
    scaled = np.round(positions / _LOOKUP_TOL)
    if not np.max(np.abs(scaled)) < 2.0 ** 63:
        raise OutOfRangeError(
            f"float positions beyond +-{_LOOKUP_TOL * 2.0 ** 63:.3g} cannot be "
            f"grouped on the {_LOOKUP_TOL:g} grid; use exact coordinates")
    # a kept key difference exceeds max_diff / _LOOKUP_TOL only by the
    # rounding of the two keys, of the quotient and of x - y: under 2^11
    # grid steps each
    if not max_diff / _LOOKUP_TOL < 2.0 ** 63 - 2.0 ** 13:
        raise OutOfRangeError(
            f"float differences beyond {_LOOKUP_TOL * 2.0 ** 63:.3g} cannot be "
            f"grouped on the {_LOOKUP_TOL:g} grid; use exact coordinates")
    return scaled.astype(np.int64)


def _exact_keys(comb, max_diff):
    """int64 keys, one per point, whose differences keys[i] - keys[j] are
    exact codes of the position differences; the sorted coordinates pairs
    are cut on, the cut bound, and the decoder from codes to differences.

    Integers: keys and cut are the integers, the bound max_diff / scale.
    Module (m, n): (m - m_min) * w + (n - n_min), w = 2 * (n spread) + 1.
    Floats: the _LOOKUP_TOL grid, which must not put two points on one key.
    OutOfRangeError when the codes of the comb do not fit in int64."""
    coords = comb.coords
    if isinstance(coords, IntegerCoords):
        values, scale = coords.values, coords.scale
        if int(values[-1]) - int(values[0]) + 1 > _INT64_MAX:
            raise OutOfRangeError("integer positions of this comb span more than int64")
        max_lag = int(math.floor(max_diff / scale + 1e-12))
        return values, values, max_lag, lambda codes: codes * scale
    if isinstance(coords, ModuleCoords):
        m, n = coords.mn[:, 0], coords.mn[:, 1]
        shift = int(n.max()) - int(n.min())
        width = 2 * shift + 1
        if (int(m.max()) - int(m.min()) + 1) * width > _INT64_MAX:
            raise OutOfRangeError("module differences of this comb have no exact int64 code")

        def decode(codes):
            """Positions dm * tau + dn of the codes dm * width + dn."""
            dm, dn = np.divmod(codes + shift, width)
            return module_position(dm, dn - shift)
        return (m - m.min()) * width + (n - n.min()), comb.positions, max_diff, decode
    keys = _float_keys(comb.positions, max_diff)
    if np.any(np.diff(keys) == 0):
        raise OutOfRangeError(f"two float positions fall on one key of the "
                              f"{_LOOKUP_TOL:g} grid; use exact coordinates")
    return keys, comb.positions, max_diff, lambda codes: codes * _LOOKUP_TOL


def estimate_autocorrelation(comb: WeightedComb, max_diff: float) -> AutocorrelationEstimate:
    """Finite-volume autocorrelation coefficients of a comb for all observed
    differences z with |z| <= max_diff:

        eta(z) = (1 / vol(B_n)) * sum over x - y = z of v(x) conj(v(y))

    with x, y running over the comb.  Requires max_diff <= 2 * radius.
    Differences are grouped exactly by the keys of _exact_keys: integer
    combs within the dense span take one FFT convolution, all others the
    pair path."""
    if len(comb) == 0:
        raise EmptyInputError("cannot estimate the autocorrelation of an empty comb")
    if not 0.0 <= max_diff <= 2 * comb.radius:
        raise OutOfRangeError("max_diff must lie in [0, 2*radius], the comb diameter")
    w = comb.weights
    keys, cut, bound, decode = _exact_keys(comb, max_diff)
    # only integer combs are cut on their keys, so only there is the bound a
    # lag bound for a convolution over the keys
    span = int(keys[-1]) - int(keys[0]) + 1
    if cut is keys and span <= max(_DENSE_SPAN_FACTOR * len(keys), _DENSE_MAX_SPAN):
        codes, sums = _dense_sums(keys, w, bound)
    else:
        codes, sums = _pairwise_sums(cut, bound, keys, w)
    pos_diffs = decode(np.append(codes, 0))
    sums = np.append(sums, np.dot(w, np.conj(w)))
    order = np.argsort(pos_diffs, kind="stable")
    keep = pos_diffs[order] >= 0
    pos_diffs, sums = pos_diffs[order][keep], sums[order][keep]

    # mirror positive differences; Hermitian symmetry is exact by construction
    pos_mask = pos_diffs > 0
    diffs = np.concatenate([-pos_diffs[pos_mask][::-1], pos_diffs])
    eta = np.concatenate([np.conj(sums[pos_mask][::-1]), sums]) / comb.volume
    return AutocorrelationEstimate(diffs, eta, comb.radius, comb.volume, float(max_diff))


def _rho_from_zero(est: AutocorrelationEstimate, zs) -> np.ndarray:
    """rho(z, 0) for every difference z of zs, with pseudo_metric's checks."""
    eta0 = est.eta_at(0.0).real
    if eta0 <= 0.0:
        raise DegenerateAutocorrelationError("eta(0) must be positive")
    zs = np.asarray(zs, dtype=float)
    if np.any(np.abs(zs) > est.max_diff + _LOOKUP_TOL):
        raise OutOfRangeError("difference s - t outside the estimated range")
    eta = est.eta_lookup(zs)
    return np.sqrt(np.hypot(1.0 - eta.real / eta0, eta.imag / eta0))


def pseudo_metric(est: AutocorrelationEstimate, s: float, t: float) -> float:
    """Autocorrelation pseudo-metric rho(s, t) = |1 - eta(s-t)/eta(0)|^(1/2).

    Differences never observed have eta = 0, hence rho = 1 off the support.
    """
    return float(_rho_from_zero(est, [s - t])[0])


def epsilon_almost_periods(est: AutocorrelationEstimate, epsilon: float,
                           candidates) -> list[float]:
    """Candidates t with rho(t, 0) < epsilon, sorted ascending."""
    if not 0.0 < epsilon <= math.sqrt(2.0) + 1e-12:
        raise OutOfRangeError("epsilon must lie in (0, sqrt(2)]")
    ts = np.fromiter(candidates, dtype=float)
    return sorted(ts[_rho_from_zero(est, ts) < epsilon].tolist())


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
