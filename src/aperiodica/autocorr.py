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
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import (
    AperiodicaError,
    EmptyInputError,
    IntegerCoords,
    ModuleCoords,
    OutOfRangeError,
    SIZE_BUDGET,
    SQRT5,
    TAU,
    WeightedComb,
    _own_copy,
    module_position,
    next_fast_len,
)

_LOOKUP_TOL = 1e-9
_SUPPORT_TOL = 1e-12  # coefficients at most this large count as zero
# pairs the pair path lists at a time: a block's temporaries, under 1 MiB,
# stay in cache.  On the binned sums 2^15 and 2^16 ran within 5-10% of 2^14
# (criterion 10's comb at 500: 2.09, 2.19, 2.19 ms; 3.6e6 pairs of 20,000
# random integers: 34, 38, 35 ms) and 2^12 35% slower on criterion 10; the
# sorted grouping, whose sums follow the blocks, keeps 2^14
_PAIR_BLOCK = 1 << 14
_DENSE_TILE = 1 << 16  # positions _dense_sums transforms at a time
# rates in ns of the path rule, on a 2-core Xeon VM, random integer combs:
# 300-820 a position dense on the full-span convolution that the blocked sums
# replaced; the blocked sums measured ~55-130 a position at lags up to 5,000
# and ~250-400 near the span, so this rate is stale (ROADMAP item 3), kept
# so that no path choice moves; 44-145 a pair, median 80, over 11 combs of
# 500-10,000 points and 1,200-2.3e6 pairs.  Dense sums hold ~112 B (7
# complex entries) a block position: a check_size step up to lag 2^23
_NS_DENSE = 500.0
_NS_PAIR = 80.0
# the most partners a point, on average, that _plan scans for: a scan and a
# searchsorted broke even near 6-8 a point over 5,000 random floats or
# integers and near 12-16 over 66,000, as a needle costs more as N grows
_SCAN_PARTNERS = 8.0
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
        d = _own_copy(self.diffs, float)
        e = _own_copy(self.eta, complex)
        if len(d) != len(e):
            raise AperiodicaError("diffs and eta differ in length")
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
    """Distinct codes, ascending, and the sum of the values under each.

    One sort puts equal codes together in their given order, and
    np.add.reduceat sums each run in that order, so the sums do not depend
    on the sort algorithm.  The sort is np.sort of the codes packed with
    their index, (code - min) * 2^bits + index, when that fits in int64,
    and a stable argsort of the codes otherwise."""
    if not len(codes):
        return codes, values
    lo = int(codes.min())
    bits = (len(codes) - 1).bit_length()
    if int(codes.max()) - lo < 1 << (62 - bits):
        packed = codes - lo
        packed <<= bits
        packed |= np.arange(len(codes))
        packed.sort()
        order = packed & ((1 << bits) - 1)
        packed >>= bits
        codes = packed + lo
    else:
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
    starts = np.concatenate([[0], np.flatnonzero(codes[1:] != codes[:-1]) + 1])
    return codes[starts], np.add.reduceat(values[order], starts)


def _first_partners(cut, bound, scan):
    """first[i], the least j with cut[i] - cut[j] <= bound, for ascending
    cut; point i pairs with first[i] .. i - 1.

    The rounded difference cut[i] - cut[j] is monotone in j, so the pairs
    kept form a run.  A scan counts them by offset: point i has
    cut[i] - cut[i - d] <= bound for d = 1 .. i - first[i] and no larger d,
    one pass over the points a d while more than a quarter of them meet
    it, then over those that met it at d - 1 only, O(N + pairs) in all.
    Otherwise searchsorted rounds cut[i] - bound where the rule rounds
    cut[i] - cut[j], so its answer is corrected in both directions until
    the rule holds at first[i] and fails at first[i] - 1.  Integer cuts are
    exact and need none."""
    if scan:
        first = np.arange(len(cut))
        live = None  # the points that met the rule at the last d
        gaps, hits = np.empty(len(cut), dtype=cut.dtype), np.empty(len(cut), dtype=bool)
        for d in range(1, len(cut)):
            if live is None:
                gap = np.subtract(cut[d:], cut[:-d], out=gaps[d:])
                hit = np.less_equal(gap, bound, out=hits[d:])
                first[d:] -= hit
                met = np.count_nonzero(hit)
                if 4 * met < len(cut):
                    live = np.flatnonzero(hit) + d
            else:
                live = live[live >= d]
                live = live[cut[live] - cut[live - d] <= bound]
                first[live] -= 1
                met = len(live)
            if not met:
                break
        return first
    first = np.searchsorted(cut, cut - bound, side="left")
    while True:
        # first[i] <= i always holds, and first[i] - 1 wraps only where
        # first[i] is 0
        grow = (first > 0) & (cut - cut[first - 1] <= bound)
        shrink = cut - cut[first] > bound
        if not (grow.any() or shrink.any()):
            return first
        first = first - grow + shrink


def _pair_blocks(first, keys, weights):
    """The pairs of points i > j >= first[i], _PAIR_BLOCK at a time, as
    their codes keys[i] - keys[j] and products v(x) conj(v(y)).

    The pairs are listed by point, so pair number p belongs to the point i
    whose running count ends[i] first passes p, and its partner is
    j = p - ends[i] + i; one point's pairs may span several blocks.  Each
    block's pairs are built with np.repeat, and ends is the one array a
    point that this keeps."""
    ends = np.arange(len(first))
    ends -= first
    np.cumsum(ends, out=ends)
    total = int(ends[-1])
    for lo in range(0, total, _PAIR_BLOCK):
        hi = min(lo + _PAIR_BLOCK, total)
        # the points whose pairs meet numbers lo .. hi - 1
        a = int(np.searchsorted(ends, lo, side="right"))
        b = int(np.searchsorted(ends, hi, side="left")) + 1
        counts = np.diff(np.minimum(ends[a:b], hi), prepend=lo)
        j = np.arange(lo, hi)
        j -= np.repeat(ends[a:b] - np.arange(a, b), counts)
        codes = np.repeat(keys[a:b], counts)
        codes -= keys[j]
        products = weights[j]
        np.conj(products, out=products)
        yield codes, np.multiply(np.repeat(weights[a:b], counts), products, out=products)


def _offset_pairs(first, keys, weights):
    """The pairs of _pair_blocks by offset, for combs of few partners a
    point: for d = 1, 2, ... the pairs (i, i - d) of the points i with
    first[i] <= i - d, as one block, from slices of the arrays while more
    than a quarter of the points have such a pair, then from the points
    that do.  O(N + pairs) in all."""
    count = np.arange(len(first))
    count -= first
    live = None  # the points with a pair at the last d
    for d in range(1, len(first)):
        if live is None:
            keep = count[d:] >= d
            met = np.count_nonzero(keep)
            codes = keys[d:] - keys[:-d]
            products = np.conj(weights[:-d])
            np.multiply(weights[d:], products, out=products)
            if met < len(keep):
                codes, products = codes[keep], products[keep]
            if 4 * met < len(first):
                live = np.flatnonzero(keep) + d
        else:
            live = live[count[live] >= d]
            met = len(live)
            codes = keys[live] - keys[live - d]
            products = np.conj(weights[live - d])
            np.multiply(weights[live], products, out=products)
        if not met:
            return
        yield codes, products


def _pairwise_sums(plan, weights):
    """Sums of v(x) conj(v(y)) over the pairs of points i > j >= first[i],
    grouped by their codes: the distinct codes, ascending, and their sums.

    Binned (plan.codes = (lo, hi), each code of a pair within it): the
    pairs come by offset (_offset_pairs) where _plan scanned for them, few
    a point, and by point otherwise, and each block's products are added
    in place into one array over the codes, beside one that marks the
    codes met, so that a difference whose products sum to zero is kept.
    Real weights are multiplied and summed in real arithmetic, and
    positive ones, whose least square is not 0, need no marks, as every
    product and sum of them is positive.  Memory is O(N + _PAIR_BLOCK +
    hi - lo), or O(N + hi - lo) by offset.
    Sorted: each block is reduced by _group_sums, and the reduced blocks
    are merged into the result whenever they hold as many codes as it
    does.  Memory is O(N + _PAIR_BLOCK + distinct codes).  Either way the
    cost is linear in N plus the number of pairs."""
    if plan.grouping == "binned":
        lo, hi = plan.codes
        if not np.any(weights.imag):
            weights = weights.real
        sums = np.zeros(hi - lo + 1, dtype=weights.dtype)
        least = weights.min() if weights.dtype == float else 0.0
        met = sums if least > 0 and least * least > 0 else np.zeros(len(sums), dtype=bool)
        pairs = _offset_pairs if plan.partners == "scan" else _pair_blocks
        for codes, products in pairs(plan.first, plan.keys, weights):
            codes -= lo
            if met is not sums:
                met[codes] = True
            np.add.at(sums, codes, products)
        codes = np.flatnonzero(met)
        return codes + lo, sums[codes]
    codes, sums = np.empty(0, dtype=np.int64), np.empty(0, dtype=complex)
    parts, held = [], 0
    for block in _pair_blocks(plan.first, plan.keys, weights):
        parts.append(_group_sums(*block))
        held += len(parts[-1][0])
        if held >= max(len(codes), _PAIR_BLOCK):
            parts.append((codes, sums))
            codes, sums = _group_sums(*map(np.concatenate, zip(*parts)))
            parts, held = [], 0
    parts.append((codes, sums))
    return _group_sums(*map(np.concatenate, zip(*parts)))


def _dense_sums(keys, weights, max_lag):
    """Lags 1..max_lag that occur between the ascending integer keys, from
    0, and their sums, by overlap-save over blocks of b = next_fast_len(max_lag)
    positions, _DENSE_TILE at a time: with X_t block t's spectrum at length
    2b, the sums and the pair counts (of the occupancy) invert the sum over
    t of |X_t|^2 + (-1)^f conj(X_t) X_(t+1).  Memory is O(N + _DENSE_TILE + b)."""
    b = next_fast_len(max(max_lag, 1))
    step = max(_DENSE_TILE // b, 1) * b
    end = (int(keys[-1]) // b + 1) * b  # the blocks that cover the keys
    out = []
    for fft, ifft, values in ((np.fft.fft, np.fft.ifft, weights),
                              (np.fft.rfft, np.fft.irfft, np.ones(len(keys)))):
        same = after = last = 0.0
        for lo in range(0, end, step):
            i, j = np.searchsorted(keys, [lo, lo + step])
            x = np.zeros(min(step, end - lo), dtype=values.dtype)
            x[keys[i:j] - lo] = values[i:j]
            x = fft(x.reshape(-1, b), 2 * b)
            same += np.sum(x.real ** 2 + x.imag ** 2, axis=0)
            after += np.conj(last) * x[0] + np.einsum("ij,ij->j", np.conj(x[:-1]), x[1:])
            last = x[-1]
        after[1::2] *= -1
        after += same
        del same, last, x  # the inverse FFT and its kept lags need only after
        out.append(ifft(after, 2 * b)[1:max_lag + 1].copy())
    return (lags := np.flatnonzero(out[1] > 0.5)) + 1, out[0][lags]


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
    are cut on, the cut bound, the decoder from codes to differences, the
    largest decoded difference kept, and the range (lo, hi) that holds the
    code of every pair within the cut, or None where it is not known.

    Integers: keys and cut are the integers less the least, the bound
    max_diff / scale clipped to the span, the codes 1 .. the bound.
    Module (m, n): a * (m - m_min) + (n - n_min); see _module_keys.
    Floats: the _LOOKUP_TOL grid, which must not put two points on one key.
    OutOfRangeError when the codes of the comb do not fit in int64."""
    coords = comb.coords
    if isinstance(coords, IntegerCoords):
        values, scale = coords.values, coords.scale
        span = int(values[-1]) - int(values[0]) + 1
        if span > _INT64_MAX:
            raise OutOfRangeError("integer positions of this comb span more than int64")
        # no two integers differ by the span, so clipping the lag bound to it
        # keeps every pair; with keys from 0, keys - bound cannot wrap
        keys = values - values[0]
        max_lag = min(int(math.floor(max_diff / scale + 1e-12)), span)
        return keys, keys, max_lag, lambda codes: codes * scale, math.inf, (1, max_lag)
    if isinstance(coords, ModuleCoords):
        return _module_keys(coords.mn[:, 0], coords.mn[:, 1], comb.positions, max_diff)
    keys = _float_keys(comb.positions, max_diff)
    if np.any(np.diff(keys) == 0):
        raise OutOfRangeError(f"two float positions fall on one key of the "
                              f"{_LOOKUP_TOL:g} grid; use exact coordinates")
    return keys, comb.positions, max_diff, lambda codes: codes * _LOOKUP_TOL, math.inf, None


def _module_keys(m, n, positions, max_diff):
    """_exact_keys of a module comb: the keys a * (m - m_min) + (n - n_min),
    a = floor(max_diff + 6 * slack) + 3, cut on the float positions.

    Each position and each decoded difference is within slack of its exact
    value (a few roundings of numbers at most |m| tau + |n| in size), so
    the cut is widened to max_diff + slack, and a kept pair's exact
    difference z = dm * tau + dn lies in [-slack, max_diff + 2 * slack].
    Its code c = a * dm + dn = dm * (a - tau) + z, and a - tau exceeds that
    window by 6 * slack and more than 1/3: the code is one-to-one on the
    kept pairs, and dm is the integer nearest (c - max_diff / 2) / (a - tau)
    even when that quotient is off by a difference within slack.  The
    decoder takes that quotient in doubles, whose rounding grows with c,
    then once more with the decoded difference in place of c - dm (a - tau),
    which is exact.  dm sqrt 5 = z - z* for the star images z*, so the codes
    lie in a range known from the spread of the comb's star images.  A code
    is kept when it decodes to at most max_diff."""
    (m0, m1), (n0, n1) = (int(m.min()), int(m.max())), (int(n.min()), int(n.max()))
    slack = 16 * np.spacing(float(max(-m0, m1)) * TAU + float(max(-n0, n1)))
    a = math.floor(max_diff + 6 * slack) + 3
    # the codes of pairs, and a * dm for any dm of the range, differ by at
    # most twice the keys' range, which must fit in int64
    if (m1 - m0) * a + n1 - n0 >= 2 ** 62:
        raise OutOfRangeError("module differences of this comb have no exact int64 code")
    keys = m - m0
    # the star images x - (m - m0) sqrt 5, up to one shift
    stars = keys * SQRT5
    np.subtract(positions, stars, out=stars)
    spread = float(stars.max() - stars.min())
    keys *= a
    keys += n
    keys -= n0
    step = a - TAU

    def decode(codes):
        """Positions dm * tau + dn of the codes a * dm + dn."""
        dm = np.rint((codes - 0.5 * max_diff) / step).astype(np.int64)
        dm += np.rint((module_position(dm, codes - a * dm) - 0.5 * max_diff)
                      / step).astype(np.int64)
        return module_position(dm, codes - a * dm)
    dm_lo = math.floor(-(spread + slack) / SQRT5) - 1
    dm_hi = math.ceil((spread + max_diff + 2 * slack) / SQRT5) + 1
    codes = (math.floor(dm_lo * step - slack) - 1,
             math.ceil(dm_hi * step + max_diff + 2 * slack) + 1)
    return keys, positions, max_diff + slack, decode, max_diff, codes


@dataclass(frozen=True)
class _Plan:
    """What estimate_autocorrelation does for one comb and max_diff, as
    _plan decides it."""

    path: str          # "pairs" or "dense"
    keys: np.ndarray   # the keys, cut bound (an integer comb's lag bound),
    bound: float       # decoder, largest kept difference and code range
    decode: Callable   # of _exact_keys
    limit: float
    codes: tuple | None
    partners: str      # "scan" or "search": how _first_partners ran
    first: np.ndarray  # each point's first partner (_first_partners)
    grouping: str      # "binned" or "sorted": how _pairwise_sums groups
    costs: dict        # estimated ns of each candidate path, if priced


def _plan(comb: WeightedComb, max_diff: float) -> _Plan:
    """The one place a path is chosen.

    The partners are scanned when the points average at most
    _SCAN_PARTNERS partners within the cut, (N - 1) * bound over the span
    of the cut, and searched otherwise.  Only an integer comb whose lag
    bound keeps _dense_sums within the size budget is priced, its pairs at
    _NS_PAIR each against its span at _NS_DENSE a position, and takes the
    cheaper, the pairs on a tie; every other comb takes the pairs.  The
    pairs are binned when their code range is known and holds at most as
    many codes as there are pairs, and sorted otherwise."""
    keys, cut, bound, decode, limit, codes = _exact_keys(comb, max_diff)
    scan = float(bound) * (len(cut) - 1) <= _SCAN_PARTNERS * float(cut[-1] - cut[0])
    first = _first_partners(cut, bound, scan)
    pairs = len(first) * (len(first) - 1) // 2 - int(first.sum())
    binned = codes is not None and codes[1] - codes[0] + 1 <= pairs
    costs = {}
    # only integer combs are cut on their keys, from 0, with a lag bound
    if cut is keys and 8 * bound <= SIZE_BUDGET:
        costs = {"pairs": _NS_PAIR * pairs, "dense": float(_NS_DENSE * (keys[-1] + 1))}
    return _Plan(min(costs, key=costs.get, default="pairs"), keys, bound, decode, limit,
                 codes, "scan" if scan else "search", first,
                 "binned" if binned else "sorted", costs)


def estimate_autocorrelation(comb: WeightedComb, max_diff: float) -> AutocorrelationEstimate:
    """Finite-volume autocorrelation coefficients of a comb for all observed
    differences z with |z| <= max_diff:

        eta(z) = (1 / vol(B_n)) * sum over x - y = z of v(x) conj(v(y))

    with x, y running over the comb.  Requires max_diff <= 2 * radius.
    Differences are grouped exactly by the keys of _exact_keys, and one
    _first_partners scan or search finds the pairs within max_diff.  _plan
    is the one place the path is chosen, pair lists (_pairwise_sums) or the
    dense sums of an integer comb (_dense_sums), and the record it returns
    is what this call executes."""
    if len(comb) == 0:
        raise EmptyInputError("cannot estimate the autocorrelation of an empty comb")
    if not 0.0 <= max_diff <= 2 * comb.radius:
        raise OutOfRangeError("max_diff must lie in [0, 2*radius], the comb diameter")
    w = comb.weights
    plan = _plan(comb, max_diff)
    if plan.path == "dense":
        codes, sums = _dense_sums(plan.keys, w, plan.bound)
    else:
        codes, sums = _pairwise_sums(plan, w)
    pos_diffs = plan.decode(np.append(codes, 0))
    sums = np.append(sums, np.dot(w, np.conj(w)))
    order = np.argsort(pos_diffs, kind="stable")
    pos_diffs, sums = pos_diffs[order], sums[order]
    keep = (pos_diffs >= 0) & (pos_diffs <= plan.limit)
    pos_diffs, sums = pos_diffs[keep], sums[keep]

    # mirror positive differences; Hermitian symmetry is exact by construction
    pos_mask = pos_diffs > 0
    diffs = np.concatenate([-pos_diffs[pos_mask][::-1], pos_diffs])
    eta = np.concatenate([np.conj(sums[pos_mask][::-1]), sums]) / comb.volume
    return AutocorrelationEstimate(diffs, eta, comb.radius, comb.volume, float(max_diff))


def pseudo_metric(est: AutocorrelationEstimate, s, t):
    """Autocorrelation pseudo-metric rho(s, t) = |1 - eta(s-t)/eta(0)|^(1/2),
    element by element over arrays s and t, which broadcast; a float when
    both are scalars.

    Differences never observed have eta = 0, hence rho = 1 off the support.
    """
    eta0 = est.eta_at(0.0).real
    if not eta0 > 0.0:
        raise DegenerateAutocorrelationError("eta(0) must be positive")
    zs = np.asarray(s, dtype=float) - np.asarray(t, dtype=float)
    if not np.all(np.abs(zs) <= est.max_diff + _LOOKUP_TOL):
        raise OutOfRangeError("difference s - t outside the estimated range or NaN")
    eta = est.eta_lookup(zs)
    rho = np.sqrt(np.hypot(1.0 - eta.real / eta0, eta.imag / eta0))
    return float(rho) if rho.ndim == 0 else rho


def epsilon_almost_periods(est: AutocorrelationEstimate, epsilon: float,
                           candidates) -> list[float]:
    """Candidates t with rho(t, 0) < epsilon, sorted ascending."""
    if not 0.0 < epsilon <= math.sqrt(2.0) + 1e-12:
        raise OutOfRangeError("epsilon must lie in (0, sqrt(2)]")
    ts = np.fromiter(candidates, dtype=float)
    return sorted(ts[pseudo_metric(est, ts, 0.0) < epsilon].tolist())


def max_gap(points, window: tuple[float, float]) -> float:
    """Largest gap between consecutive points inside the window, counting the
    gaps to the window edges; +inf when no point falls in the window.  A NaN
    point or window bound raises OutOfRangeError."""
    lo, hi = window
    if not lo <= hi:
        raise OutOfRangeError("window is empty or has a NaN bound")
    pts = np.asarray(points, dtype=float)
    if np.any(np.isnan(pts)):
        raise OutOfRangeError("points must not be NaN")
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
        least 2r apart; r must be finite and non-negative.
    """
    if not 0.0 <= r < math.inf:
        raise OutOfRangeError("r must be finite and non-negative")
    pos = comb.positions
    absw = np.abs(comb.weights)
    sup = 0.0
    if len(pos):
        cums = np.concatenate([[0.0], np.cumsum(absw)])
        hi = np.searchsorted(pos, pos + 1.0, side="left")
        sums = cums[hi] - cums[np.arange(len(pos))]
        sup = float(np.max(sums))
    ess = np.sort(est.support())
    min_gap = float(np.min(np.diff(ess))) if len(ess) > 1 else math.inf
    return A1A3Report(sup, bool(min_gap >= 2 * r), min_gap, float(r))
