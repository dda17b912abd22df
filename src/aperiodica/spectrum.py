"""Numerical diffraction estimation and closed-form spectra.

Periodogram values are

    value(k) = |sum_x v(x) T(x/n) e^(-2 pi i k x)|^2 / (vol(B_n) * mean(T)^2)

with T the boxcar taper by default.  With this normalization a Bragg atom
of intensity I produces value ~ vol(B_n) * I at its position, so intensity
estimates are value / vol; for the unit integer comb the estimate at
integer k is 1.  The optional Hann taper trades a slightly wider main lobe
for fast side-lobe decay, which matters when small atoms are read off next
to large ones.

The sums are evaluated on one of three paths, the one of lowest estimated
cost for the input's shape (point count N, k count K, the fine-grid length
that the position span times the k span implies, and the lattice length L).
_plan is the one place a path is chosen: it returns a frozen record of
every decision and its inputs, which periodogram_values executes.

* a DFT of length L (Cooley & Tukey, Math. Comp. 19 (1965) 297) for integer
  positions c*scale, scale a power of two, when a power of two L <= 2^18
  makes every k*scale*L an integer: at those k the sums are periodic mod L
  in c, so they are one bincount of the weights by c mod L and one FFT,
  read at (k*scale mod 1)*L.  Every phase is exact at any span and any k,
  2^60 and 1e300 included.
* a type-3 non-uniform FFT (Lee & Greengard, J. Comput. Phys. 206 (2005) 1)
  with the exponential-of-semicircle kernel of Barnett, Magland &
  af Klinteberg (SIAM J. Sci. Comput. 41 (2019) C479), at a fixed
  tolerance of 1e-13, below the phase rounding of direct summation.  It
  serves integer, module and float positions at uniform or scattered k,
  when its cost estimate is the lowest and its fine grid fits _GRID_CAP.
  A fine grid of nf > 2^17 cells is folded by residue class mod 7 (the
  decimation step of Cooley-Tukey): G[j] = sum_r e^(-2 pi i r j/nf)
  Y_r[j mod nf/7], Y_r the FFT of the cells r mod 7, so one column of
  nf/7 cells is spread, transformed and added into the modes at a time.
  It forms no phase of k: the weights are multiplied by e^(-2 pi i kc x),
  kc x reduced mod 1 from the digit tables of the sums below, and it sums
  at the offsets k - kc, kc the middle of ks.
  On a uniform grid k0 + l*dk the sums have period 1/dk in x, so a comb
  that spans more than one period is first wrapped into it: positions
  y = x mod 1/dk, centred on 0, and kc the grid point k0 + m*dk,
  m = (len(ks) - 1) // 2, with kc x = k0 x + m dk y mod 1 from the same
  tables.  Its fine grid then follows the k grid alone, not the comb's
  span.  The wrapped sums are exact at the progression k0 + l*dk through
  the end points of ks.  A double grid strays from it by delta_l, an ulp
  or so (0.02*l by up to 2.2e-16; dyadic grids not at all), and the sums
  are corrected to first order in delta, the Taylor idea of Anderson &
  Dahleh (SIAM J. Sci. Comput. 17 (1996)) applied to that stray alone: on
  the same kernel values the NUFFT also sums the weights times x - x_c,
  and F(k0 + l*dk + delta_l) = F(l) - 2 pi i delta_l G(l) up to a factor
  of modulus one.  A grid within a few ulps of its progression is wrapped
  while the second-order remainder stays within the NUFFT's tolerance
  (_wrap_grid); scattered k and combs within 1/dk are not wrapped.
* otherwise summation over per-k twiddle tables e^(-2 pi i frac(k u v)),
  u a column's unit and v a table entry, each phase formed in uint64 fixed
  point to a few units of 2^-64 at any |k x| (_turn_tables) and rounded to
  a double once, before the exponential.  Each integer column (k of k*scale, m and n of
  m*tau + n) splits into two base-Q digits (Q = isqrt(span) + 1,
  baby-step/giant-step) or, when a digit would need more than N entries,
  stays whole with its N values as the table, as a float column of
  mantissas does.  A point*k costs one gather per digit and a multiply at
  any span.  A module comb whose points fill a band (a model set's: its
  star images n - m/tau lie in the window, so each m has n in a run about
  the window's length) is summed by rows: with one row per m anchored at
  (m, n0(m)) and columns r = n - n0(m) < U,
  F(k) = sum_m e^(-2 pi i k (m tau + n0(m))) sum_r W[m, r] e^(-2 pi i k r),
  the row phases from the digit tables of the anchors and the column sums
  one small matrix product per block of k.

Tests hold each path within 1e-10 of the largest value of direct sums
whose phases frac(k x) come from the exact coordinates in integer
arithmetic, exact to about 2e-16 turns (tests/oracles.py, which shares the
method of the tables but no code with this module), the lattice path
within 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate

from .autocorr import estimate_autocorrelation
from .core import (
    AperiodicaError,
    EmptyInputError,
    IntegerCoords,
    LatticeBasis,
    OutOfRangeError,
    TAU,
    SpectralMeasure,
    WeightedComb,
    _own_copy,
    _product,
    _split,
    check_size,
    finite_range,
    next_fast_len,
    restrict,
)

# point*k per table-path tile: its two complex buffers (512 KiB each) stay in
# cache; 2^14 to 2^16 time alike on a 2-core Xeon VM, and tiles of 2^18
# were up to 3x slower
_TILE = 1 << 15
# the columns' units as dyadic rationals num / 2^shift: tau within 2^-201, 1
_TAU = ((1 << 200) + math.isqrt(5 << 400), 201)
_ONE = (1, 0)


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
    if ks.ndim != 1:
        raise OutOfRangeError(f"k values must form a 1-d array; got shape {ks.shape}")
    if not np.all(np.isfinite(ks)):
        raise OutOfRangeError("k values must be finite")
    w, t_mean, t_mean_sq = _taper_weights(comb, taper)
    if normalization == "line":
        norm = comb.volume * t_mean * t_mean
    elif normalization == "density":
        norm = comb.volume * t_mean_sq
    else:
        raise AperiodicaError(f"unknown normalization {normalization!r}")
    plan = _plan(comb, ks)
    if plan.path == "lattice":
        return _lattice_power(comb.coords.values, w, ks * comb.coords.scale, plan.lattice) / norm
    columns = _columns(comb)
    if plan.path == "tables":
        return _table_power(columns, w, ks) / norm
    # the NUFFT sums the weights times e^(-2 pi i kc x) at k - kc
    x = comb.positions
    turns = _turns(columns, len(x))
    if plan.wrap:
        # the sums F at the progression k0 + l*dk, corrected to first
        # order in the stray delta_l of ks[l] from it: with
        # e^(-2 pi i delta x) = e^(-2 pi i delta x_c) (1 - 2 pi i delta (x - x_c) + ...)
        # the sum at ks[l] is F(l) - 2 pi i delta_l G(l) up to a factor
        # of modulus one, G the sums of the weights w (x - x_c)
        k0, dk, delta = plan.wrap
        ws = [w, w * (x - 0.5 * (x[0] + x[-1]))] if np.any(delta) else [w]
        m = (len(ks) - 1) // 2
        y, ws = _wrap(turns, np.array(ws), k0, dk, m)
        offsets = (np.arange(len(ks)) - m) * dk
    else:
        kc = 0.5 * (ks.max() + ks.min())
        y, ws, offsets = x, w[None] * _phases(turns(kc)), ks - kc
    f = _nufft(y, ws, offsets)
    sums = f[0] - 2j * math.pi * delta * f[1] if len(f) > 1 else f[0]
    return np.abs(sums) ** 2 * _NUFFT_SCALE ** 2 / norm


@dataclass(frozen=True)
class _Plan:
    """What periodogram_values does for one comb and k set, as _plan
    decides it from the coordinates and k alone (the taper moves nothing)."""

    path: str           # "lattice", "nufft" or "tables"
    n: int              # points
    count: int          # k
    x_span: float       # the spans the NUFFT is priced at, x_span 1/dk when wrapped
    k_span: float
    lattice: int        # the DFT length of _lattice_length, 0 for none
    wrap: tuple | None  # (k0, dk, delta) of _wrap_grid
    nf: int             # the NUFFT's fine-grid length at those spans
    costs: dict         # estimated ns of each candidate path (_costs)


def _plan(comb: WeightedComb, ks: np.ndarray) -> _Plan:
    """The one place a path is chosen: the cheapest of _costs, the first of
    its order on a tie."""
    x = comb.positions
    lattice = _lattice_length(comb.coords, ks)
    # on a uniform grid k0 + l*dk the sums have period 1/dk in x: a comb
    # spanning more than one period is wrapped into it before the NUFFT
    wrap = _wrap_grid(ks, x[-1] - x[0])
    x_span = float(1.0 / wrap[1] if wrap else x[-1] - x[0])
    k_span = float(np.ptp(ks)) if len(ks) else 0.0
    nf = _fine_grid(x_span, k_span)[0]
    costs = _costs(len(x), len(ks), nf, _NS_FLOAT if comb.coords is None else _NS_TABLE,
                   lattice)
    return _Plan(min(costs, key=costs.get), len(x), len(ks), x_span, k_span, lattice,
                 wrap, nf, costs)


def _columns(comb: WeightedComb) -> list:
    """The columns (c, units, unit_of) of the comb's coordinates, x_j the
    sum over columns of c[j] units[unit_of[j]], each unit a dyadic rational
    num / 2^shift: the integers k with the scale, m with tau and n with 1
    (unit_of None: the one unit), or each float position's 53-bit mantissa
    (uint64) with +-2^(E - 53), E its exponent and the sign its own."""
    if (coords := comb.coords) is None:
        mantissas, exponents = np.frexp(comb.positions)
        # (E, sign) as one int64 key: np.unique(axis=0) took 2.4 ms more
        keys, unit_of = np.unique(2 * (53 - exponents) + (mantissas < 0), return_inverse=True)
        units = [(-1 if key & 1 else 1, key >> 1) for key in keys.tolist()]
        return [(np.abs(mantissas * 2.0 ** 53).astype(np.uint64), units, unit_of)]
    if isinstance(coords, IntegerCoords):
        num, den = coords.scale.as_integer_ratio()
        return [(coords.values, [(num, den.bit_length() - 1)], None)]
    return [(coords.mn[:, 0], [_TAU], None), (coords.mn[:, 1], [_ONE], None)]


def _digit_split(columns: list, n: int) -> tuple[list, np.ndarray, np.ndarray, list]:
    """The columns of _columns as digits of at most n table entries each:
    units, the entries v (uint64) of every digit in turn, the index of each
    entry's unit, and per digit d the indices a_d of its points' entries, so
    that x_j - x_ref = sum_d v[a_d[j]] units[unit_of[a_d[j]]].
    An integer column less its minimum, of span s, splits into two base-Q
    digits, Q = isqrt(s) + 1, units u*Q and u, entries 0..s // Q and
    0..Q - 1, when both fit; otherwise (two points at +-1e9 would need
    44,722) it stays whole, its distinct values the entries, as a float
    column stays whole with its mantissas.  OutOfRangeError when an integer
    column spans 2^63 or more."""
    units, entries, unit_of, digits = [], [], [], []

    def digit(values, unit, index):
        index += sum(map(len, entries))  # in place: index is a fresh array
        entries.append(values)
        unit_of.append(np.broadcast_to(unit, len(values)))
        digits.append(index)

    for c, column_units, of in columns:
        first = len(units)
        units += column_units
        if of is not None:
            digit(c, first + of, np.arange(len(c)))
            continue
        lo = int(c.min())
        span = int(c.max()) - lo  # in Python integers, which do not wrap
        if span >= 2 ** 63:
            raise OutOfRangeError("exact coordinates of this comb span 2^63 or more")
        d = c - lo
        q = math.isqrt(span) + 1
        if span // q < n and q <= n:
            num, shift = column_units[0]
            units.append((num * q, shift))
            high, low = np.divmod(d, q)
            digit(np.arange(span // q + 1), len(units) - 1, high)
            digit(np.arange(q), first, low)
        else:
            values, index = np.unique(d, return_inverse=True)
            digit(values, first, index)
    values = np.concatenate(entries, dtype=np.uint64, casting="unsafe")
    return units, values, np.concatenate(unit_of), digits


def _thetas(units: list, ks) -> np.ndarray:
    """Theta = floor(frac(k u) 2^128) for each unit u = num / 2^shift (rows)
    and double k of ks (columns), formed in Python integers, as its high
    and low 64 bits: shape (2, units, k), uint64."""
    ratios = [k.as_integer_ratio() for k in np.asarray(ks, dtype=float).tolist()]
    thetas = []
    for num, shift in units:
        for p, q in ratios:  # k = p / q, q = 2^s
            e = 128 - shift - q.bit_length() + 1
            theta = (p * num << e if e >= 0 else p * num >> -e) % (1 << 128)
            thetas.append(divmod(theta, 1 << 64))
    return np.array(thetas, dtype=np.uint64).T.reshape(2, len(units), len(ratios))


def _turn_tables(values: np.ndarray, unit_of: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """frac(k u v) in units of 2^-64 for each entry v of values (rows), u
    its unit, and each k of theta (_thetas; columns): uint64, so that sums
    of turns wrap mod 1.  It is the top 64 bits of v Theta mod 2^128, v hi
    plus the high halves of the 32-bit limb products of v = v1 2^32 + v0
    and lo = l1 2^32 + l0 (the low halves, and v0 l0, dropped): under 3
    units short, and Theta's truncation adds under v 2^-128 turns."""
    # in place on two fresh contiguous arrays: the expression's temporaries
    # (and theta[:, unit_of], a strided view) took 2.5x as long
    hi, lo = theta[0][unit_of], theta[1][unit_of]
    v = values[:, None]
    v1, l1 = v >> 32, lo >> 32
    hi *= v
    lo &= 0xFFFFFFFF
    lo *= v1
    lo >>= 32
    hi += lo
    hi += np.multiply(v1, l1, out=lo)
    l1 *= v & 0xFFFFFFFF
    l1 >>= 32
    hi += l1
    return hi


def _phases(turns: np.ndarray) -> np.ndarray:
    """e^(-2 pi i t) for turns t of _turn_tables, read in [-1/2, 1/2)."""
    return _cis(turns.view(np.int64) * (-2.0 * math.pi * 2.0 ** -64))


def _band(columns: list, w: np.ndarray) -> tuple[list, np.ndarray]:
    """The rows of the table path: the integer columns of the row anchors
    a_i and the weights W (rows, U), so that the points are a_i + r,
    r = 0..U-1, up to one common translation, and sum_j w_j e^(-2 pi i k x_j)
    is sum_i e^(-2 pi i k a_i) sum_r W[i, r] e^(-2 pi i k r) up to a factor
    of modulus one.

    A module comb takes one row per m over its range, anchored at
    (m, floor((m - m_min)/tau)), when its rows * (U + 1) entries (a row
    phase and U weights a row) number at most 2N (rows broke even with one
    row a point at about 2.6N) and U is at most the rows, so that the U
    column phases a k cost no more than the row phases and fit in their
    tiles.  Any integer anchor keeps the phases exact; this one follows the
    star image n - m/tau, so a model set's rows span its window's length
    plus 1 or 2 cells; its W is real when the weights are.  Every other
    comb (integers, float positions, the chain, a random tiling, whose star
    images wander) has one row per point and U = 1, its columns and weights
    as given."""
    if len(columns) == 2:
        (m, tau, _), (n, one, _) = columns
        # spans in Python integers, which do not overflow; rows * (U + 1) is
        # at least 2 rows, so past N rows there is no band
        m0 = int(m.min())
        rows = int(m.max()) - m0 + 1
        if rows <= len(w):
            anchors = np.arange(rows)
            n0 = np.floor(anchors / TAU).astype(np.int64)
            # r = n - n0[m - m0] and then each point's flat cell
            # (m - m0) * U + r - r0, in two arrays of N
            m = m - m0
            r = n0[m]
            np.subtract(n, r, out=r)
            r0 = int(r.min())
            u = int(r.max()) - r0 + 1
            if u <= rows and rows * (u + 1) <= 2 * len(w):
                r -= r0
                m *= u
                m += r
                # real weights stay real, for _table_power's real products
                real = not np.any(w.imag)
                weights = np.zeros((rows, u), dtype=float if real else complex)
                weights.reshape(-1)[m] = w.real if real else w
                return [(anchors, tau, None), (n0, one, None)], weights
    return columns, w[:, None]


def _table_power(columns: list, w: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """|sum_j w_j e^(-2 pi i k x_j)|^2 at every k, for x_j given by the
    columns of _columns.

    The points are summed by the rows of _band: anchors a_i with weights
    W[i, r] at a_i + r, r = 0..U-1.  With the digits of _digit_split over
    the anchors, digit d has per k the table e^(-2 pi i frac(k u v)) over
    its entries v, at most one entry per row, all digits' and the columns'
    tables one _turn_tables call per block of k.  Per block, sized so that
    the row phases (rows x k) and, as U <= rows, the column tables and sums
    (U x k) each hold at most _TILE entries, the row phases are the tables
    gathered at the digits and multiplied, and the sum per k is
    sum_r e^(-2 pi i k r) sum_i W[i, r] e^(-2 pi i k a_i), the inner sums
    (U x rows) by (rows x k) products of at most _TILE cells*k each, which
    OpenBLAS runs on one thread (threaded ones stalled).  Real band weights
    multiply the (re, im) doubles of the row phases in one real product.
    With one point a row (U = 1) the products are w . (row phases) tile by
    tile, and the
    sums are those of one product per point, bit for bit.  The result drops
    the unit-modulus factor e^(-2 pi i k x_ref) of each k."""
    columns, weights = _band(columns, w)
    n, u = weights.shape
    real = weights.dtype == float
    units, values, unit_of, digits = _digit_split(columns, n)
    # the column phases are the last U entries, of unit 1
    values = np.concatenate([values, np.arange(u, dtype=np.uint64)])
    unit_of = np.concatenate([unit_of, np.full(u, len(units))])
    theta = _thetas(units + [_ONE], ks)
    block = max(1, _TILE // n)             # k per tile
    step = _TILE // block                  # rows per tile: all of them when block > 1
    chunk = max(1, _TILE // (block * u))   # rows per product
    out = np.empty(len(ks))
    # take(mode="clip") fills a buffer in place, where mode="raise" would
    # buffer; the digits are in range by construction
    bufs = np.empty((2, min(step, n) * min(block, len(ks))), dtype=complex)
    for start in range(0, len(ks), block):
        table = _phases(_turn_tables(values, unit_of, theta[:, :, start:start + block]))
        kc = table.shape[1]
        total = np.zeros((u, kc), dtype=complex)
        for p in range(0, n, step):
            m = min(step, n - p)
            acc, rows = bufs[:, :m * kc].reshape(2, m, kc)
            for i, a in enumerate(digits):
                np.take(table, a[p:p + m], axis=0, out=rows if i else acc, mode="clip")
                if i:
                    acc *= rows
            for q in range(0, m, chunk):
                if real:  # a real product on the (re, im) doubles of acc
                    total.view(float)[:] += (weights[p:p + m][q:q + chunk].T
                                             @ acc[q:q + chunk].view(float))
                else:
                    total += weights[p:p + m][q:q + chunk].T @ acc[q:q + chunk]
        # with U = 1: the one row of total times e^0 = 1, exact
        total = np.sum(total * table[-u:], axis=0)
        out[start:start + block] = np.abs(total) ** 2
    return out


def _wrap_grid(ks: np.ndarray, span: float):
    """(k0, dk, delta) when a comb of this position span can be wrapped to
    one period 1/dk of ks: ks has two k or more, the comb spans more than
    1/dk, and ks is the progression k0 + l*dk through its end points to
    within 4 ulps of its largest |k|; None otherwise (also past 2^996).  k0
    and dk are doubles, dk > 0, and delta_l = ks[l] - (k0 + l*dk), which
    rounds to 0 in doubles, is (ks[l] - s) - (t + e) from TwoProduct
    l*dk = p + e and TwoSum k0 + p = s + t.

    The wrapped sums are exact at the progression, and periodogram_values
    corrects them to first order in delta.  A dyadic grid such as criterion
    8's multiples of 2^-9 has delta = 0; 0.02*l strays by up to 2.2e-16.
    The grid is wrapped only while the second-order remainder,
    (pi max|delta| span)^2 / 2 relative to sum |w|, stays within the
    NUFFT's own tolerance: it is 1.8e-20 for 0.02*l over criterion 4's
    span of 2.8e5."""
    if len(ks) < 2:
        return None
    k0, dk = float(ks[0]), float((ks[-1] - ks[0]) / (len(ks) - 1))
    if not span * dk > 1:
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # past 2^996: nan, not wrapped
        p, e = _product(np.arange(len(ks), dtype=float), dk, *_split(dk))
        s = k0 + p
        b = s - k0
        delta = (ks - s) - ((k0 - (s - b)) + (p - b) + e)
    stray = float(np.max(np.abs(delta)))
    if not (stray <= 4 * np.spacing(np.max(np.abs(ks)))
            and math.pi * stray * span <= math.sqrt(2 * _NUFFT_TOL)):
        return None
    return k0, dk, delta


def _turns(columns: list, n: int):
    """turns(k): frac(k x_j) per point of the columns at the double k, less
    x_ref (a unit-modulus factor per k), in units of 2^-64 (uint64): the
    sum of its digits' table entries, reduced mod 1 by the wrap-around."""
    units, values, unit_of, digits = _digit_split(columns, n)

    def turns(k):
        table = _turn_tables(values, unit_of, _thetas(units, [k]))[:, 0]
        return sum(np.take(table, a) for a in digits)
    return turns


def _wrap(turns, ws: np.ndarray, k0: float, dk: float, m: int):
    """The comb of turns (_turns) wrapped to one period 1/dk of the grid
    k0 + l*dk: positions y_j = f_j/dk, f_j = turns(dk)[j] centred to
    [-1/2, 1/2) by its signed view, ascending, with each row of weights
    ws[v, j] e^(-2 pi i kc x_j) in the same order, kc = k0 + m dk and
    kc x_j mod 1 formed as turns(k0)[j] + m f_j in uint64, exact but for
    the tables' few units of 2^-64.  sum_j w_j e^(-2 pi i (k0 + l dk) x_j)
    is then sum_j w'_j e^(-2 pi i (l - m) dk y_j)."""
    f = turns(dk)
    ws = ws * _phases(f * m + turns(k0) if k0 else f * m)
    f = f.view(np.int64)
    order = np.argsort(f)
    return f[order] * (2.0 ** -64 / dk), np.take(ws, order, axis=1)


# -- type-3 NUFFT ---------------------------------------------------------------
#
# With positions centred to |x| <= X and k centred to |k| <= S, the sum
# F(k) = sum_j c_j e^(-2 pi i k x_j) is computed in three steps:
#   1. spread c_j / psi^(x_j) onto an x grid of nf cells g[n], spacing h,
#      with the kernel phi;
#   2. an FFT of length nf gives the spread sums G[j] at the k grid j*dk,
#      dk = 1/(nf h); divide by phi^(j dk) only at the modes step 3 reads;
#   3. interpolate those modes to each k with the kernel psi.
# phi and psi are the same ES kernel, _WIDTH cells of their grid wide.  The
# k grid oversamples the position span (dk = 1/(2 sigma X)) and the x grid
# oversamples the padded k span (h <= 1/(2 sigma S')), both by _SIGMA.
#
# Steps 1 and 2 run on a grid folded by residue class r mod q, q the fold
# (_FOLD, or 1 on short grids), as in the decimation step of Cooley-Tukey
# (Bailey's four-step FFT, J. Supercomputing 4 (1990) 23), with P = nf/q:
#   G[j] = sum_r e^(-2 pi i r j / nf) Y_r[j mod P],
#   Y_r[m] = sum_n1 g[q n1 + r] e^(-2 pi i n1 m / P).
# One column g[q n1 + r] is spread, transformed and added into the modes
# at a time, so neither the whole grid nor an FFT of length nf is held.
# q divides _WIDTH, so each point puts _WIDTH/q cells in each class.

_NUFFT_TOL = 1e-13
_SIGMA = 2.0
_WIDTH = int(math.ceil(-math.log10(_NUFFT_TOL / 10.0)))  # kernel cells: 14
_BETA = 2.30 * _WIDTH                                     # ES shape at sigma 2
_T_MAX = _WIDTH / (4.0 * _SIGMA)  # largest argument of the kernel transform
_BLOCK = 2048                     # points spread, or k interpolated, per block
# fine-grid cap: the NUFFT holds one column of nf/q modes with the FFT's
# scratch copy and twiddle factors for it, 48 bytes a mode (~1.9 MiB at the
# cap, 48 nf/7 bytes), plus 16 bytes per weight row of each mode the k read.
# The cap stays where the unfolded grid put it: raising it would move path
# choices, whose rates are still unchecked (ROADMAP item 3).
_GRID_CAP = 283_989
# the fold: q = 7 divides _WIDTH = 14, so a point has two cells per class,
# at kernel arguments z and z + 1.  Grids above _FOLD_MIN are folded.  A
# folded point costs ~15% more to spread (per class, the class's first cell
# and index), and the short FFTs and the column in cache repay it on long
# grids.  Measured q = 7 / q = 1 time of _nufft at 800 scattered k on a
# 2-core Xeon VM: at nf 96,040, 0.90 (4,473 points), 1.10 and 1.04 (20,001
# points, one and two weight rows) and 1.21 (200,001); at nf 144,060, 0.74,
# 1.05, 0.67 and 1.03; at nf 224,532, 0.92, 0.94, 0.64 and 0.99.
_FOLD = 7
_FOLD_MIN = 1 << 17
# points per block of a folded spread: (2, 8192) kernel values, within the
# unfolded (14, 2048); blocks of 14,336 points ran up to 1.25x slower
_FOLD_BLOCK = 8192
# _nufft's sums are the kernel sums of step 3: the true sums divided by this
_NUFFT_SCALE = 4.0 / _WIDTH ** 2

# cost model, in ns as measured on a 2-core Xeon VM: the table sums per
# point*k of a float column (43-60 ns from 1,000 to 20,000 points at 40-300
# k with phases in uint64 fixed point, 72-114 in extended precision; priced
# at the 55 of the double-phase sums it replaced, which keeps every path
# choice) and of exact coordinates (9-19 ns from 200,001 to 20,001 points);
# the fast path per point spread, per nf*log2(nf) of the FFT, per k
# interpolated, plus a fixed set-up, priced at a corrected wrap's two weight
# vectors on one set of kernel values (430 ns per point and 310-400 ns per
# k from 4,473 to 200,000 points; one vector takes 330 and 230-390); the
# lattice path per point binned
# (10-18 ns from 200,000 down to 2,000 points) and per L*log2(L) of its FFT
_NS_FLOAT = 55.0
_NS_TABLE = 20.0
_NS_BIN = 15.0
_NS_SPREAD = 450.0
_NS_FFT = 3.0
_NS_INTERP = 350.0
_NS_FIXED = 5.0e5


def _es(z: np.ndarray) -> np.ndarray:
    """ES kernel exp(beta (sqrt(1 - z^2) - 1)), for z in [-1, 1], in place
    in one buffer."""
    t = z * z
    np.subtract(1.0, t, out=t)
    np.maximum(t, 0.0, out=t)
    np.sqrt(t, out=t)
    t -= 1.0
    t *= _BETA
    return np.exp(t, out=t)


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
# points per block of _es_transform: its four buffers (256 KiB) stay in
# cache, where whole arrays of 200,001 points ran at ~45 ns a point
_SERIES_BLOCK = 8192


def _es_transform(t: np.ndarray) -> np.ndarray:
    """E(|t|) for |t| <= _T_MAX, from its Chebyshev series by Clenshaw's
    recurrence b_k = c_k + 2u b_(k+1) - b_(k+2), u = 2|t|/_T_MAX - 1, in
    blocks of _SERIES_BLOCK points: 2u is formed in the output, and b_k is
    written over b_(k+2), with the product 2u b_(k+1) in a third buffer."""
    t = np.abs(t, dtype=float)
    out = np.empty_like(t)
    size = min(len(t), _SERIES_BLOCK)
    buffers = np.empty((3, size))
    for start in range(0, len(t), _SERIES_BLOCK):
        y = np.multiply(t[start:start + _SERIES_BLOCK], 4.0 / _T_MAX,
                        out=out[start:start + _SERIES_BLOCK])
        y -= 2.0
        b1, b2, product = buffers[:, :len(y)]
        b1.fill(_ES_SERIES[-1])
        b2.fill(0.0)
        for c in _ES_SERIES[-2:0:-1]:
            np.multiply(y, b1, out=product)
            np.subtract(product, b2, out=b2)
            b2 += c
            b1, b2 = b2, b1
        # c_0 + u b_1 - b_2
        y *= 0.5
        y *= b1
        y -= b2
        y += _ES_SERIES[0]
    return out


def _fine_grid(x_span: float, k_span: float) -> tuple[int, float, int]:
    """Fine-grid length nf >= 4 sigma^2 X S', the k-grid spacing dk for the
    given position and k spans, and the fold q of _nufft.  When the length
    fits the cap it is rounded up to q times a fast FFT length, q = _FOLD
    above _FOLD_MIN and 1 below, so nf stays 11-smooth and divisible by q."""
    half_k = 0.5 * k_span
    # a degenerate position span only needs some dk that keeps nf finite
    half_x = max(0.5 * x_span, 1.0 / max(half_k, 1.0))
    dk = 1.0 / (2.0 * _SIGMA * half_x)
    padded = half_k + 0.5 * _WIDTH * dk
    # the spread support, nf / sigma cells plus a stencil, must not wrap
    nf = max(math.ceil(2.0 * _SIGMA * padded / dk), 2 * _WIDTH + 2)
    if nf > _GRID_CAP:
        return nf, dk, 1
    fold = _FOLD if nf > _FOLD_MIN else 1
    return fold * next_fast_len(-(-nf // fold)), dk, fold


def _costs(n: int, count: int, nf: int, ns_other: float, lattice: int = 0) -> dict:
    """Estimated ns of each path for n points at count k: "tables" at
    ns_other per point*k (_NS_TABLE for exact coordinates, _NS_FLOAT for
    float positions), "nufft" on a fine grid of nf modes when it fits the
    cap, and "lattice" when _lattice_length gave a DFT length, in that
    order."""
    costs = {"tables": ns_other * n * count}
    if nf <= _GRID_CAP:
        costs["nufft"] = (_NS_FIXED + _NS_SPREAD * n + _NS_FFT * nf * math.log2(nf)
                          + _NS_INTERP * count)
    if lattice:
        costs["lattice"] = _NS_BIN * n + _NS_FFT * lattice * math.log2(lattice)
    return costs


def _nufft(x: np.ndarray, ws: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """sum_j ws[v, j] e^(-2 pi i k x_j) / _NUFFT_SCALE at every k, for each
    row v of ws, by the type-3 NUFFT; one row per weight vector in the
    result.  x must be ascending; the sums drop a unit-modulus factor per k.
    The rows share the kernel values, the deconvolution and the FFT calls.
    It forms no phase of k: the caller centres ks, and the fine grid spans
    2 max|k|, so k that are not centred cost grid length, not accuracy."""
    x_center = 0.5 * (x[0] + x[-1])
    nf, dk, fold = _fine_grid(x[-1] - x[0], 2.0 * np.max(np.abs(ks)))
    h = 1.0 / (nf * dk)
    offsets = np.arange(_WIDTH)
    first = math.floor((x[0] - x_center) / h - 0.5 * _WIDTH)  # cell at index 0

    # the modes j under the interpolation stencils, ascending
    left = np.ceil(ks / dk - 0.5 * _WIDTH).astype(np.int64)
    j_lo = int(left.min())
    touched = np.zeros(int(left.max()) - j_lo + _WIDTH, dtype=bool)
    for i in range(_WIDTH):
        touched[left - j_lo + i] = True
    j = np.flatnonzero(touched) + j_lo

    # 1. and 2. spread, pre-weighted by the k kernel's transform, and FFT
    # one column of residue class r at a time, the last first; its modes
    # enter G[j] by Horner's rule in e^(-2 pi i j / nf)
    xs = x - x_center
    es_x = _es_transform(0.5 * _WIDTH * dk * xs)
    step = _cis((j % nf) * (-2.0 * math.pi / nf)) if fold > 1 else 1.0
    in_column = j % (nf // fold)
    modes = np.zeros((len(ws), len(j)), dtype=complex)
    for column in _class_columns(xs, h, first, ws, es_x, nf, fold):
        modes *= step
        modes += column[:, in_column]
    # the grid starts at cell `first`: shift each mode's phase back, and
    # deconvolve only the modes that step 3 reads
    modes *= _cis((j * first % nf) * (-2.0 * math.pi / nf))
    modes /= _es_transform(0.5 * _WIDTH * h * dk * j)

    # 3. interpolate to each k
    out = np.empty((len(ws), len(ks)), dtype=complex)
    at = np.searchsorted(j, left)  # each stencil's first mode in j
    for start in range(0, len(ks), _BLOCK):
        cells = left[start:start + _BLOCK, None] + offsets
        psi = _es((cells * dk - ks[start:start + _BLOCK, None]) * (2.0 / (_WIDTH * dk)))
        stencils = at[start:start + _BLOCK, None] + offsets
        for row, m in zip(out, modes):
            row[start:start + _BLOCK] = np.einsum("ij,ij->i", psi, m[stencils])
    return out


def _class_columns(xs: np.ndarray, h: float, first: int, ws: np.ndarray,
                   es_x: np.ndarray, nf: int, fold: int):
    """For r = fold - 1 down to 0, the FFT of column r of the fine grid of
    spacing h: the weights ws / es_x at the ascending positions xs, spread
    with the kernel onto the cells first + n with n = r mod fold, at
    n // fold, one row per row of ws.  The columns share one buffer.

    A point's left cell is first + fold*n0 + rem, so its _WIDTH // fold
    cells of class r start at n1 = n0 + (rem > r) and lie fold cells apart,
    2 fold/_WIDTH apart in the kernel's argument, which starts at
    z0 + 2 r/_WIDTH + (rem > r), z0 its value at cell first + fold*n0."""
    block = _BLOCK if fold == 1 else _FOLD_BLOCK

    def points(start):
        u = xs[start:start + block] / h
        n0 = np.ceil(u - 0.5 * _WIDTH).astype(np.int64) - first
        rem = n0.copy()
        n0 //= fold
        rem -= fold * n0
        z0 = (fold * n0 + first - u) * (2.0 / _WIDTH)
        return n0, rem, z0, ws[:, start:start + block] / es_x[start:start + block]

    blocks = map(points, range(0, len(xs), block))
    if fold > 1:
        blocks = list(blocks)  # every class reads them
    per_class = _WIDTH // fold
    cells = np.arange(per_class)[:, None]
    column = np.empty((len(ws), nf // fold), dtype=complex)
    for r in range(fold - 1, -1, -1):
        column.fill(0.0)
        for n0, rem, z0, weights in blocks:
            later = rem > r
            n1 = n0 + later
            lo, span = int(n1[0]), int(n1[-1] - n1[0]) + per_class
            idx = (n1 - lo + cells).ravel()
            phi = _es(z0 + r * (2.0 / _WIDTH) + later + (2.0 * fold / _WIDTH) * cells)
            for row, c in zip(column, weights):
                row.real[lo:lo + span] += np.bincount(idx, (phi * c.real).ravel(), span)
                row.imag[lo:lo + span] += np.bincount(idx, (phi * c.imag).ravel(), span)
        np.fft.fft(column, axis=1, out=column)
        yield column


def _cis(angle: np.ndarray) -> np.ndarray:
    """e^(i angle), cos and sin filling the parts in place: bit for bit
    np.exp's, which took 25% longer on the tables."""
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


# -- lattice DFT ----------------------------------------------------------------

# largest r of a DFT length 2^r, the largest power of two within _GRID_CAP
_LATTICE_R_CAP = _GRID_CAP.bit_length() - 1


def _dyadic_levels(u, cap: int) -> np.ndarray:
    """Per entry of the finite u, the r with u = odd/2^r (r = 0 for integers
    and 0) when r <= cap; cap + 1 when there is none.  It is read off the
    double: u = M 2^(e - 53) with M an integer, |M| < 2^53, so r is
    53 - e - (trailing zero bits of M), or 0 when that is negative."""
    fraction, e = np.frexp(u)
    # bit 62 lies above every bit of M: it leaves M's lowest set bit as it
    # is and gives u = 0 level 0
    m = (fraction * 2.0 ** 53).astype(np.int64) | (1 << 62)
    zeros = np.frexp((m & -m).astype(float))[1] - 1
    return np.clip(53 - e - zeros, 0, cap + 1)


def _lattice_length(coords, ks: np.ndarray) -> int:
    """The DFT length L of the lattice path: for integer coordinates whose
    scale is a power of two, so that k*scale is exact, the smallest power of
    two L <= _GRID_CAP with k*scale*L an integer for every k of ks; 0 when
    there is none, when some k*scale overflows, or when the coordinates are
    not such integers."""
    if not isinstance(coords, IntegerCoords) or math.frexp(coords.scale)[0] != 0.5:
        return 0
    with np.errstate(over="ignore"):
        u = ks * coords.scale
    if not np.all(np.isfinite(u)):
        return 0
    # one k first, in one exact fmod: a scattered or linspace k set fails at
    # its middle k, which is no multiple of 2^-cap (0 passes it)
    if len(u) and math.fmod(u[len(u) // 2], 2.0 ** -_LATTICE_R_CAP):
        return 0
    level = int(_dyadic_levels(u, _LATTICE_R_CAP).max(initial=0))
    return 1 << level if level <= _LATTICE_R_CAP else 0


def _lattice_power(c: np.ndarray, w: np.ndarray, u: np.ndarray, size: int) -> np.ndarray:
    """|sum_j w_j e^(-2 pi i u c_j)|^2 at every u, for integers c_j and a
    power of two size with u*size an integer for every u.

    Each term depends on c_j mod size alone, so the sums are the DFT of
    length size of the weights binned by c mod size, read at u*size mod
    size.  That index is formed as (u mod 1)*size, exact in doubles and
    finite for any u.  At size 1 every sum is the weights' sum."""
    if size == 1:
        return np.full(len(u), abs(np.sum(w)) ** 2)
    residues = c & (size - 1)
    bins = np.bincount(residues, w.real, size)
    if np.any(w.imag):
        bins = bins + 1j * np.bincount(residues, w.imag, size)
    power = np.abs(np.fft.fft(bins)) ** 2
    return power[(np.mod(u, 1.0) * size).astype(np.int64)]


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
    A ratio of at least 1.7 classifies a peak as Bragg.

    Two radii cannot tell an atom from a peak that grows with another power
    of the volume, or one that swings with the patch: on the Thue-Morse
    fixed point of THUE_MORSE.power(2) (weights +-1) at k = 1/3 and
    R = 2^14, seeds a|b and b|a read 4.49 and seeds a|a and b|b read 0.50,
    although that singular continuous spectrum has no atom there (ROADMAP
    item 11)."""
    half = restrict(comb, comb.radius / 2.0)
    full_v = periodogram_values(comb, ks, taper)
    half_v = periodogram_values(half, ks, taper)
    return full_v / np.maximum(half_v, 1e-300)


BRAGG_RATIO_THRESHOLD = 1.7


# -- paperfolding closed form -------------------------------------------------

# largest r at which k = m/2^r counts as an atom position: every double is
# m/2^r for some r, so without a cap a rounded 1/3 (m/2^54) reads as an atom
_DYADIC_R_CAP = 32


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
    most 4^-33 |B-D|^2.  A non-finite k raises OutOfRangeError.
    """
    if not math.isfinite(k):
        raise OutOfRangeError(f"k must be finite; got {k}")
    r = int(_dyadic_levels(k, _DYADIC_R_CAP))
    if r > _DYADIC_R_CAP:
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
    degenerate: bool                 # S or S^c empty: identity holds trivially
    message: str = ""


def complement_check(s_points, lattice: LatticeBasis, radius: float) -> ComplementReport:
    """Compare a lattice subset against its complement inside B_radius.

    (a) the finite-volume identity eta_c(z) - dens(S^c) = eta_s(z) - dens(S)
        over |z| <= radius/2 (boundary bias is O(1/n));
    (b) the periodogram difference against the predicted pure Bragg shift
        (dens(S^c) - dens(S)) * dens(lattice) at dual lattice points;
    (c) when the densities agree, the maximal spectral difference on the
        intensity scale over _COMPLEMENT_KS points of [0, 2/a), a the lattice
        spacing: the spectra have period 1/a, so k = 2/a would repeat k = 0.
    A point of S listed twice raises SubsetError; an empty S or S^c gives
    the degenerate report.
    """
    if lattice.dim != 1:
        raise AperiodicaError("complement check is one-dimensional")
    if not 0.0 < radius < math.inf:
        raise OutOfRangeError("radius must be finite and positive")
    a = abs(float(lattice.matrix[0, 0]))  # the basis -a spans the same lattice
    s_points = np.asarray(s_points, dtype=float)
    if not np.all(np.isfinite(s_points)):
        raise SubsetError("S has a NaN or infinite point")
    ratios = s_points / a
    if np.any(np.abs(ratios - np.round(ratios)) > 1e-9):
        raise SubsetError("S is not a subset of the lattice")
    if np.any(np.abs(s_points) > radius + 1e-9):
        raise SubsetError("S reaches outside the ball")
    s_idx = np.round(ratios).astype(np.int64)
    values, counts = np.unique(s_idx, return_counts=True)
    if np.any(counts > 1):
        raise SubsetError(f"S lists the point {values[counts > 1][0] * a} more than once")
    check_size(2.0 * radius / a + 1.0, "the lattice points of the ball")
    lo = math.ceil(-radius / a - 1e-9)
    all_idx = np.arange(lo, math.floor(radius / a + 1e-9) + 1, dtype=np.int64)
    # the ball's indices that S leaves free, by a mask where np.setdiff1d
    # would import numpy.ma (~11 ms on first use)
    free = np.ones(len(all_idx), dtype=bool)
    at = s_idx - lo
    free[at[(at >= 0) & (at < len(free))]] = False
    c_idx = all_idx[free]
    vol = 2.0 * radius
    dens_s = len(s_idx) / vol
    dens_c = len(c_idx) / vol

    if len(s_idx) == 0 or len(c_idx) == 0:
        empty = "complement" if len(s_idx) else "S"
        return ComplementReport(dens_s, dens_c, 0.0, 0.0, None, None, True,
                                f"{empty} is empty; identity holds trivially")
    comb_s = WeightedComb._integers(s_idx, np.ones(len(s_idx), dtype=complex), radius, a)
    comb_c = WeightedComb._integers(c_idx, np.ones(len(c_idx), dtype=complex), radius, a)

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
        dk = 2.0 / (_COMPLEMENT_KS * a)
        k_grid = uniform_grid(0.0, 2.0 / a - dk, dk)
        v_s = periodogram_values(comb_s, k_grid)
        v_c = periodogram_values(comb_c, k_grid)
        diff = np.abs(v_c - v_s) / vol
        spectral_max = float(np.max(diff))
        spectral_mean = float(np.mean(diff))
    return ComplementReport(dens_s, dens_c, identity_dev, bragg_dev,
                            spectral_max, spectral_mean, False)
