"""Shared domain types: weighted Dirac combs, quadratic-module coordinates,
spectral measures and lattice bases.

Positions of a comb are stored either as plain floats or with an exact
integer payload (integer multiples of a scale, or pairs (m, n) representing
m*tau + n in the golden module Z[tau]).  All generators in this package
emit the exact form; algebraic conjugation is only well defined on the
integer pairs.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TAU = (1.0 + math.sqrt(5.0)) / 2.0
TAU_CONJ = (1.0 - math.sqrt(5.0)) / 2.0
SQRT5 = math.sqrt(5.0)

_POSITION_TOL = 1e-9
_ATOM_TOL = 1e-9
# most entries that arrays sized from the inputs may take (512 MiB of int64):
# over 100x the most that any test, README example or benchmark workload
# holds in one guarded step, the ~546,000 entries of criterion 7's slab
# (sigma 0.5 at +-1e4) and the 524,289-integer 2-adic region of
# paperfolding-lattice
SIZE_BUDGET = 1 << 26


class AperiodicaError(ValueError):
    """Base class for domain errors."""


class OutOfRangeError(AperiodicaError):
    """A numeric argument violates its documented range."""


class DegenerateLatticeError(AperiodicaError):
    """Lattice basis is singular."""


class EmptyInputError(AperiodicaError):
    """An operation received an empty comb or list where it needs data."""


def check_size(count, what: str) -> None:
    """OutOfRangeError, before anything is allocated, when count, the
    entries predicted from the inputs (of one array, or of all the arrays
    a step holds at once), is over SIZE_BUDGET (or not a number)."""
    if not count <= SIZE_BUDGET:
        raise OutOfRangeError(
            f"{what} would hold {count:.3g} entries, over the budget of "
            f"{SIZE_BUDGET:,}; narrow the input")


def _smooth_lengths(limit: int) -> np.ndarray:
    """The integers 1..limit with no prime factor above 11, ascending."""
    n = np.ones(1, dtype=np.int64)
    for p in (2, 3, 5, 7, 11):
        parts, x = [n], n
        while len(x := x[x <= limit // p] * p):
            parts.append(x)
        n = np.concatenate(parts)
    return np.sort(n)


# 17,195 entries, built once at import: every periodogram call rounds a
# grid length, and enumerating the candidates per call costs ~50x a lookup
_FAST_LENGTHS = _smooth_lengths(1 << 32)


def next_fast_len(n: int) -> int:
    """Smallest integer >= n with no prime factor above 11, a length at
    which an FFT is fast; OutOfRangeError for n beyond 2^32."""
    i = int(np.searchsorted(_FAST_LENGTHS, n))
    if i == len(_FAST_LENGTHS):
        raise OutOfRangeError(f"no FFT length is tabulated for {n} > 2^32")
    return int(_FAST_LENGTHS[i])


def finite_range(bounds, what: str) -> tuple[float, float]:
    """(lo, hi) as floats; OutOfRangeError unless both are finite and
    lo <= hi."""
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise OutOfRangeError(f"the {what} must be finite; got ({lo}, {hi})")
    if hi < lo:
        raise OutOfRangeError(f"the {what} is empty")
    return lo, hi


def module_position(m, n):
    """Physical position m*tau + n of the module element (m, n) of Z[tau]."""
    return m * TAU + n


def module_star(m, n):
    """Star image m*tau' + n of (m, n): algebraic conjugation tau -> tau'."""
    return m * TAU_CONJ + n


@dataclass(frozen=True)
class ModuleElement:
    """Element m*tau + n of the golden module Z[tau], stored exactly."""

    m: int
    n: int

    def embed(self) -> float:
        return module_position(self.m, self.n)

    def star(self) -> float:
        return module_star(self.m, self.n)

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        return ModuleElement(self.m + other.m, self.n + other.n)

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return ModuleElement(self.m - other.m, self.n - other.n)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(-self.m, -self.n)


def _read_only(a: np.ndarray) -> np.ndarray:
    """a itself, made read-only."""
    a.setflags(write=False)
    return a


def _own_copy(a, dtype) -> np.ndarray:
    """A read-only copy of a as dtype, made in one step: writes to a never reach it."""
    return _read_only(np.array(a, dtype=dtype))


def _int64_copy(values, what: str) -> np.ndarray:
    """A new int64 array of values; AperiodicaError names the first entry
    that is not an integer within int64 (an integral float such as 2.0
    passes; 0.5, NaN and 2^63 do not)."""
    a = np.asarray(values)
    ok = True
    if a.dtype.kind == "f":
        ok = (a == np.round(a)) & (a >= -2.0 ** 63) & (a < 2.0 ** 63)
    elif a.dtype.kind == "u":
        ok = a <= np.iinfo(np.int64).max
    if not np.all(ok):
        raise AperiodicaError(f"{what} must be integers within int64; got {a[~ok][0]}")
    try:
        return np.array(a, dtype=np.int64)
    except OverflowError:
        raise AperiodicaError(f"{what} must be integers within int64") from None


def _ascending(keys: np.ndarray, *arrays) -> list:
    """keys and arrays, each with a row per key, in the stable ascending
    order of keys; no argsort if none descends."""
    if keys.ndim != 1:
        raise AperiodicaError("comb positions must be 1-d")
    # the module pairs come reshaped to 2-d, so only weights can be 0-d
    if any(a.ndim == 0 for a in arrays):
        raise AperiodicaError("comb weights must be 1-d")
    if any(len(a) != len(keys) for a in arrays):
        raise AperiodicaError("positions and weights differ in length")
    if not np.any(keys[1:] < keys[:-1]):
        return [keys, *arrays]
    order = np.argsort(keys, kind="stable")
    # np.take gathers the rows of a 2-d array ~10x faster than a[order]
    return [np.take(a, order, axis=0) for a in (keys, *arrays)]


@dataclass(frozen=True)
class IntegerCoords:
    """Exact positions k*scale for integer k (scale 1: the lattice Z)."""

    values: np.ndarray  # int64
    scale: float = 1.0


@dataclass(frozen=True)
class ModuleCoords:
    """Exact positions m*tau + n as integer pairs, one row per point."""

    mn: np.ndarray  # int64, shape (N, 2)


@dataclass(frozen=True)
class WeightedComb:
    """Finite weighted Dirac comb on the line: scatterer positions, sorted
    ascending, with complex weights, truncated to the interval
    [-radius, radius]."""

    positions: np.ndarray          # float64, (N,)
    weights: np.ndarray            # complex128, (N,)
    radius: float
    coords: IntegerCoords | ModuleCoords | None = None

    def __post_init__(self):
        if self.coords is not None:
            raise AperiodicaError(
                "exact coordinates are given through WeightedComb.from_integers or "
                "WeightedComb.from_module, which derive the positions from them")
        self._adopt(_own_copy(self.positions, float), _own_copy(self.weights, complex))

    @classmethod
    def _owning(cls, positions, weights, radius, coords=None) -> "WeightedComb":
        """The comb of arrays that nothing else holds, kept as they are: no
        copy is made (weights not yet complex are converted), and the checks
        of __post_init__ run all the same."""
        comb = object.__new__(cls)
        object.__setattr__(comb, "radius", radius)
        object.__setattr__(comb, "coords", coords)
        comb._adopt(np.asarray(positions, dtype=float), np.asarray(weights, dtype=complex))
        return comb

    def _adopt(self, pos: np.ndarray, w: np.ndarray) -> None:
        """Check pos and w against the radius, then keep them read-only."""
        if not 0 < self.radius < math.inf:
            raise OutOfRangeError(
                f"comb radius must be finite and positive; got {self.radius}")
        if pos.ndim != 1:
            raise AperiodicaError("comb positions must be 1-d")
        if w.ndim != 1:
            raise AperiodicaError("comb weights must be 1-d")
        if len(pos) != len(w):
            raise AperiodicaError("positions and weights differ in length")
        if len(w) and not np.all(np.isfinite(w.view(float))):
            raise AperiodicaError("weights must be finite")
        # NaN and ±inf reach the min or the max
        if len(pos) and not (np.isfinite(pos.min()) and np.isfinite(pos.max())):
            raise AperiodicaError("positions must be finite")
        if len(pos) > 1 and not np.all(pos[1:] > pos[:-1]):
            values, counts = np.unique(pos, return_counts=True, equal_nan=False)
            repeated = values[counts > 1]
            raise AperiodicaError("positions must be strictly ascending" + (
                f"; {float(repeated[0])!r} is repeated" if len(repeated) else ""))
        # ascending, so the farthest point is an end point
        if len(pos) and not max(-pos[0], pos[-1]) <= self.radius + _POSITION_TOL:
            raise AperiodicaError("points outside the stated radius")
        object.__setattr__(self, "positions", _read_only(pos))
        object.__setattr__(self, "weights", _read_only(w))

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def volume(self) -> float:
        """Length 2n of the averaging interval B_n = [-n, n]."""
        return 2.0 * self.radius

    def total_weight(self) -> complex:
        return complex(np.sum(self.weights))

    @staticmethod
    def from_integers(values, weights, radius, scale=1.0) -> "WeightedComb":
        return WeightedComb._integers(_int64_copy(values, "integer coordinates"),
                                      np.array(weights, dtype=complex), radius, scale)

    @staticmethod
    def from_module(mn, weights, radius) -> "WeightedComb":
        """mn: an (N, 2) array of the coordinates (m, n) of m*tau + n, or
        one pair."""
        mn = _int64_copy(mn, "module coordinates")
        if mn.shape == (2,):
            mn = mn[None]
        if mn.ndim != 2 or mn.shape[1] != 2:
            raise AperiodicaError(
                f"module coordinates must be an (N, 2) array or one pair; got shape {mn.shape}")
        return WeightedComb._module(mn, np.array(weights, dtype=complex), radius)

    @staticmethod
    def from_positions(positions, weights, radius) -> "WeightedComb":
        pos = np.array(positions, dtype=float)
        if not np.all(np.isfinite(pos)):
            raise AperiodicaError("positions must be finite")
        pos, weights = _ascending(pos, np.array(weights, dtype=complex))
        return WeightedComb._owning(pos, weights, float(radius))

    # the factories copy what a caller passes; library code that builds
    # fresh int64 keys hands them to these two, which keep them

    @staticmethod
    def _integers(values, weights, radius, scale=1.0) -> "WeightedComb":
        values, weights = _ascending(values, weights)
        return WeightedComb._owning(values * float(scale), weights, float(radius),
                                    IntegerCoords(_read_only(values), float(scale)))

    @staticmethod
    def _module(mn, weights, radius) -> "WeightedComb":
        pos, mn, weights = _ascending(module_position(mn[:, 0], mn[:, 1]), mn, weights)
        return WeightedComb._owning(pos, weights, float(radius), ModuleCoords(_read_only(mn)))


def restrict(comb: WeightedComb, radius: float) -> WeightedComb:
    """Truncate a comb to the smaller ball B_radius, keeping weights.

    Raises OutOfRangeError if radius exceeds the comb's stated radius.
    """
    if radius > comb.radius:
        raise OutOfRangeError(
            f"restriction radius {radius} exceeds comb radius {comb.radius}")
    keep = np.abs(comb.positions) <= radius
    coords = comb.coords
    if isinstance(coords, IntegerCoords):
        coords = IntegerCoords(_read_only(coords.values[keep]), coords.scale)
    elif isinstance(coords, ModuleCoords):
        coords = ModuleCoords(_read_only(np.compress(keep, coords.mn, axis=0)))
    return WeightedComb._owning(comb.positions[keep], comb.weights[keep], float(radius),
                                coords)


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank lattice basis; columns of `matrix` are the basis vectors."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _own_copy(self.matrix, float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise AperiodicaError("basis matrix must be square")
        if not np.all(np.isfinite(m)):
            raise AperiodicaError("basis matrix entries must be finite")
        if abs(np.linalg.det(m)) < 1e-300:
            raise DegenerateLatticeError("basis matrix is singular")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def dual_lattice(basis: LatticeBasis) -> LatticeBasis:
    """Dual (reciprocal) lattice basis: the inverse transpose of a regular one."""
    return LatticeBasis(np.linalg.inv(basis.matrix).T)


@dataclass(frozen=True)
class SpectralMeasure:
    """Pure-point part of a diffraction measure: rows (k, intensity)."""

    pp_atoms: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    def __post_init__(self):
        pp = _own_copy(self.pp_atoms, float).reshape(-1, 2)
        if not np.all(np.isfinite(pp)):
            raise AperiodicaError("atom positions and intensities must be finite")
        if np.any(pp[:, 1] < 0):
            raise AperiodicaError("atom intensities must be non-negative")
        if np.any(np.diff(np.sort(pp[:, 0])) == 0):
            raise AperiodicaError("atom positions must be pairwise distinct")
        object.__setattr__(self, "pp_atoms", pp)

    def atom_at(self, k: float) -> float:
        """Intensity of the atom within _ATOM_TOL of position k (0.0 if
        absent)."""
        if not len(self.pp_atoms):
            return 0.0
        i = np.argmin(np.abs(self.pp_atoms[:, 0] - k))
        if abs(self.pp_atoms[i, 0] - k) <= _ATOM_TOL:
            return float(self.pp_atoms[i, 1])
        return 0.0


# -- tables and comb files ----------------------------------------------------

COMB_COLUMNS = ("x", "re_weight", "im_weight")


_TABLE_BLOCK = 4096  # rows formatted and written at a time
_FAULT_BLOCK = 4096  # comb file rows _fault parses at a time

# -- '%.17g' text of doubles, in numpy ------------------------------------------
#
# A value x's text is laid out in a cell of 24 bytes, three little-endian
# uint64 words, whose NUL bytes are dropped when rows are written: the sign
# ('-' or NUL) at byte 0, then the digits d0..d16 of D = round(|x| *
# 10^(16 - X)), X its decimal exponent, as a string S shifted up by one
# byte (U) for the digits before the point and by 2 + m bytes (V) for
# those after it, m being the zeros that a fixed-point X = -m puts between
# point and digits; in exponent notation, 'e', the exponent's sign and |X|
# end at byte 23.  A template, picked by the layout (fixed point at X = -4..16,
# exponent notation, or zero) and by the count k of significant digits
# left once trailing zeros go, masks which bytes come from U and from V and
# adds the point and the zeros of '0.000'; bytes past the last significant
# digit stay NUL.

_CELL = 24  # widest text: -2.2250738585072014e-308
# |x| in [1e-290, 1e290), X in [-290, 289], is scaled here; other values,
# zeros apart, are formatted by '%.17g' itself
_FAST = (1e-290, 1e290)
# 10^(16 - X) for X in [-292, 292]: log10 may miss X by one either way
_SCALE_MIN, _SCALE_MAX = 16 - 292, 16 + 292
_X_OFF = 400  # every value off the fast range takes X = _X_OFF, the zero layout


def _split(a):
    """Dekker's split of doubles into halves of 26 bits whose products are exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _product(a, b, bh, bl):
    """a * b as p + err exactly, p the rounded product (Dekker's TwoProduct;
    bh, bl = _split(b), and no product may overflow)."""
    p = a * b
    ah, al = _split(a)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _powers_of_ten() -> tuple:
    """10^s for s in [_SCALE_MIN, _SCALE_MAX] as hi + lo, within 2^-104 of
    it relatively, and hi split by _split.  For s >= 0, hi is the nearest
    double to the integer 10^s and lo the nearest to the rest.  10^-k is
    1 / (hi + lo) of 10^k, taken as q + q*r with q = 1 / hi and
    r = 1 - q * (hi + lo), in which q * hi is exact by TwoProduct."""
    ints = list(itertools.accumulate([10] * _SCALE_MAX, operator.mul, initial=1))
    hi = np.array([float(p) for p in ints])
    lo = np.array([float(p - int(h)) for p, h in zip(ints, hi.tolist())])
    h, l = hi[-_SCALE_MIN:0:-1], lo[-_SCALE_MIN:0:-1]  # 10^k, k = -_SCALE_MIN..1
    q = 1.0 / h
    p, err = _product(q, h, *_split(h))
    r = ((1.0 - p) - err) - q * l
    hi, lo = np.concatenate([q, hi]), np.concatenate([q * r, lo])
    # split at 2^-64 scale, where 134217729 * hi cannot overflow
    hh, hl = (part * 2.0 ** 64 for part in _split(hi * 2.0 ** -64))
    return hi, lo, hh, hl


def _digit_groups() -> np.ndarray:
    """The 4 ASCII digits of each integer 0..9999, as the low bytes of one
    '<u8' word each."""
    g = np.empty((10, 10, 10, 10, 4), np.uint8)
    for i in range(4):
        g[..., i] = np.arange(48, 58, dtype=np.uint8).reshape(
            [10 if j == i else 1 for j in range(4)])
    return g.reshape(-1).view("<u4").astype("<u8")


def _trailing_zeros() -> np.ndarray:
    """The count of trailing zeros of each integer 0..9999, 4 for 0."""
    zeros = np.zeros(10000, np.uint8)
    for step in (10, 100, 1000, 10000):
        zeros[::step] += 1
    return zeros


def _templates() -> tuple:
    """(from_u, from_v, fixed, v_shift, layout, suffix): column 17*l + k - 1
    of the first three, one cell of 3 words each, holds for layout l with k
    significant digits the mask of the bytes taken from U, the mask of those
    taken from V and the constant bytes; v_shift is V's shift past U in
    bits, 8 * (1 + m).  layout[X + _X_OFF] is 17*l for the layout of
    exponent X (zero's at X = _X_OFF), and suffix[X + _X_OFF] the third
    word of its exponent text ('e', its sign and at least two digits of
    |X| at bytes 19..23), 0 in fixed point.

    Each template is written as a pattern: 'u' a byte of U, 'v' a byte of
    V, other characters themselves."""
    patterns, gaps = [], []
    for x in range(-4, 17):
        p, m = max(x + 1, 1), max(-x, 0)  # digits before the point, zeros after it
        for k in range(1, 18):
            if m:
                patterns.append("\0" + "0." + "0" * (m - 1) + "v" * k)
            else:
                patterns.append("\0" + "u" * p + ("." + "v" * (k - p) if k > p else ""))
            gaps.append(m)
    for k in range(1, 18):  # exponent notation, then zero
        patterns.append("\0u" + ("." + "v" * (k - 1) if k > 1 else ""))
    patterns += ["\0" + "0"] * 17
    gaps += [0] * 34
    sym = np.frombuffer("".join(p.ljust(_CELL, "\0") for p in patterns).encode(),
                        np.uint8).reshape(-1, _CELL)
    from_u, from_v = (np.where(sym == ord(c), 255, 0).astype(np.uint8) for c in "uv")
    fixed = np.where(from_u | from_v, 0, sym).astype(np.uint8)
    v_shift = 8 * (1 + np.array(gaps, dtype=np.uint64))
    x = np.arange(-_X_OFF, _X_OFF + 1)
    layout = np.where((x >= -4) & (x <= 16), x + 4, 21)
    layout[-1] = 22
    text = [f"e{v:+03d}".rjust(8, "\0") if layout[i] == 21 else "\0" * 8
            for i, v in enumerate(x.tolist())]
    suffix = np.frombuffer("".join(text).encode(), "<u8")
    return (*(t.view("<u8").T.copy() for t in (from_u, from_v, fixed)), v_shift,
            layout * 17, suffix)


@functools.cache
def _tables() -> tuple:
    """(_powers_of_ten(), _digit_groups(), _trailing_zeros(), *_templates()),
    built on the first write (~0.3 ms), so that importing the library
    builds none of them."""
    return _powers_of_ten(), _digit_groups(), _trailing_zeros(), *_templates()


def _scaled(a, e, powers):
    """Integer part and remainder of a * 10^(16 - e), the product taken in
    double-double from powers = _powers_of_ten(), so that the remainder is
    off the true one by < 1e-12."""
    hi, lo, hh, hl = powers
    i = 16 - _SCALE_MIN - e
    p, err = _product(a, hi[i], hh[i], hl[i])
    whole = np.floor(p)
    return whole.astype(np.int64), (p - whole) + err + a * lo[i]


def _decimal(v: np.ndarray, powers) -> tuple:
    """(D, X, slow) for each double of v: its exponent X and its 17-digit
    integer D = round(|x| * 10^(16 - X)), where slow is False; where slow
    is True, '%.17g' itself is to format it, and D is 10^16.  Zeros take
    X = _X_OFF, the zero layout."""
    a = np.abs(v)
    fast = (a >= _FAST[0]) & (a < _FAST[1])
    np.copyto(a, 1.0, where=~fast)
    e = np.floor(np.log10(a)).astype(np.int64)  # X, or one off near a power of ten
    whole, rest = _scaled(a, e, powers)
    # +1 where whole + rest >= 10^17, -1 where it is below 10^16
    step = (((whole - 10 ** 17).astype(float) + rest >= 0).astype(np.int64)
            - ((whole - 10 ** 16).astype(float) + rest < 0))
    redo = np.flatnonzero(step)
    if len(redo):
        e[redo] += step[redo]
        whole[redo], rest[redo] = _scaled(a[redo], e[redo], powers)
    r = np.rint(rest)
    d = whole + r.astype(np.int64)  # D = a * 10^(16 - X), rounded
    top = d == 10 ** 17
    d[top] = 10 ** 16
    e += top
    slow = ~fast | (np.abs(rest - r) > 0.5 - 1e-6) | (d < 10 ** 16) | (d >= 10 ** 17)
    e[~fast] = _X_OFF
    slow &= v != 0
    d[slow] = 10 ** 16
    return d, e, slow


def _digit_words(d: np.ndarray, group_text, trailing_zeros) -> tuple:
    """(U, k): the three words of U, the digits of each D as text at bytes
    1..17, and the count k of its digits left once trailing zeros go."""
    head = d // 10 ** 8
    tail = d - head * 10 ** 8
    d0 = head // 10 ** 8
    head -= d0 * 10 ** 8
    g1 = head // 10000
    g3 = tail // 10000
    groups = (g1, head - g1 * 10000, g3, tail - g3 * 10000)
    zeros = trailing_zeros[groups[3]]
    below = groups[3] == 0  # every group after this one is 0000
    for g in groups[2::-1]:
        zeros += below * trailing_zeros[g]
        below &= g == 0
    t1, t2, t3, t4 = (group_text[g] for g in groups)
    u = ((t1 << np.uint64(16)) | (t2 << np.uint64(48))
         | ((d0.astype(np.uint64) + np.uint64(48)) << np.uint64(8)),
         (t2 >> np.uint64(16)) | (t3 << np.uint64(16)) | (t4 << np.uint64(48)),
         t4 >> np.uint64(16))
    return u, 17 - zeros


def _g17_cells(v: np.ndarray) -> np.ndarray:
    """(len(v), _CELL) uint8: the '%.17g' text of each double of v,
    NUL-padded; see write_table for why it is exact."""
    powers, group_text, trailing_zeros, from_u, from_v, fixed, v_shift, layout, suffix = (
        _tables())
    d, e, slow = _decimal(v, powers)
    u, k = _digit_words(d, group_text, trailing_zeros)
    t = layout[e + _X_OFF] + (k - 1)
    shift = v_shift[t]
    back = np.uint64(64) - shift
    cells = np.empty((len(v), 3), "<u8")
    for w in range(3):
        word = u[w] << shift  # word w of V
        if w:
            word |= u[w - 1] >> back
        word &= from_v[w][t]
        word |= u[w] & from_u[w][t]
        word |= fixed[w][t]
        cells[:, w] = word
    cells[:, 2] |= suffix[e + _X_OFF]
    cells[:, 0] |= np.signbit(v) * np.uint64(ord("-"))
    cells = cells.view(np.uint8)
    rows = np.flatnonzero(slow)
    if len(rows):
        texts = ["%.17g" % x for x in v[rows].tolist()]
        cells[rows] = np.array(texts, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return cells


def _column_cells(block: np.ndarray) -> np.ndarray:
    """_g17_cells of a (columns, rows) block, each run of equal doubles of a
    column (told apart by their bits) formatted once."""
    flat = block.ravel()
    new = np.empty(len(flat), bool)
    new[:1] = True
    np.not_equal(flat.view(np.int64)[1:], flat.view(np.int64)[:-1], out=new[1:])
    cells = _g17_cells(flat[new])
    if len(cells) < len(flat):
        cells = cells.view("<u8")[np.cumsum(new) - 1].view(np.uint8)
    return cells.reshape(*block.shape, _CELL)


def write_table(path, header, columns, fmt: str) -> None:
    """Write equal-length columns, one row per index, as CSV (or the
    mirrored JSON) with LF endings and 17-digit floats; to stdout when path
    is None.

    Each double's text is byte for byte that of '%.17g' (the routine of
    format(x, '.17g')), made in numpy, _TABLE_BLOCK rows at a time, so that
    memory follows the block and not the table.  For 1e-290 <= |x| < 1e290
    the exponent X comes from log10 and is moved by one wherever
    |x| * 10^(16 - X) falls outside [1e16, 1e17).  That product, in
    double-double from a table of 10^s, is within 1e-12 of the exact one,
    so it rounds to the same 17-digit integer D unless its fraction is
    within 1e-6 of one half; at a boundary of the range a misplaced X gives
    the same D, and a D of 10^17 becomes 10^16 at X + 1.  The digits of D
    are laid out by C's rules for %g: fixed point for -4 <= X < 17,
    otherwise exponent notation with at least two exponent digits, trailing
    zeros of the fraction and a bare point removed.  Zeros are written
    directly; subnormal and out-of-range magnitudes, infinities, NaN and the
    values near a tie are formatted by '%.17g' itself.  A run of equal
    values down a column, such as a column of unit weights, is formatted
    once."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = min((len(c) for c in cols), default=0)
    if fmt == "csv":
        head, lead, sep, end, tail = ",".join(header), "\n", ",", "", "\n"
    else:
        head = '{\n  "columns": ' + json.dumps(list(header)) + ',\n  "rows": [\n'
        lead, sep, end, tail = ",\n    [", ", ", "]", "\n  ]\n}\n"
    # one row: lead, then each cell and sep (end after the last), NULs dropped;
    # the first JSON row has no ",\n" before it
    skip = 0 if fmt == "csv" else 2
    slot = _CELL + len(sep)
    rows = np.zeros((min(n, _TABLE_BLOCK), len(lead) + len(cols) * slot), np.uint8)
    rows[:, :len(lead)] = np.frombuffer(lead.encode(), np.uint8)
    cells = rows[:, len(lead):].reshape(len(rows), len(cols), slot)
    cells[:, :, _CELL:] = np.frombuffer(sep.encode(), np.uint8)
    cells[:, -1:, _CELL:] = np.frombuffer(end.encode().ljust(len(sep), b"\0"), np.uint8)
    with (open(path, "w", encoding="utf-8", newline="") if path is not None
          else contextlib.nullcontext(sys.stdout)) as out:
        out.write(head)
        for start in range(0, n, _TABLE_BLOCK):
            stop = min(start + _TABLE_BLOCK, n)
            block = np.stack([c[start:stop] for c in cols])
            cells[:stop - start, :, :_CELL] = _column_cells(block).transpose(1, 0, 2)
            used = rows[:stop - start]
            out.write(used[used != 0].tobytes().decode("ascii")[skip if start == 0 else 0:])
        out.write(tail)


def write_comb(comb: WeightedComb, path, fmt: str) -> None:
    """Comb file: columns x,re_weight,im_weight, one row per point, as CSV
    or the mirrored JSON; to stdout when path is None."""
    write_table(path, COMB_COLUMNS,
                (comb.positions, comb.weights.real, comb.weights.imag), fmt)


def write_comb_csv(comb: WeightedComb, path) -> None:
    """The comb file of write_comb, as CSV."""
    write_comb(comb, path, "csv")


def _comb_rows(lines) -> np.ndarray:
    """Rows of three numbers, blank lines skipped, as np.loadtxt parses them
    (rounding as float() does) into an (N, 3) array; ValueError otherwise."""
    data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if data.shape[1] != 3:
        raise ValueError("not three values per row")
    return data


def _header(line: str) -> list:
    """The fields of a comb file's first line, as csv reads them, stripped."""
    return [h.strip() for h in next(csv.reader([line.rstrip("\r\n")]), [])]


def _not_utf8(path, exc: UnicodeDecodeError, offset: int = 0) -> AperiodicaError:
    """The error naming the file at path for exc, raised offset bytes into it."""
    start, end = offset + exc.start, offset + exc.end
    where = (f"byte 0x{exc.object[exc.start]:02x} in position {start}" if end == start + 1
             else f"bytes in position {start}-{end - 1}")
    return AperiodicaError(
        f"{path} is not UTF-8 text: '{exc.encoding}' codec can't decode {where}: {exc.reason}")


def read_text(path) -> str:
    """The text of a UTF-8 file; AperiodicaError naming it if not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _fault(path) -> AperiodicaError | None:
    """The first fault of the comb file at path, opened once more: a byte not
    UTF-8 (a first pass), else a wrong header, malformed row, non-finite
    position or weight.  The body is parsed _FAULT_BLOCK rows at a time, and
    a block that does not parse row by row, to name its malformed row."""
    with open(path, encoding="latin-1", newline="") as f:  # a char per byte
        offset = 0
        for raw in f:
            try:
                raw.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError as exc:
                return _not_utf8(path, exc, offset)
            offset += len(raw)
        f.seek(0)
        f.reconfigure(encoding="utf-8")
        header = _header(f.readline())
        if tuple(header) != COMB_COLUMNS:
            return AperiodicaError(f"unrecognized comb header {header!r} in {path}")
        position = weight = None  # the first row with such a value not finite
        numbered = enumerate(f, start=2)
        while block := list(itertools.islice(numbered, _FAULT_BLOCK)):
            rows = [(n, line) for n, line in ((n, line.rstrip("\r\n")) for n, line in block)
                    if line]
            if not rows:
                continue
            try:
                finite = np.isfinite(_comb_rows([line for _, line in rows]))
                if len(finite) != len(rows):
                    raise ValueError("rows skipped")
            except ValueError:
                finite = []
                for n, line in rows:
                    try:
                        finite.append(np.isfinite(_comb_rows([line])[0]))
                    except ValueError:
                        return AperiodicaError(
                            f"malformed comb row on line {n} of {path}: {line!r}")
                finite = np.array(finite)
            if position is None and not finite[:, 0].all():
                n, line = rows[int(np.argmin(finite[:, 0]))]
                position = f"non-finite comb position on line {n} of {path}: {line!r}"
            if weight is None and not finite[:, 1:].all():
                n, line = rows[int(np.argmin(finite[:, 1:].all(axis=1)))]
                weight = f"non-finite comb weight on line {n} of {path}: {line!r}"
    message = position or weight
    return AperiodicaError(message) if message else None


def read_comb_csv(path, radius: float | None = None) -> WeightedComb:
    """Read a comb written by write_comb_csv.  If radius is omitted, the
    smallest ball containing all points is used.  The file streams through
    one np.loadtxt, so that memory follows the comb and not the file; one
    that does not load is read once more, by _fault, to name its fault."""
    try:
        with open(path, encoding="utf-8") as f:
            first = f.readline()
            if not first:
                raise EmptyInputError(f"empty comb file: {path}")
            if tuple(_header(first)) != COMB_COLUMNS:
                raise ValueError("unrecognized comb header")
            line = next((line for line in f if line != "\n"), "")
            if not line:
                raise EmptyInputError(f"comb file has no points: {path}")
            data = _comb_rows(itertools.chain([line], f))
        # NaN and ±inf reach the min or the max, with no (N, 3) array of flags
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise ValueError("non-finite comb value")
    except AperiodicaError:  # empty, or no points
        raise
    except ValueError as exc:  # a UnicodeDecodeError among them
        raise _fault(path) or exc from None
    # a view, not re + 1j*im, which turns a -0.0 part into +0.0
    pos = np.ascontiguousarray(data[:, 0])
    w = np.ascontiguousarray(data[:, 1:]).view(complex)[:, 0]
    del data  # before any sort
    if radius is None:
        radius = np.max(np.abs(pos))
        if radius == 0:
            raise OutOfRangeError(
                f"the comb radius cannot be inferred from the points of {path}, which "
                "all lie at 0; pass radius= (CLI: --radius)")
    return WeightedComb._owning(*_ascending(pos, w), float(radius))
