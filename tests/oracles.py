"""Reference sums |sum_j w_j e^(-2 pi i k x_j)|^2 for the periodogram tests.

They use numpy and the standard library only: nothing here comes from
`aperiodica.spectrum`.  The engine's tables form their phases by the same
method as `exact_power` below (dyadic units, Theta in Python integers,
limb products in np.uint64), so the two share a method but no code;
`tests/test_oracles.py` holds this module against phases in `Fraction`,
and the Thue-Morse Riesz product of `tests/test_properties.py` holds the
engine against arithmetic that neither shares.

`direct_power` forms each phase k x in doubles, an error of about
|k x| 2^-53 a term.  `exact_power` takes each phase frac(k x_j) from the
comb's coordinates in integer arithmetic.  Each position is a sum over
columns of (base + c[j]) u, c[j] >= 0 an integer:
* an integer comb: its integers less the least, with its scale;
* a module comb: m and n, each less its least, with tau and with 1;
* a float comb: each double's 53-bit mantissa with +-2^(E - 53), E its
  exponent (np.frexp) and the sign its own.
Every unit u is a dyadic rational num / 2^shift; tau is
floor((1 + sqrt 5) 2^200) / 2^201, within 2^-201 of tau.  Per k and unit,
Theta = floor(frac(k u) 2^128) in Python integers, and the top 64 bits of
frac(c Theta / 2^128) come from 32-bit limb products in np.uint64.  The
columns' bits add mod 2^64, one turn, so a phase is exact to about 2e-16
turns, its rounding to a double.
"""

import math
from typing import NamedTuple

import numpy as np

from aperiodica.core import ModuleCoords

_CHUNK = 1 << 18  # complex exponentials per block of direct_power
_BLOCK = 1 << 15  # point*k per block of exact_power
_TURN = 1 << 128  # Theta's units per turn
_LOW32 = np.uint64(0xFFFFFFFF)
_LOW64 = (1 << 64) - 1
_TAU = ((1 << 200) + math.isqrt(5 << 400), 201)  # tau as num / 2^shift


def direct_power(x: np.ndarray, w: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """|sum_j w_j e^(-2 pi i k x_j)|^2 at every k, by direct summation with
    phases k x_j in doubles."""
    out = np.empty(len(ks))
    block = max(1, _CHUNK // max(len(x), 1))
    for start in range(0, len(ks), block):
        kc = ks[start:start + block]
        phases = np.exp(-2j * math.pi * np.outer(kc, x))
        out[start:start + block] = np.abs(phases @ w) ** 2
    return out


def exact_power(comb, w: np.ndarray, ks) -> np.ndarray:
    """|sum_j w_j e^(-2 pi i k x_j)|^2 at every k, each phase k x_j taken
    from the comb's coordinates as by exact_turns, in tiles of up to _BLOCK
    point*k."""
    columns = _columns(comb)
    ks = np.asarray(ks, dtype=float)
    out = np.empty(len(ks))
    step = min(max(len(w), 1), _BLOCK)
    block = _BLOCK // step
    for start in range(0, len(ks), block):
        kb = ks[start:start + block]
        sums = np.zeros(len(kb), dtype=complex)
        for p in range(0, len(w), step):
            turns = _turns([_part(col, p, p + step) for col in columns], kb)
            sums += np.exp(-2j * math.pi * turns) @ w[p:p + step]
        out[start:start + block] = np.abs(sums) ** 2
    return out


def exact_turns(comb, ks) -> np.ndarray:
    """frac(k x_j) in [0, 1] for each k of ks (rows) and point j (columns),
    from the comb's coordinates: within about 2e-16 turns of the phase of
    the double k at the exact position (tau to 2^-201)."""
    return _turns(_columns(comb), np.asarray(ks, dtype=float))


class _Column(NamedTuple):
    """Points x_j = (base + c[j]) u of one column: c[j] >= 0 as uint64, and
    u = num / 2^shift one of units, the one at index[j] (None: units[0])."""

    c: np.ndarray
    units: list
    index: np.ndarray | None = None
    base: int = 0


def _integer_column(values: np.ndarray, unit: tuple) -> _Column:
    """An int64 column less its least value, which becomes the base."""
    base = int(values.min()) if len(values) else 0
    # exact mod 2^64, and the differences are below 2^64
    return _Column(values.view(np.uint64) - np.uint64(base % 2 ** 64), [unit], base=base)


def _part(col: _Column, start: int, stop: int) -> _Column:
    """The column's points start to stop."""
    return col._replace(**{f: a[start:stop] for f, a in zip(col._fields, col)
                           if isinstance(a, np.ndarray)})


def _columns(comb) -> list:
    """The comb's coordinates as columns: an integer comb's integers with
    its scale, a module comb's m with tau and n with 1, or each double's
    53-bit mantissa with +-2^(E - 53), E its exponent and the sign its own."""
    coords = comb.coords
    if coords is None:
        mantissas, exponents = np.frexp(comb.positions)
        c = np.abs(mantissas * 2.0 ** 53).astype(np.uint64)  # exact: 53 bits
        signs = np.where(mantissas < 0, -1, 1)
        units, index = np.unique(np.stack([signs, 53 - exponents], axis=1), axis=0,
                                 return_inverse=True)
        return [_Column(c, [(int(s), int(e)) for s, e in units], index.ravel())]
    if isinstance(coords, ModuleCoords):
        return [_integer_column(coords.mn[:, 0], _TAU),
                _integer_column(coords.mn[:, 1], (1, 0))]
    num, den = float(coords.scale).as_integer_ratio()
    return [_integer_column(coords.values, (num, den.bit_length() - 1))]


def _theta(k: float, unit: tuple) -> int:
    """floor(frac(k u) 2^128) for the double k and the unit u = num / 2^shift."""
    p, q = k.as_integer_ratio()  # q = 2^s
    num, shift = unit
    e = 128 - shift - (q.bit_length() - 1)
    v = p * num << e if e >= 0 else p * num >> -e  # floor: >> rounds down
    return v % _TURN


def _turns(columns: list, ks: np.ndarray) -> np.ndarray:
    """frac(k x_j) for every k of ks and point j: the top 64 bits of each
    column's frac(k u base) + frac(c Theta / 2^128), added mod 2^64, as
    doubles."""
    ks = ks.tolist()
    total = np.zeros((len(ks), len(columns[0].c)), dtype=np.uint64)
    for col in columns:
        thetas = [[_theta(k, u) for u in col.units] for k in ks]
        hi = np.array([[t >> 64 for t in row] for row in thetas], dtype=np.uint64)
        lo = np.array([[t & _LOW64 for t in row] for row in thetas], dtype=np.uint64)
        if col.index is not None:
            hi, lo = hi[:, col.index], lo[:, col.index]
        total += _top_bits(col.c, hi, lo)
        if col.base:
            num, shift = col.units[0]
            total += np.array([[_theta(k, (num * col.base, shift)) >> 64] for k in ks],
                              dtype=np.uint64)
    return total.astype(float) * 2.0 ** -64


def _top_bits(c: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """floor(c Theta / 2^64) mod 2^64 for Theta = hi 2^64 + lo, less under 3
    units (3 2^-64 turns): c hi mod 2^64 plus the high halves of the 32-bit
    limb products of c = c1 2^32 + c0 and lo = l1 2^32 + l0, which fit; the
    low halves, and c0 l0, are dropped."""
    c1, l1 = c >> 32, lo >> 32
    return c * hi + c1 * l1 + ((c & _LOW32) * l1 >> 32) + (c1 * (lo & _LOW32) >> 32)
