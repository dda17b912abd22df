"""Shared domain types: weighted Dirac combs, quadratic-module coordinates,
spectral measures and lattice bases.

Positions of a comb are stored either as plain floats or with an exact
integer payload (integer multiples of a scale, or pairs (m, n) representing
m*tau + n in the golden module Z[tau]).  All generators in this package
emit the exact form; algebraic conjugation is only well defined on the
integer pairs.
"""

from __future__ import annotations

import csv
import json
import math
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


def _own_copy(a, dtype) -> np.ndarray:
    """A read-only copy of a as dtype, made in one step: writes to a never reach it."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _ascending(keys: np.ndarray, *arrays) -> list:
    """keys and arrays in the stable ascending order of keys; no argsort if none descends."""
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

    def stars(self) -> np.ndarray:
        return module_star(self.mn[:, 0], self.mn[:, 1])


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
        pos = _own_copy(self.positions, float)
        w = _own_copy(self.weights, complex)
        if not 0 < self.radius < math.inf:
            raise OutOfRangeError(
                f"comb radius must be finite and positive; got {self.radius}")
        if pos.ndim != 1:
            raise AperiodicaError("comb positions must be 1-d")
        if len(pos) != len(w):
            raise AperiodicaError("positions and weights differ in length")
        if len(w) and not np.all(np.isfinite(w.view(float))):
            raise AperiodicaError("weights must be finite")
        if len(pos) > 1 and not np.all(np.diff(pos) > 0):
            raise AperiodicaError("positions must be strictly ascending")
        if len(pos) and not np.all(np.abs(pos) <= self.radius + _POSITION_TOL):
            raise AperiodicaError("points outside the stated radius")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

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
        values, weights = _ascending(np.asarray(values, dtype=np.int64), weights)
        coords = IntegerCoords(_own_copy(values, np.int64), float(scale))
        return WeightedComb(coords.values * float(scale), weights, float(radius), coords)

    @staticmethod
    def from_module(mn, weights, radius) -> "WeightedComb":
        mn = np.asarray(mn, dtype=np.int64).reshape(-1, 2)
        pos, mn, weights = _ascending(module_position(mn[:, 0], mn[:, 1]), mn, weights)
        coords = ModuleCoords(_own_copy(mn, np.int64))
        return WeightedComb(pos, weights, float(radius), coords)

    @staticmethod
    def from_positions(positions, weights, radius) -> "WeightedComb":
        pos, weights = _ascending(np.asarray(positions, dtype=float), weights)
        return WeightedComb(pos, weights, float(radius))


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
        coords = IntegerCoords(_own_copy(coords.values[keep], np.int64), coords.scale)
    elif isinstance(coords, ModuleCoords):
        coords = ModuleCoords(_own_copy(np.compress(keep, coords.mn, axis=0), np.int64))
    return WeightedComb(comb.positions[keep], comb.weights[keep], float(radius),
                        coords)


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank lattice basis; columns of `matrix` are the basis vectors."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _own_copy(self.matrix, float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise AperiodicaError("basis matrix must be square")
        if abs(np.linalg.det(m)) < 1e-300:
            raise DegenerateLatticeError("basis matrix is singular")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def covolume(self) -> float:
        return abs(np.linalg.det(self.matrix))


def dual_lattice(basis: LatticeBasis) -> LatticeBasis:
    """Dual (reciprocal) lattice basis: the inverse transpose of a regular one."""
    return LatticeBasis(np.linalg.inv(basis.matrix).T)


@dataclass(frozen=True)
class SpectralMeasure:
    """Pure-point part of a diffraction measure: rows (k, intensity)."""

    pp_atoms: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    def __post_init__(self):
        pp = _own_copy(self.pp_atoms, float).reshape(-1, 2)
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


def write_table(path, header, columns, fmt: str) -> None:
    """Write equal-length columns, one row per index, as CSV (or the
    mirrored JSON) with LF endings and 17-digit floats; to stdout when path
    is None.  '%.17g' is the routine of format(x, '.17g')."""
    cols = [np.asarray(c, dtype=float).tolist() for c in columns]
    fields = ["%.17g"] * len(cols)
    row = ",".join(fields) if fmt == "csv" else "    [" + ", ".join(fields) + "]"
    rows = [row % r for r in zip(*cols)]
    if fmt == "csv":
        text = "\n".join([",".join(header)] + rows) + "\n"
    else:
        text = ('{\n  "columns": ' + json.dumps(list(header)) +
                ',\n  "rows": [\n' + ",\n".join(rows) + "\n  ]\n}\n")
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


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


def read_text(path) -> str:
    """The text of a UTF-8 file; AperiodicaError naming it if not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AperiodicaError(f"{path} is not UTF-8 text: {exc}") from None


def read_comb_csv(path, radius: float | None = None) -> WeightedComb:
    """Read a comb written by write_comb_csv.  If radius is omitted, the
    smallest ball containing all points is used."""
    lines = read_text(path).split("\n")
    if lines == [""]:
        raise EmptyInputError(f"empty comb file: {path}")
    header = [h.strip() for h in next(csv.reader(lines[:1]), [])]
    if tuple(header) != COMB_COLUMNS:
        raise AperiodicaError(f"unrecognized comb header {header!r} in {path}")
    if not any(lines[1:]):
        raise EmptyInputError(f"comb file has no points: {path}")
    try:
        data = _comb_rows(lines[1:])
    except ValueError:  # the same parser, line by line, names the first bad line
        for line_num, line in enumerate(lines[1:], start=2):
            try:
                if line:
                    _comb_rows([line])
            except ValueError:
                raise AperiodicaError(f"malformed comb row on line {line_num} "
                                      f"of {path}: {line!r}") from None
        raise
    # a view, not re + 1j*im, which turns a -0.0 part into +0.0
    pos, w = data[:, 0], np.ascontiguousarray(data[:, 1:]).view(complex)[:, 0]
    rmax = np.max(np.abs(pos)) if radius is None else radius
    return WeightedComb.from_positions(pos, w, float(rmax))
