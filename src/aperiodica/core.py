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

import numpy as np

TAU = (1.0 + math.sqrt(5.0)) / 2.0
TAU_CONJ = (1.0 - math.sqrt(5.0)) / 2.0
SQRT5 = math.sqrt(5.0)

_POSITION_TOL = 1e-9
_ATOM_TOL = 1e-9
# most entries an array sized from the inputs may take (512 MiB of int64):
# over 100x the largest such array of any test, README example or benchmark
# workload, the 524,289-integer 2-adic region of paperfolding-lattice
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
    length of an array predicted from the inputs, is over SIZE_BUDGET (or
    not a number)."""
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


def _as_readonly(a: np.ndarray) -> np.ndarray:
    """A read-only view of a.  The caller's array stays writeable and
    shares its memory with the view."""
    a = np.asarray(a).view()
    a.setflags(write=False)
    return a


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
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=complex)
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
        object.__setattr__(self, "positions", _as_readonly(pos))
        object.__setattr__(self, "weights", _as_readonly(w))

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
        values = np.asarray(values, dtype=np.int64)
        order = np.argsort(values, kind="stable")
        values = values[order]
        w = np.asarray(weights, dtype=complex)[order]
        coords = IntegerCoords(_as_readonly(values), float(scale))
        return WeightedComb(values * float(scale), w, float(radius), coords)

    @staticmethod
    def from_module(mn, weights, radius) -> "WeightedComb":
        mn = np.asarray(mn, dtype=np.int64).reshape(-1, 2)
        pos = module_position(mn[:, 0], mn[:, 1])
        order = np.argsort(pos, kind="stable")
        coords = ModuleCoords(_as_readonly(mn[order]))
        return WeightedComb(pos[order], np.asarray(weights, dtype=complex)[order],
                            float(radius), coords)

    @staticmethod
    def from_positions(positions, weights, radius) -> "WeightedComb":
        pos = np.asarray(positions, dtype=float)
        order = np.argsort(pos, kind="stable")
        return WeightedComb(pos[order], np.asarray(weights, dtype=complex)[order],
                            float(radius))


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
        coords = IntegerCoords(_as_readonly(coords.values[keep]), coords.scale)
    elif isinstance(coords, ModuleCoords):
        coords = ModuleCoords(_as_readonly(coords.mn[keep]))
    return WeightedComb(comb.positions[keep], comb.weights[keep], float(radius),
                        coords)


@dataclass(frozen=True)
class LatticeBasis:
    """Full-rank lattice basis; columns of `matrix` are the basis vectors."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise AperiodicaError("basis matrix must be square")
        if abs(np.linalg.det(m)) < 1e-300:
            raise DegenerateLatticeError("basis matrix is singular")
        object.__setattr__(self, "matrix", _as_readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def covolume(self) -> float:
        return abs(np.linalg.det(self.matrix))


def dual_lattice(basis: LatticeBasis) -> LatticeBasis:
    """Dual (reciprocal) lattice basis: the inverse transpose of the input."""
    m = basis.matrix
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise DegenerateLatticeError("basis matrix is singular") from exc
    return LatticeBasis(inv.T)


@dataclass(frozen=True)
class SpectralMeasure:
    """Pure-point part of a diffraction measure: rows (k, intensity)."""

    pp_atoms: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    def __post_init__(self):
        pp = np.asarray(self.pp_atoms, dtype=float).reshape(-1, 2)
        if len(pp):
            if np.any(pp[:, 1] < 0):
                raise AperiodicaError("atom intensities must be non-negative")
            ks = np.sort(pp[:, 0])
            if len(ks) > 1 and np.min(np.diff(ks)) == 0:
                raise AperiodicaError("atom positions must be pairwise distinct")
        object.__setattr__(self, "pp_atoms", _as_readonly(pp))

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


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_table(path, columns, rows, fmt: str) -> None:
    """Write rows as CSV (or the mirrored JSON) with LF endings and
    17-digit floats; to stdout when path is None."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        body = ",\n".join(
            "    [" + ", ".join(_fmt(v) for v in row) + "]" for row in rows)
        text = ('{\n  "columns": ' + json.dumps(list(columns)) +
                ',\n  "rows": [\n' + body + "\n  ]\n}\n")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def write_comb(comb: WeightedComb, path, fmt: str) -> None:
    """Comb file: columns x,re_weight,im_weight, one row per point, as CSV
    or the mirrored JSON; to stdout when path is None."""
    write_table(path, COMB_COLUMNS,
                zip(comb.positions, comb.weights.real, comb.weights.imag), fmt)


def write_comb_csv(comb: WeightedComb, path) -> None:
    """The comb file of write_comb, as CSV."""
    write_comb(comb, path, "csv")


def read_comb_csv(path, radius: float | None = None) -> WeightedComb:
    """Read a comb written by write_comb_csv.  If radius is omitted, the
    smallest ball containing all points is used."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInputError(f"empty comb file: {path}")
        header = [h.strip() for h in header]
        if tuple(header) != COMB_COLUMNS:
            raise AperiodicaError(f"unrecognized comb header {header!r} in {path}")
        rows = []
        for row in filter(None, reader):
            try:  # a count other than three raises ValueError too
                x, w_re, w_im = map(float, row)
            except ValueError:
                raise AperiodicaError(f"malformed comb row on line {reader.line_num} "
                                      f"of {path}: {','.join(row)!r}") from None
            rows.append((x, w_re, w_im))
    if not rows:
        raise EmptyInputError(f"comb file has no points: {path}")
    data = np.asarray(rows, dtype=float)
    pos, w = data[:, 0], data[:, 1] + 1j * data[:, 2]
    rmax = np.max(np.abs(pos)) if radius is None else radius
    return WeightedComb.from_positions(pos, w, float(rmax))
