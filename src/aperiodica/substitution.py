"""Constant-length substitutions on a finite alphabet and the induced
lattice substitution systems on Z: two-sided fixed points, primitivity,
column coincidence, matrix function systems and modular coincidence.

A constant-length rule of length L induces an MFS on Z with inflation Q = L:
letter j contributes the map x -> L*x + p into the component of the letter
sitting at position p of its image.  Coincidence of the rule and modular
coincidence of the MFS are two views of the same column condition, and both
searches run on the refinement dynamics of column letter-sets, which lives
in a finite state space, so "never" is decidable by cycle detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AperiodicaError, OutOfRangeError, check_size


class UnknownLetterError(AperiodicaError):
    """A word contains a letter outside the rule's alphabet."""


class SeedError(AperiodicaError):
    """Seed pair is not regenerated by the substitution at the seam."""


class UnsupportedMfsError(AperiodicaError):
    """MFS does not arise from a constant-length substitution on Z."""


@dataclass(frozen=True)
class SubstitutionRule:
    """Constant-length substitution: every letter maps to a word of the same
    length L >= 2 over the alphabet."""

    alphabet: tuple
    images: dict

    def __post_init__(self):
        if not self.alphabet:
            raise AperiodicaError("alphabet is empty")
        lengths = {len(self.images[a]) for a in self.alphabet}
        if len(lengths) != 1:
            raise AperiodicaError("rule is not of constant length")
        if min(lengths) < 2:
            raise AperiodicaError("image length must be at least 2")
        for a in self.alphabet:
            for c in self.images[a]:
                if c not in self.alphabet:
                    raise UnknownLetterError(f"image letter {c!r} not in alphabet")
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "images", dict(self.images))

    @property
    def length(self) -> int:
        return len(self.images[self.alphabet[0]])

    def apply(self, word: str) -> str:
        """Concatenation of letter images; length is multiplied by L."""
        for c in word:
            if c not in self.images:
                raise UnknownLetterError(f"unknown letter {c!r}")
        return "".join(self.images[c] for c in word)

    def substitution_matrix(self) -> np.ndarray:
        """M[i, j] = number of occurrences of letter i in the image of j."""
        m = len(self.alphabet)
        idx = {a: i for i, a in enumerate(self.alphabet)}
        mat = np.zeros((m, m), dtype=np.int64)
        for j, a in enumerate(self.alphabet):
            for c in self.images[a]:
                mat[idx[c], j] += 1
        return mat

    def power(self, k: int) -> "SubstitutionRule":
        if k < 1:
            raise AperiodicaError("power must be >= 1")
        images = {a: a for a in self.alphabet}
        for i in range(k):
            # the images of power i + 1: L^(i+1) letters each
            check_size(len(images) * self.length ** (i + 1), "the images of the rule power")
            images = {a: self.apply(w) for a, w in images.items()}
        return SubstitutionRule(self.alphabet, images)

    @staticmethod
    def from_text(text: str) -> "SubstitutionRule":
        """Parse the rule file format: one `letter: image` line per letter."""
        images = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise AperiodicaError(f"malformed rule line: {line!r}")
            letter, image = line.split(":", 1)
            letter, image = letter.strip(), image.strip()
            if len(letter) != 1:
                raise AperiodicaError(f"rule letters must be single characters: {letter!r}")
            if letter in images:
                raise AperiodicaError(f"duplicate rule line for {letter!r}")
            images[letter] = image
        if not images:
            raise AperiodicaError("rule file contains no rules")
        return SubstitutionRule(tuple(images), images)

    def to_text(self) -> str:
        return "\n".join(f"{a}: {self.images[a]}" for a in self.alphabet) + "\n"


PAPERFOLDING = SubstitutionRule(
    ("a", "b", "c", "d"),
    {"a": "ab", "b": "cb", "c": "ad", "d": "cd"},
)

THUE_MORSE = SubstitutionRule(("a", "b"), {"a": "ab", "b": "ba"})


def primitive(matrix) -> bool:
    """Whether some power k <= m*m of the nonnegative matrix has all entries
    positive (checked on the boolean reachability semiring)."""
    mat = np.asarray(matrix)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise AperiodicaError("matrix must be square")
    if np.any(mat < 0):
        raise AperiodicaError("matrix must be nonnegative")
    m = mat.shape[0]
    base = mat > 0
    power = base.copy()
    for _ in range(m * m):
        if power.all():
            return True
        power = (power @ base) > 0
    return bool(power.all())


class FixedPointWord:
    """Two-sided fixed point of a substitution, grown lazily from a seam seed
    (letter left of the origin | letter right of the origin).

    Index 0 is the letter right of the seam; negative indices walk left.
    Each half is held as an array of letter indices and grows by one table
    lookup per level: row j of the table lists the indices of the image of
    letter j, so the rows of the table taken at the word's codes, laid end
    to end, are the rule applied to the word.
    """

    def __init__(self, rule: SubstitutionRule, seed: tuple):
        left, right = seed
        if rule.images[left][-1] != left or rule.images[right][0] != right:
            raise SeedError(f"seed {seed!r} is not fixed at the seam")
        self.rule = rule
        self.seed = (left, right)
        index = {a: i for i, a in enumerate(rule.alphabet)}
        dtype = np.min_scalar_type(len(rule.alphabet) - 1)
        self._table = np.array([[index[c] for c in rule.images[a]]
                                for a in rule.alphabet], dtype=dtype)
        # code points for window(); only single characters occur in a word
        self._chars = np.array([ord(a) if len(a) == 1 else 0
                                for a in rule.alphabet], dtype="<u4")
        self._right = np.array([index[right]], dtype=dtype)
        self._left = np.array([index[left]], dtype=dtype)  # seam end last

    def _grow(self, need_right: int, need_left: int) -> None:
        check_size(max(need_right, need_left), "the fixed-point word")
        # np.take gathers rows ~10x faster than self._table[codes]
        while len(self._right) < need_right:
            self._right = np.take(self._table, self._right, axis=0).ravel()
        while len(self._left) < need_left:
            self._left = np.take(self._table, self._left, axis=0).ravel()

    def _codes(self, lo: int, hi: int) -> np.ndarray:
        """Letter indices at positions lo..hi-1 (hi > lo)."""
        self._grow(max(hi, 0), max(-lo, 0))
        if hi <= 0:
            return self._left[len(self._left) + lo:len(self._left) + hi]
        if lo >= 0:
            return self._right[lo:hi]
        return np.concatenate([self._left[len(self._left) + lo:], self._right[:hi]])

    def __getitem__(self, i: int) -> str:
        return self.rule.alphabet[self._codes(i, i + 1)[0]]

    def window(self, lo: int, hi: int) -> str:
        """Letters at positions lo..hi-1 as a string."""
        if hi <= lo:
            return ""
        return self._chars[self._codes(lo, hi)].tobytes().decode(
            "utf-32-le", "surrogatepass")

    def letter_positions(self, lo: int, hi: int) -> dict:
        """Positions of each alphabet letter within [lo, hi)."""
        codes = self._codes(lo, hi) if hi > lo else self._right[:0]
        positions = {}
        for j, a in enumerate(self.rule.alphabet):
            positions[a] = np.flatnonzero(codes == j).astype(np.int64, copy=False)
            positions[a] += lo
        return positions


def two_sided_seeds(rule: SubstitutionRule) -> list[tuple]:
    """All legal seam seeds (l, r): the image of l ends in l and the image
    of r starts with r."""
    lefts = [a for a in rule.alphabet if rule.images[a][-1] == a]
    rights = [a for a in rule.alphabet if rule.images[a][0] == a]
    return [(l, r) for l in lefts for r in rights]


def fixed_point(rule: SubstitutionRule, seed: tuple) -> FixedPointWord:
    """Two-sided fixed point for a legal seam seed."""
    return FixedPointWord(rule, seed)


# -- column refinement dynamics ----------------------------------------------

def _column_step(rule: SubstitutionRule, families: frozenset) -> frozenset:
    out = set()
    for s in families:
        for r in range(rule.length):
            out.add(frozenset(rule.images[x][r] for x in s))
    return frozenset(out)


def _column_search(rule: SubstitutionRule, max_power: int | None):
    """Run the refinement dynamics of column letter-sets.

    Returns ("coincident", k), ("never", k at which the state repeated) or
    ("not_found", max_power).  With max_power None the search runs until a
    singleton or a repeat; the state space is finite, so this terminates.
    """
    state = frozenset({frozenset(rule.alphabet)})
    seen = {state: 0}
    k = 0
    while True:
        k += 1
        state = _column_step(rule, state)
        if any(len(s) == 1 for s in state):
            return "coincident", k
        if state in seen:
            return "never", k
        seen[state] = k
        if max_power is not None and k >= max_power:
            return "not_found", max_power


def dekking_coincidence(rule: SubstitutionRule):
    """Smallest k such that some column of the k-th rule power carries a
    single letter across all images; None if no power ever coincides.

    Requires a primitive constant-length rule.  `modular_coincidence` runs
    the same column refinement on the rule its MFS encodes.
    """
    if not primitive(rule.substitution_matrix()):
        raise AperiodicaError("coincidence search requires a primitive rule")
    status, k = _column_search(rule, None)
    return k if status == "coincident" else None


@dataclass(frozen=True)
class MfsRule:
    """Matrix function system on Z: entry maps[i][j] lists the offsets a of
    the affine maps x -> Q*x + a sending component j into component i."""

    size: int
    inflation: int
    maps: tuple  # tuple of tuples of tuples of ints

    def __post_init__(self):
        if abs(self.inflation) < 2:
            raise AperiodicaError("inflation |Q| must be at least 2")
        maps = tuple(tuple(tuple(int(a) for a in cell) for cell in row)
                     for row in self.maps)
        if len(maps) != self.size or any(len(row) != self.size for row in maps):
            raise AperiodicaError("maps must form a size x size matrix")
        for row in maps:
            for cell in row:
                if len(set(cell)) != len(cell):
                    raise AperiodicaError("offsets within an MFS cell must be distinct")
        object.__setattr__(self, "maps", maps)

    def substitution_matrix(self) -> np.ndarray:
        return np.array([[len(cell) for cell in row] for row in self.maps],
                        dtype=np.int64)


def mfs_from_substitution(rule: SubstitutionRule) -> MfsRule:
    """MFS on Z with Q = L induced by a constant-length rule: position p of
    the image of letter j yields the map x -> L*x + p into the row of the
    letter found there."""
    m = len(rule.alphabet)
    idx = {a: i for i, a in enumerate(rule.alphabet)}
    cells = [[[] for _ in range(m)] for _ in range(m)]
    for j, a in enumerate(rule.alphabet):
        for p, c in enumerate(rule.images[a]):
            cells[idx[c]][j].append(p)
    return MfsRule(m, rule.length, tuple(tuple(tuple(c) for c in row) for row in cells))


def substitution_from_mfs(mfs: MfsRule) -> SubstitutionRule:
    """Reconstruct the constant-length rule from a substitution-like MFS,
    over the letters a, b, c, ... in row order.

    The MFS must be total and unambiguous on residues: for every source
    column j, each offset r in 0..Q-1 appears in exactly one row.  Offsets
    outside 0..Q-1 or interleaving residues are rejected.
    """
    q = mfs.inflation
    if q < 2:
        raise UnsupportedMfsError("only positive inflation arises from substitutions")
    alphabet = tuple(chr(ord("a") + i) for i in range(mfs.size))
    images = {}
    for j in range(mfs.size):
        slots = [None] * q
        for i in range(mfs.size):
            for a in mfs.maps[i][j]:
                if not 0 <= a < q:
                    raise UnsupportedMfsError(
                        f"offset {a} outside 0..Q-1: not substitution-derived")
                if slots[a] is not None:
                    raise UnsupportedMfsError(
                        f"residue {a} of column {j} feeds two rows")
                slots[a] = alphabet[i]
        if any(s is None for s in slots):
            raise UnsupportedMfsError(
                f"column {j} does not cover every residue mod Q")
        images[alphabet[j]] = "".join(slots)
    return SubstitutionRule(alphabet, images)


@dataclass(frozen=True)
class CoincidenceVerdict:
    status: str          # "coincident" | "never" | "not_found"
    power: int | None    # power M for "coincident"; repeat step for "never"

    def __str__(self) -> str:
        if self.status == "coincident":
            return f"coincidence at power {self.power}"
        if self.status == "never":
            return f"proven never (cycle at power {self.power})"
        return f"no coincidence found up to power {self.power}"


def modular_coincidence(mfs: MfsRule, max_power: int = 20) -> CoincidenceVerdict:
    """Search powers M = 1..max_power for a residue class mod Q^M whose maps
    all land in a single component.

    For MFS derived from constant-length substitutions this is the column
    coincidence of the M-th rule power; a repeat of the refinement state
    upgrades "not found" to "proven never".
    """
    if max_power < 1:
        raise OutOfRangeError(f"max_power must be at least 1; got {max_power}")
    rule = substitution_from_mfs(mfs)
    if not primitive(rule.substitution_matrix()):
        raise AperiodicaError("modular coincidence requires a primitive MFS")
    status, k = _column_search(rule, max_power)
    return CoincidenceVerdict(status, k)
