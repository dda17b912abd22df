"""Paperfolding point sets through both of their representations: letter
positions of the two-sided substitution fixed points, and 2-adic model sets
with the residue-class windows.  The two agree exactly on any window inside
the truncation bound, which is the package's central cross-check.
"""

from __future__ import annotations

import numpy as np

from .core import AperiodicaError, WeightedComb
from .cps import paperfolding_windows, qadic_points
from .substitution import PAPERFOLDING, fixed_point, two_sided_seeds

_SEEDS = dict(zip(("w1", "w2"), two_sided_seeds(PAPERFOLDING)))


def letter_positions_substitution(choice: str, lo: int, hi: int) -> dict:
    """Letter positions of the chosen two-sided fixed point on [lo, hi)."""
    if choice not in _SEEDS:
        raise AperiodicaError("choice must be 'w1' or 'w2'")
    word = fixed_point(PAPERFOLDING, _SEEDS[choice])
    return word.letter_positions(lo, hi)


def letter_positions_model_set(choice: str, lo: int, hi: int) -> dict:
    """Letter positions on [lo, hi) generated as 2-adic model sets, with the
    windows' default truncation (exact for |x| < 2^24)."""
    return {letter: qadic_points(window, (lo, hi - 1))
            for letter, window in paperfolding_windows(choice).items()}


def quaternary_comb(radius: int, weights=(1.0, 1.0, 1.0, 1.0),
                    choice: str = "w1") -> WeightedComb:
    """Comb with weight A on a-positions, B on b, C on c, D on d inside
    [-radius, radius]; zero-weight letters are dropped from the support."""
    positions = letter_positions_substitution(choice, -radius, radius + 1)
    xs, ws = [], []
    for letter, w in zip("abcd", weights):
        if w == 0:
            continue
        pts = positions[letter]
        xs.append(pts)
        ws.append(np.full(len(pts), w, dtype=complex))
    if not xs:
        raise AperiodicaError("all four weights vanish")
    return WeightedComb._integers(np.concatenate(xs), np.concatenate(ws), float(radius))


def binary_comb(radius: int, choice: str = "w1") -> WeightedComb:
    """Binary reduction comb: weight 1 on the a- and b-positions."""
    return quaternary_comb(radius, (1.0, 1.0, 0.0, 0.0), choice)

