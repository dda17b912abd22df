"""Test-only references that the library does not export: the bounded
legality proxy of a substitution fixed point, and the total atom intensity
of the paperfolding spectrum."""

from __future__ import annotations

from aperiodica.core import AperiodicaError, OutOfRangeError, check_size
from aperiodica.spectrum import _DYADIC_R_CAP, _level_intensities


def legal_clusters(rule, word, width: int = 16, n_max: int = 12,
                   sample_radius: int = 2048) -> bool:
    """Bounded legality check for the fixed multiset: every width-`width`
    window of the word within the sample radius must occur inside some
    iterate sigma^n(letter), n <= n_max.

    Full legality is not decidable by bounded search; this is a finite
    proxy for the hypothesis that every cluster of the fixed point is
    generated from a single point.
    """
    if width < 1 or n_max < 1:
        raise AperiodicaError("width and n_max must be positive")
    text = word.window(-sample_radius, sample_radius)
    windows = {text[i:i + width] for i in range(len(text) - width + 1)}
    haystacks, held = [], 0
    for letter in rule.alphabet:
        image = letter
        for _ in range(n_max):
            held += len(image) * rule.length
            check_size(held, "the iterates of the rule")
            image = rule.apply(image)
            haystacks.append(image)
    return all(any(w in h for h in haystacks) for w in windows)


def paperfolding_total_intensity(a: complex, b: complex, c: complex, d: complex,
                                 r_max: int) -> float:
    """Total atom intensity per unit k interval, summed up to denominator
    2^r_max: sum_r (atoms per unit at level r) * I_r, with one atom per
    unit at r <= 1 and 2^(r-1) at r >= 2, for 3 <= r_max <= 32."""
    if not 3 <= r_max <= _DYADIC_R_CAP:
        raise OutOfRangeError(f"r_max must lie in [3, {_DYADIC_R_CAP}]")
    total = 0.0
    for r, level in enumerate(_level_intensities(a, b, c, d, r_max)):
        total += max(1.0, 2.0 ** (r - 1)) * level
    return total
