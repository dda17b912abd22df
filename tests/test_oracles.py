"""The reference sums of tests/oracles.py against phases in rational
arithmetic: exact_turns within 1e-15 turns of frac(k x) in Fraction, and
exact_power and direct_power against fraction_power, the small-size
reference."""

import math
from fractions import Fraction

import numpy as np
import pytest

import aperiodica as ap
from aperiodica.core import ModuleCoords
from oracles import direct_power, exact_power, exact_turns


def fibonacci_tau() -> Fraction:
    """F(301) / F(300), within 1e-125 of tau."""
    a, b = 0, 1
    for _ in range(300):
        a, b = b, a + b
    return Fraction(b, a)


def exact_positions(comb) -> list:
    """The comb's positions as Fractions, from its coordinates."""
    coords = comb.coords
    if coords is None:
        return [Fraction(x) for x in comb.positions.tolist()]
    if isinstance(coords, ModuleCoords):
        tau = fibonacci_tau()
        return [m * tau + n for m, n in coords.mn.tolist()]
    scale = Fraction(coords.scale)
    return [c * scale for c in coords.values.tolist()]


def fraction_turns(comb, ks) -> np.ndarray:
    """frac(k x_j) for each double k and exact position x_j, in Fraction."""
    xs = exact_positions(comb)
    return np.array([[float(Fraction(k) * x % 1) for x in xs] for k in ks.tolist()])


def fraction_power(comb, w, ks) -> np.ndarray:
    """|sum_j w_j e^(-2 pi i k x_j)|^2 at each k, each phase from
    fraction_turns."""
    return np.abs(np.exp(-2j * math.pi * fraction_turns(comb, ks)) @ w) ** 2


def turn_distance(a, b) -> float:
    """The largest distance of a from b on the circle of one turn."""
    d = np.abs(a - b) % 1.0
    return float(np.max(np.minimum(d, 1.0 - d)))


def oracle_ks() -> np.ndarray:
    """k that are dyadic, scattered in +-25 and near 1e3."""
    rng = np.random.default_rng(11)
    dyadic = np.concatenate([np.arange(-6, 7) / 1024, [2.0 ** -30 * 12_345, 0.5, -3.0]])
    return np.concatenate([dyadic, rng.uniform(-25.0, 25.0, size=12),
                           1e3 + rng.uniform(-1.0, 1.0, size=6)])


def integer_comb(scale, span):
    rng = np.random.default_rng(int(span) % 97)
    values = np.unique(rng.integers(-span // 2, span // 2 + 1, size=80))
    values = np.unique(np.concatenate([values, [-span // 2, span // 2]]))
    radius = scale * (span // 2)
    return ap.WeightedComb.from_integers(values, rng.normal(size=len(values)), radius, scale)


def module_comb(side):
    rng = np.random.default_rng(side % 89)
    mn = np.unique(rng.integers(-side, side + 1, size=(80, 2)), axis=0)
    x = mn[:, 0] * ap.TAU + mn[:, 1]
    return ap.WeightedComb.from_module(mn, rng.normal(size=len(mn)),
                                       float(np.max(np.abs(x))) + 1.0)


def float_comb():
    """Doubles over +-1e7, some within 1e-6 of 0, and 0 itself."""
    rng = np.random.default_rng(13)
    x = np.unique(np.concatenate([rng.uniform(-1e7, 1e7, size=60),
                                  rng.uniform(-1e-6, 1e-6, size=10), [0.0, 1e7, -1e7]]))
    return ap.WeightedComb.from_positions(x, rng.normal(size=len(x)), 1e7)


CASES = {
    **{f"integers-scale-{scale}-span-{span:.0e}": (integer_comb, (scale, span))
       for scale in (1.0, 3.0, 0.37) for span in (10 ** 3, 10 ** 12)},
    "module-pairs-1e3": (module_comb, (10 ** 3,)),
    "module-pairs-1e6": (module_comb, (10 ** 6,)),
    "floats-1e7": (float_comb, ()),
}


@pytest.mark.parametrize("case", list(CASES))
def test_exact_turns_match_fraction_phases(case):
    make, args = CASES[case]
    comb = make(*args)
    ks = oracle_ks()
    turns = exact_turns(comb, ks)
    assert turns.shape == (len(ks), len(comb))
    assert np.all((turns >= 0.0) & (turns <= 1.0))
    assert turn_distance(turns, fraction_turns(comb, ks)) <= 1e-15


@pytest.mark.parametrize("case", list(CASES))
def test_exact_power_matches_fraction_power(case):
    make, args = CASES[case]
    comb = make(*args)
    ks = oracle_ks()
    exact = fraction_power(comb, comb.weights, ks)
    assert np.max(np.abs(exact_power(comb, comb.weights, ks) - exact)) <= 1e-12 * np.max(exact)


def test_exact_power_tiles_large_combs():
    # more points than one tile: the sums over the tiles of points add up
    rng = np.random.default_rng(17)
    values = np.unique(rng.integers(-10 ** 9, 10 ** 9, size=40_000))
    comb = ap.WeightedComb.from_integers(values, rng.normal(size=len(values)), 1e9, 0.37)
    ks = rng.uniform(-25.0, 25.0, size=3)
    turns = exact_turns(comb, ks)
    whole = np.abs(np.exp(-2j * math.pi * turns) @ comb.weights) ** 2
    assert np.max(np.abs(exact_power(comb, comb.weights, ks) - whole)) <= 1e-12 * np.max(whole)


def test_direct_power_matches_at_small_phases():
    # |k x| under 1e3: phases in doubles are off by ~1e-13 turns at most
    rng = np.random.default_rng(19)
    values = np.unique(rng.integers(-100, 101, size=60))
    w = rng.normal(size=len(values)) + 1j * rng.normal(size=len(values))
    comb = ap.WeightedComb.from_integers(values, w, 100.0)
    ks = rng.uniform(-5.0, 5.0, size=40)
    exact = fraction_power(comb, w, ks)
    assert np.max(np.abs(direct_power(comb.positions, w, ks) - exact)) <= 1e-12 * np.max(exact)
