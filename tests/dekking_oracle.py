"""Dekking's coincidence condition applied by its definition (F. M. Dekking,
Z. Wahrsch. verw. Geb. 41, 1978): sigma has a coincidence at power M when
some column r of the images sigma^M(x), taken over all letters x, holds one
letter.  The oracle grows the images with `SubstitutionRule.apply` and
reads their columns; it shares nothing with the column refinement behind
`dekking_coincidence` and `modular_coincidence`.
"""

REACH = 2 ** 16  # the longest image the oracle grows


def coincidence_power(rule) -> tuple[int | None, int]:
    """(M, reach): the smallest coincidence power M, or None if no image of
    at most REACH letters coincides; reach is the largest power checked."""
    images, power = list(rule.alphabet), 0
    while len(images[0]) * rule.length <= REACH:
        images = [rule.apply(w) for w in images]
        power += 1
        if any(len(set(column)) == 1 for column in zip(*images)):
            return power, power
    return None, power


def agrees_with_definition(rule, power: int | None) -> bool:
    """Whether a searched coincidence power (None: none found) matches the
    oracle: a power within its reach must equal the oracle's; beyond that
    reach, or for None, the oracle must have found none."""
    found, reach = coincidence_power(rule)
    if power is not None and power <= reach:
        return found == power
    return found is None
