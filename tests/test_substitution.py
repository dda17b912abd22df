import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import aperiodica as ap
from aperiodica.substitution import (
    PAPERFOLDING,
    THUE_MORSE,
    NotLatticeSubstitutionError,
    SeedError,
    SubstitutionRule,
    UnknownLetterError,
    UnsupportedMfsError,
    substitution_from_mfs,
    two_sided_seeds,
)

from dekking_oracle import agrees_with_definition

PERIOD_DOUBLING = SubstitutionRule(("a", "b"), {"a": "ab", "b": "aa"})
RUDIN_SHAPIRO = SubstitutionRule(("a", "b", "c", "d"),
                                 {"a": "ab", "b": "ac", "c": "db", "d": "dc"})
DOUBLING = SubstitutionRule(("a",), {"a": "aa"})


class TestApply:
    def test_paperfolding_single_letter(self):
        assert PAPERFOLDING.apply("a") == "ab"

    def test_empty_word(self):
        assert PAPERFOLDING.apply("") == ""

    def test_square_of_a(self):
        # composition oracle: sigma^2(a) = sigma(ab) = ab + cb
        assert PAPERFOLDING.apply(PAPERFOLDING.apply("a")) == "abcb"
        assert PAPERFOLDING.power(2).images["a"] == "abcb"

    def test_unknown_letter(self):
        with pytest.raises(UnknownLetterError):
            PAPERFOLDING.apply("xyz")

    def test_rule_file_round_trip(self):
        text = PAPERFOLDING.to_text()
        back = SubstitutionRule.from_text(text)
        assert back.images == PAPERFOLDING.images

    def test_non_constant_length_rejected(self):
        with pytest.raises(ap.AperiodicaError):
            SubstitutionRule(("a", "b"), {"a": "ab", "b": "a"})


class TestFixedPoint:
    def test_w1_prefix(self):
        word = ap.fixed_point(PAPERFOLDING, ("b", "a"))
        assert word.window(0, 16) == "abcbadcbabcdadcb"

    def test_seed_discovery(self):
        assert two_sided_seeds(PAPERFOLDING) == [("b", "a"), ("d", "a")]

    def test_w1_w2_differ_only_at_minus_one(self):
        w1 = ap.fixed_point(PAPERFOLDING, ("b", "a"))
        w2 = ap.fixed_point(PAPERFOLDING, ("d", "a"))
        lo, hi = -512, 512
        s1, s2 = w1.window(lo, hi), w2.window(lo, hi)
        diffs = [i + lo for i, (x, y) in enumerate(zip(s1, s2)) if x != y]
        assert diffs == [-1]
        assert w1[-1] == "b" and w2[-1] == "d"

    def test_prefix_property(self):
        word = ap.fixed_point(PAPERFOLDING, ("b", "a"))
        for k in range(1, 8):
            prefix = word.window(0, 2 ** k)
            assert PAPERFOLDING.apply(prefix).startswith(prefix)

    def test_self_consistency_to_depth_ten(self):
        for seed in two_sided_seeds(PAPERFOLDING):
            word = ap.fixed_point(PAPERFOLDING, seed)
            for k in range(0, 11):
                n = 2 ** k
                body = word.window(-n, n)
                assert PAPERFOLDING.apply(body) == word.window(-2 * n, 2 * n)

    def test_bad_seed_rejected(self):
        with pytest.raises(SeedError):
            ap.fixed_point(PAPERFOLDING, ("a", "b"))

    def test_negative_window_slice(self):
        word = ap.fixed_point(PAPERFOLDING, ("b", "a"))
        assert word.window(-4, -1) == word.window(-4, 4)[:3]


class TestPrimitive:
    def test_paperfolding_primitive(self):
        assert ap.primitive(PAPERFOLDING.substitution_matrix())

    def test_identity_not_primitive(self):
        assert not ap.primitive(np.eye(3, dtype=int))

    def test_scalar_two(self):
        assert ap.primitive(np.array([[2]]))

    def test_matrix_counts_letters(self):
        m = PAPERFOLDING.substitution_matrix()
        # column j counts letters of the image of j: sigma(a) = ab
        assert m[:, 0].tolist() == [1, 1, 0, 0]
        assert m.sum(axis=0).tolist() == [2, 2, 2, 2]


class TestDekking:
    def test_paperfolding_power_two(self):
        assert ap.dekking_coincidence(PAPERFOLDING) == 2

    def test_thue_morse_never(self):
        assert ap.dekking_coincidence(THUE_MORSE) is None

    def test_doubling_power_one(self):
        assert ap.dekking_coincidence(DOUBLING) == 1

    def test_period_doubling_power_one(self):
        assert ap.dekking_coincidence(PERIOD_DOUBLING) == 1

    def test_rudin_shapiro_never(self):
        assert ap.dekking_coincidence(RUDIN_SHAPIRO) is None


class TestMfs:
    def test_paperfolding_maps(self):
        mfs = ap.mfs_from_substitution(PAPERFOLDING)
        assert mfs.inflation == 2
        # sigma(a) = ab: position 0 -> a, position 1 -> b
        assert mfs.maps[0][0] == (0,)   # Phi_aa contains x -> 2x
        assert mfs.maps[1][0] == (1,)   # Phi_ba contains x -> 2x + 1

    def test_one_letter_rule(self):
        mfs = ap.mfs_from_substitution(DOUBLING)
        assert mfs.maps[0][0] == (0, 1)

    def test_substitution_matrix_matches(self):
        mfs = ap.mfs_from_substitution(PAPERFOLDING)
        assert np.array_equal(mfs.substitution_matrix(),
                              PAPERFOLDING.substitution_matrix())

    def test_round_trip(self):
        mfs = ap.mfs_from_substitution(PAPERFOLDING)
        back = substitution_from_mfs(mfs)
        assert back.images == PAPERFOLDING.images

    def test_exotic_offsets_rejected(self):
        # offsets outside 0..Q-1 do not arise from a substitution
        exotic = ap.MfsRule(1, 2, (((0, 3),),))
        with pytest.raises(UnsupportedMfsError):
            substitution_from_mfs(exotic)

    def test_interleaved_residue_rejected(self):
        # residue 0 of column 0 feeds two rows
        exotic = ap.MfsRule(2, 2, (((0,), ()), ((0, 1), ())))
        with pytest.raises(UnsupportedMfsError):
            substitution_from_mfs(exotic)


class TestIterate:
    def test_empty_multiset(self):
        mfs = ap.mfs_from_substitution(PAPERFOLDING)
        out = ap.iterate_mfs(mfs, [[], [], [], []])
        assert all(len(u) == 0 for u in out)

    def test_full_line_invariant(self):
        mfs = ap.mfs_from_substitution(DOUBLING)
        z = np.arange(-16, 17)
        out = ap.iterate_mfs(mfs, [z])
        assert np.array_equal(out[0], np.arange(-32, 34))  # 2Z and 2Z+1 merge

    def test_paperfolding_window_reproduction(self):
        mfs = ap.mfs_from_substitution(PAPERFOLDING)
        word = ap.fixed_point(PAPERFOLDING, ("b", "a"))
        for n in (4, 6, 8):
            w = 2 ** n
            current = word.letter_positions(-w, w + 1)
            image = ap.iterate_mfs(mfs, [current[a] for a in PAPERFOLDING.alphabet])
            expected = word.letter_positions(-2 * w, 2 * w + 2)
            for got, letter in zip(image, PAPERFOLDING.alphabet):
                assert np.array_equal(got, expected[letter])

    def test_overlap_detected(self):
        # inputs with overlapping components are rejected
        bad = ap.MfsRule(2, 2, (((0,), (0,)), ((1,), (1,))))
        with pytest.raises(NotLatticeSubstitutionError):
            ap.iterate_mfs(bad, [[0], [0]])
        # an action whose union collides is rejected too: offsets 0 and 2
        # reach the same point from disjoint inputs
        colliding = ap.MfsRule(2, 2, (((0,), (2,)), ((1,), (3,))))
        with pytest.raises(NotLatticeSubstitutionError):
            ap.iterate_mfs(colliding, [[1], [0]])


class TestModularCoincidence:
    def test_paperfolding_at_two(self):
        verdict = ap.modular_coincidence(ap.mfs_from_substitution(PAPERFOLDING))
        assert verdict.status == "coincident" and verdict.power == 2

    def test_thue_morse_proven_never(self):
        verdict = ap.modular_coincidence(ap.mfs_from_substitution(THUE_MORSE))
        assert verdict.status == "never"

    def test_doubling_at_one(self):
        verdict = ap.modular_coincidence(ap.mfs_from_substitution(DOUBLING))
        assert verdict.status == "coincident" and verdict.power == 1

    @pytest.mark.parametrize("max_power", [0, -1])
    def test_max_power_below_one_rejected(self, max_power):
        with pytest.raises(ap.OutOfRangeError, match="max_power"):
            ap.modular_coincidence(ap.mfs_from_substitution(PAPERFOLDING), max_power)

    def test_agreement_with_dekking_on_suite(self):
        rules = [
            PAPERFOLDING,
            THUE_MORSE,
            DOUBLING,
            PERIOD_DOUBLING,
            RUDIN_SHAPIRO,
            SubstitutionRule(("a", "b"), {"a": "aab", "b": "abb"}),
            SubstitutionRule(("a", "b"), {"a": "aba", "b": "bab"}),
            SubstitutionRule(("a", "b", "c"), {"a": "abc", "b": "acb", "c": "acc"}),
            SubstitutionRule(("a", "b", "c"), {"a": "ab", "b": "cb", "c": "ab"}),
            SubstitutionRule(("a", "b"), {"a": "abab", "b": "baba"}),
        ]
        for rule in rules:
            dk = ap.dekking_coincidence(rule)
            verdict = ap.modular_coincidence(ap.mfs_from_substitution(rule),
                                             max_power=30)
            if dk is None:
                assert verdict.status == "never", rule.images
            else:
                assert verdict.status == "coincident" and verdict.power == dk, rule.images


@st.composite
def primitive_rules(draw):
    """Primitive constant-length rules on 2-4 letters, of length 2-4."""
    alphabet = "abcd"[:draw(st.integers(min_value=2, max_value=4))]
    length = draw(st.integers(min_value=2, max_value=4))
    word = st.text(alphabet=alphabet, min_size=length, max_size=length)
    rule = SubstitutionRule(tuple(alphabet), {a: draw(word) for a in alphabet})
    assume(ap.primitive(rule.substitution_matrix()))
    return rule


# a -> ab, b -> bc, c -> aa first coincides at power 4; the named rules above
# all coincide by power 2 or never
@example(SubstitutionRule(("a", "b", "c"), {"a": "ab", "b": "bc", "c": "aa"}))
@settings(deadline=None)
@given(primitive_rules())
def test_coincidence_searches_match_the_definition(rule):
    verdict = ap.modular_coincidence(ap.mfs_from_substitution(rule), max_power=30)
    modular = verdict.power if verdict.status == "coincident" else None
    assert agrees_with_definition(rule, ap.dekking_coincidence(rule))
    assert agrees_with_definition(rule, modular)


class TestAbelianization:
    def test_letter_counts_follow_matrix(self):
        rng = np.random.default_rng(9)
        m = PAPERFOLDING.substitution_matrix()
        letters = PAPERFOLDING.alphabet
        for _ in range(20):
            word = "".join(rng.choice(letters, size=rng.integers(1, 30)))
            counts = np.array([word.count(c) for c in letters])
            image = PAPERFOLDING.apply(word)
            got = np.array([image.count(c) for c in letters])
            assert np.array_equal(got, m @ counts)


class TestLegalClusters:
    def test_paperfolding_windows_legal(self):
        from aperiodica.substitution import legal_clusters

        for seed in two_sided_seeds(PAPERFOLDING):
            word = ap.fixed_point(PAPERFOLDING, seed)
            assert legal_clusters(PAPERFOLDING, word, width=16, n_max=12)

    def test_corrupted_word_detected(self):
        from aperiodica.substitution import legal_clusters

        class Corrupted:
            def __init__(self, word):
                self._word = word

            def window(self, lo, hi):
                text = self._word.window(lo, hi)
                return text[: len(text) // 2] + "aaaaaaaaaaaaaaaa" + \
                    text[len(text) // 2 + 16:]

        word = ap.fixed_point(PAPERFOLDING, ("b", "a"))
        assert not legal_clusters(PAPERFOLDING, Corrupted(word),
                                  width=16, n_max=12, sample_radius=256)


class TestSymmetricDifference:
    def test_alpha_zero_vanishes(self):
        mfs = ap.mfs_from_substitution(PAPERFOLDING)
        word = ap.fixed_point(PAPERFOLDING, ("b", "a"))
        dens = ap.symmetric_difference_density(mfs, word, 0, 3, 4096)
        assert np.array_equal(dens, np.zeros(4))

    def test_paperfolding_densities_decrease(self):
        # Exact enumeration gives the b and d components the values
        # 1/4, 3/8, 3/16, 3/32, ... : the sequence rises once from n=1 to
        # n=2 and then halves, so the monotone decrease starts at n=2 (the
        # limit 0 is what the coincidence criterion demands).
        mfs = ap.mfs_from_substitution(PAPERFOLDING)
        word = ap.fixed_point(PAPERFOLDING, ("b", "a"))
        window = 1 << 16
        values = [ap.symmetric_difference_density(mfs, word, 1, n, window)
                  for n in range(1, 7)]
        assert np.allclose(values[1], [0.0, 0.375, 0.0, 0.375], atol=1e-4)
        for prev, cur in zip(values[1:], values[2:]):
            assert np.all(cur <= prev + 1e-3)
        assert np.all(values[-1] < 0.05)

    def test_thue_morse_densities_bounded_away(self):
        # TM has no sigma seed; its square does
        tm2 = THUE_MORSE.power(2)
        word = ap.fixed_point(tm2, ("a", "a"))
        mfs = ap.mfs_from_substitution(THUE_MORSE)
        window = 1 << 16
        for n in range(1, 7):
            dens = ap.symmetric_difference_density(mfs, word, 1, n, window)
            assert np.all(dens >= 0.1)
