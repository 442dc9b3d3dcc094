"""The three orders on periods and pairs."""

from fractions import Fraction
from itertools import combinations

import pytest

from overrot import (
    OrpPair,
    eta,
    n_r,
    orp_precedes,
    sharkovsky_precedes,
    star_precedes,
)


def explicit_sharkovsky_order(limit: int) -> list[int]:
    """The classical order written out layer by layer, as an independent
    oracle: odd numbers, twice the odds, four times the odds, ... , then the
    powers of two descending to 1."""
    out = []
    power = 1
    while power * 3 <= limit:
        out.extend(power * odd for odd in range(3, limit // power + 1, 2))
        power *= 2
    powers = []
    power = 1
    while power <= limit:
        powers.append(power)
        power *= 2
    out.extend(reversed(powers))
    return out


class TestSharkovsky:
    def test_matches_the_explicit_order(self):
        order = explicit_sharkovsky_order(48)
        assert sorted(order) == list(range(1, 49))
        position = {m: i for i, m in enumerate(order)}
        for m in range(1, 49):
            for s in range(1, 49):
                assert sharkovsky_precedes(m, s) == (position[m] < position[s]), (m, s)

    def test_examples(self):
        assert sharkovsky_precedes(3, 5)
        assert sharkovsky_precedes(3, 2)
        assert sharkovsky_precedes(6, 4)
        assert sharkovsky_precedes(2, 1)
        assert not sharkovsky_precedes(1, 1)
        assert not sharkovsky_precedes(5, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sharkovsky_precedes(0, 3)


class TestStar:
    def test_examples(self):
        assert star_precedes(4, 6)
        assert star_precedes(6, 3)
        assert star_precedes(3, 8)
        assert star_precedes(10, 5)
        assert not star_precedes(3, 3)
        assert not star_precedes(3, 6)

    def test_initial_chain(self):
        chain = [4, 6, 3, 8, 10, 5, 12, 14, 7, 16, 18, 9]
        for earlier, later in zip(chain, chain[1:]):
            assert star_precedes(earlier, later), (earlier, later)

    def test_total_strict_order(self):
        values = range(3, 301)
        for m in values:
            assert not star_precedes(m, m)
        for m, s in combinations(values, 2):
            assert star_precedes(m, s) != star_precedes(s, m)

    def test_transitive_on_a_range(self):
        values = list(range(3, 61))
        for m, s, t in combinations(values, 3):
            for a, b, c in ((m, s, t), (m, t, s), (s, m, t)):
                if star_precedes(a, b) and star_precedes(b, c):
                    assert star_precedes(a, c)

    def test_rejects_periods_below_three(self):
        with pytest.raises(ValueError):
            star_precedes(2, 5)

    def test_agrees_with_pair_order_through_eta(self):
        for m in range(3, 61):
            for s in range(3, 61):
                if m != s:
                    assert star_precedes(m, s) == orp_precedes(eta(m), eta(s)), (m, s)


class TestNR:
    def test_examples(self):
        assert n_r(3, 10) == frozenset({3, 5, 7, 8, 9, 10})
        assert n_r(6, 10) == frozenset({3, 5, 6, 7, 8, 9, 10})
        assert n_r(4, 6) == frozenset({3, 4, 5, 6})

    def test_contains_itself_within_cap(self):
        assert 12 in n_r(12, 20)
        assert n_r(12, 11) == frozenset({12}) | frozenset(
            s for s in range(3, 12) if star_precedes(12, s)
        )


class TestEta:
    def test_examples(self):
        assert eta(3) == OrpPair(1, 3)
        assert eta(4) == OrpPair(1, 4)
        assert eta(6) == OrpPair(2, 6)
        assert eta(7) == OrpPair(3, 7)

    def test_rejects_below_three(self):
        with pytest.raises(ValueError):
            eta(2)

    def test_odd_pairs_are_reduced_even_pairs_are_not(self):
        from math import gcd

        for m in range(3, 40):
            pair = eta(m)
            assert pair.q == m
            if m % 2:
                assert gcd(pair.p, pair.q) == 1
            assert Fraction(pair.p, pair.q) <= Fraction(1, 2)


class TestOrpOrder:
    def test_ratio_comparison(self):
        assert orp_precedes(OrpPair(1, 4), OrpPair(1, 3))
        assert orp_precedes(OrpPair(1, 3), OrpPair(1, 2))
        assert not orp_precedes(OrpPair(1, 2), OrpPair(1, 3))

    def test_equal_ratio_uses_multipliers(self):
        assert orp_precedes(OrpPair(2, 6), OrpPair(1, 3))
        assert not orp_precedes(OrpPair(1, 3), OrpPair(2, 6))
        # multipliers 3 and 2: Sharkovsky puts 3 before 2
        assert orp_precedes(OrpPair(3, 9), OrpPair(2, 6))

    def test_irreflexive(self):
        assert not orp_precedes(OrpPair(1, 3), OrpPair(1, 3))

    def test_rejects_invalid_pairs(self):
        for bad in ((0, 3), (2, 3), (1, 1), (3, 4)):
            with pytest.raises(ValueError):
                orp_precedes(OrpPair(*bad), OrpPair(1, 2))

    def test_rejects_entries_that_are_not_integers(self):
        # a float is not an integer, and a bool is not taken for 1
        for bad in ((1, 2.5), (True, 3), (1, Fraction(3))):
            with pytest.raises(ValueError, match="integer entries"):
                orp_precedes(bad, (1, 3))
            with pytest.raises(ValueError, match="integer entries"):
                orp_precedes((1, 3), bad)

    @pytest.mark.parametrize("bad", [None, (1, 3, 4), (1,), 3])
    def test_rejects_arguments_that_are_not_pairs(self, bad):
        with pytest.raises(ValueError, match="two entries"):
            orp_precedes(bad, (1, 3))
        with pytest.raises(ValueError, match="two entries"):
            orp_precedes((1, 2), bad)

    def test_total_on_small_pairs(self):
        pairs = [
            OrpPair(p, q) for q in range(2, 12) for p in range(1, q // 2 + 1)
        ]
        for a in pairs:
            for b in pairs:
                if a == b:
                    assert not orp_precedes(a, b)
                else:
                    assert orp_precedes(a, b) != orp_precedes(b, a), (a, b)


class TestIntegerPeriods:
    """Periods and caps are integers: a float, or a bool taken for 1, gives
    ValueError, never an answer."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: eta(4.0),
            lambda: n_r(4.0, 8),
            lambda: n_r(4, 8.0),
            lambda: star_precedes(4.0, 6),
            lambda: star_precedes(4, True),
            lambda: sharkovsky_precedes(3.0, 5),
            lambda: sharkovsky_precedes(3, Fraction(5)),
        ],
        ids=["eta", "n_r", "n_r-cap", "star", "star-bool", "sharkovsky", "sharkovsky-fraction"],
    )
    def test_rejects_non_integers(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
