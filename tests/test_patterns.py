"""Pattern construction, notation, symmetry, and classification."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from overrot import (
    OrpPair,
    Pattern,
    PatternError,
    block_structures,
    canonical,
    classify,
    doubling_of,
    flip,
    format_cycle,
    format_pattern,
    has_division,
    is_convergent,
    is_doubling,
    over_rotation_number,
    over_rotation_pair,
    parse_cycle,
    parse_pattern,
    stefan,
)
from overrot.patterns import BlockDecomposition, _block_factors
from overrot.verify import enumerate_patterns


def cyclic_patterns(max_period: int):
    """Random cyclic patterns: a shuffled cycle through all points."""

    @st.composite
    def build(draw):
        period = draw(st.integers(min_value=1, max_value=max_period))
        rest = draw(st.permutations(list(range(2, period + 1))))
        cycle = [1] + list(rest)
        images = [0] * period
        for i in range(period):
            images[cycle[i] - 1] = cycle[(i + 1) % period]
        return Pattern(tuple(images))

    return build()


class TestConstruction:
    def test_identity_fixed_point_is_a_pattern(self):
        assert Pattern((1,)).period == 1

    def test_period_and_image(self):
        p = Pattern((2, 3, 1))
        assert p.period == 3
        assert [p.image(i) for i in (1, 2, 3)] == [2, 3, 1]

    @pytest.mark.parametrize("bad", [0, -1, 4, True, 1.0, "1", None], ids=repr)
    def test_image_rejects_points_outside_one_to_n(self, bad):
        # a negative or zero index would otherwise read an image from the end
        with pytest.raises(ValueError, match="points run 1..3"):
            Pattern((2, 3, 1)).image(bad)

    def test_rejects_empty(self):
        with pytest.raises(PatternError):
            Pattern(())

    def test_rejects_non_bijection(self):
        with pytest.raises(PatternError, match="bijection"):
            Pattern((1, 1, 3))

    def test_rejects_multiple_cycles(self):
        with pytest.raises(PatternError, match="single cycle"):
            Pattern((2, 1, 4, 3))

    @pytest.mark.parametrize("images", [(2.0, 3.0, 1.0), (True,), (2, True), ("2", "1")])
    def test_rejects_entries_that_are_not_integers(self, images):
        with pytest.raises(PatternError, match="integers"):
            Pattern(images)

    def test_rejects_identity_of_period_two(self):
        with pytest.raises(PatternError):
            Pattern((1, 2))

    def test_str_and_repr(self):
        p = Pattern((2, 3, 1))
        assert str(p) == "2 3 1"
        assert repr(p) == 'Pattern("2 3 1")'

    def test_equal_only_to_patterns_of_the_same_images(self):
        p = Pattern((2, 3, 1))
        assert p == Pattern([2, 3, 1])
        assert p != ((2, 3, 1),)
        assert p != (2, 3, 1)
        assert p != Pattern((3, 1, 2))
        # the hash of the tuple of its fields, on which the order of a
        # printed frozenset of patterns depends
        assert hash(p) == hash(((2, 3, 1),))

    def test_fields_cannot_be_assigned_or_deleted(self):
        p = Pattern((2, 3, 1))
        with pytest.raises(AttributeError):
            p.images = (3, 1, 2)
        with pytest.raises(AttributeError):
            p.other = 1
        with pytest.raises(AttributeError):
            del p.images
        assert p.images == (2, 3, 1)

    @pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_pickle_and_deepcopy_round_trip(self, round_trip):
        for p in (Pattern((2, 3, 1)), canonical(Pattern((3, 1, 2))), stefan(7)):
            back = round_trip(p)
            assert type(back) is Pattern
            assert back == p and back.images == p.images
            assert repr(back) == repr(p)


class TestNotation:
    def test_parse_pattern(self):
        assert parse_pattern("2 3 1") == Pattern((2, 3, 1))

    def test_parse_rejects_garbage(self):
        with pytest.raises(PatternError):
            parse_pattern("2 x 1")
        with pytest.raises(PatternError):
            parse_pattern("   ")

    @pytest.mark.parametrize("parse", [parse_pattern, parse_cycle])
    def test_both_parsers_name_the_bad_token(self, parse):
        with pytest.raises(PatternError, match="integers, got 'x'$"):
            parse("2 x 1")

    def test_parse_cycle_names_an_unbalanced_paren(self):
        with pytest.raises(PatternError, match=r"integers, got '\(1'$"):
            parse_cycle("(1 2")

    @pytest.mark.parametrize("text", ["(1 3)(2)", "(1 3) (2)", "(1 2)(3 4)"])
    def test_parse_cycle_takes_one_cycle(self, text):
        with pytest.raises(PatternError, match=r"^cycle notation takes one cycle, got "):
            parse_cycle(text)

    def test_parse_cycle_rejects_empty_parens(self):
        with pytest.raises(PatternError, match="empty input"):
            parse_cycle("()")

    def test_parse_cycle_with_and_without_parens(self):
        assert parse_cycle("(1 2 3)") == Pattern((2, 3, 1))
        assert parse_cycle("1 2 3") == Pattern((2, 3, 1))

    def test_cycle_reads_in_orbit_order(self):
        # the cycle (1 4 6 2 3 5) sends 1->4, 4->6, 6->2, 2->3, 3->5, 5->1
        p = parse_cycle("(1 4 6 2 3 5)")
        assert p == Pattern((4, 3, 5, 6, 1, 2))

    def test_format_pattern(self):
        assert format_pattern(Pattern((2, 3, 1))) == "2 3 1"

    def test_format_cycle_starts_at_one(self):
        assert format_cycle(Pattern((2, 3, 1))) == "(1 2 3)"

    def test_round_trip_one_line(self):
        for text in ("2 1", "2 3 1", "3 5 4 2 1", "4 3 5 6 1 2"):
            assert format_pattern(parse_pattern(text)) == text

    @given(cyclic_patterns(8))
    def test_round_trip_both_notations(self, p):
        assert parse_pattern(format_pattern(p)) == p
        assert parse_cycle(format_cycle(p)) == p


class TestSymmetry:
    def test_flip_example(self):
        assert flip(Pattern((2, 3, 1))) == Pattern((3, 1, 2))

    def test_canonical_prefers_smaller(self):
        assert canonical(Pattern((3, 1, 2))) == Pattern((2, 3, 1))
        assert canonical(Pattern((2, 3, 1))) == Pattern((2, 3, 1))

    @given(cyclic_patterns(8))
    def test_flip_is_an_involution(self, p):
        assert flip(flip(p)) == p

    @given(cyclic_patterns(8))
    def test_canonical_is_idempotent_and_flip_invariant(self, p):
        c = canonical(p)
        assert canonical(c) == c
        assert canonical(flip(p)) == c

    @given(cyclic_patterns(8))
    def test_flip_preserves_over_rotation_pair(self, p):
        if p.period >= 2:
            assert over_rotation_pair(flip(p)) == over_rotation_pair(p)


class TestBlockStructure:
    def test_period_four_doubling(self):
        decs = block_structures(Pattern((3, 4, 2, 1)))
        assert decs == [
            BlockDecomposition(num_blocks=2, block_size=2, factor=Pattern((2, 1)))
        ]

    def test_spiral_has_none(self):
        assert block_structures(Pattern((3, 5, 4, 2, 1))) == []

    def test_period_two_has_none(self):
        assert block_structures(Pattern((2, 1))) == []

    def test_nested_blocks_of_period_eight(self):
        p = doubling_of(doubling_of(Pattern((2, 1))))
        sizes = sorted(dec.block_size for dec in block_structures(p))
        assert sizes == [2, 4]

    def test_division(self):
        assert has_division(Pattern((2, 1)))
        assert has_division(Pattern((3, 4, 2, 1)))
        assert not has_division(Pattern((2, 3, 1)))
        assert not has_division(Pattern((4, 3, 5, 6, 1, 2)))

    def test_division_implies_block_structure_beyond_period_two(self):
        for images in ((3, 4, 2, 1), (3, 4, 1, 2), (4, 3, 1, 2), (4, 3, 2, 1)):
            try:
                p = Pattern(images)
            except PatternError:
                continue
            if has_division(p):
                assert block_structures(p)

    def test_doubling_of_round_trip(self):
        factor = Pattern((2, 3, 1))
        doubled = doubling_of(factor)
        assert doubled == Pattern((4, 3, 5, 6, 1, 2))
        assert is_doubling(doubled)
        twos = [dec for dec in block_structures(doubled) if dec.block_size == 2]
        assert twos and twos[0].factor == factor

    @given(cyclic_patterns(5))
    def test_doubling_halves_to_its_factor(self, factor):
        doubled = doubling_of(factor)
        assert doubled.period == 2 * factor.period
        if factor.period >= 2:
            twos = [dec for dec in block_structures(doubled) if dec.block_size == 2]
            assert twos and twos[0].factor == factor


def list_block_factors(images):
    """The block test in its list form, two full lists per divisor: every
    point's block against its block's first point's, repeated; the
    differential oracle of the early-exit test."""
    n = len(images)
    for size in range(2, n // 2 + 1):
        if n % size == 0:
            blocks = [(v - 1) // size for v in images]
            factor = blocks[::size]
            if blocks == [b for b in factor for _ in range(size)]:
                yield size, tuple(b + 1 for b in factor)


class TestEarlyExitBlocks:
    @pytest.mark.parametrize("period", range(2, 10))
    def test_matches_the_list_form(self, period):
        found = 0
        for p in enumerate_patterns(period):
            for images in (p.images, flip(p).images):
                got = list(_block_factors(images))
                assert got == list(list_block_factors(images)), images
                found += bool(got)
        # periods with a proper divisor have patterns with block structures
        assert found or period in (2, 3, 5, 7)


class TestDisplacementShape:
    def test_convergent_examples(self):
        assert is_convergent(Pattern((2, 3, 1)))
        assert is_convergent(Pattern((2, 1)))
        assert is_convergent(Pattern((3, 5, 4, 2, 1)))
        assert not is_convergent(Pattern((3, 1, 4, 2)))

    def test_over_rotation_pairs(self):
        assert over_rotation_pair(Pattern((2, 1))) == OrpPair(1, 2)
        assert over_rotation_pair(Pattern((2, 3, 1))) == OrpPair(1, 3)
        assert over_rotation_pair(Pattern((3, 5, 4, 2, 1))) == OrpPair(2, 5)
        assert over_rotation_pair(Pattern((4, 3, 5, 6, 1, 2))) == OrpPair(2, 6)
        assert over_rotation_pair(Pattern((3, 4, 2, 1))) == OrpPair(2, 4)
        assert over_rotation_pair(Pattern((3, 1, 4, 2))) == OrpPair(1, 4)

    def test_pair_is_not_reduced(self):
        assert over_rotation_pair(Pattern((4, 3, 5, 6, 1, 2))) == OrpPair(2, 6)
        assert over_rotation_number(Pattern((4, 3, 5, 6, 1, 2))) == Fraction(1, 3)

    def test_rejects_fixed_point(self):
        with pytest.raises(PatternError):
            over_rotation_pair(Pattern((1,)))

    @given(cyclic_patterns(8))
    def test_pair_bounds(self, p):
        if p.period < 2:
            return
        pair = over_rotation_pair(p)
        assert pair.q == p.period
        assert 1 <= pair.p <= pair.q // 2


class TestSpiral:
    def test_small_spirals(self):
        assert stefan(3) == Pattern((2, 3, 1))
        assert stefan(5) == Pattern((3, 5, 4, 2, 1))
        assert stefan(7) == Pattern((4, 7, 6, 5, 3, 2, 1))

    def test_rejects_even_and_tiny(self):
        for bad in (1, 2, 4, 6):
            with pytest.raises(PatternError):
                stefan(bad)

    def test_spiral_is_canonical_and_unimodal(self):
        for n in (3, 5, 7, 9, 11, 13):
            s = stefan(n)
            assert canonical(s) == s
            assert is_convergent(s)
            assert block_structures(s) == []


class TestClassify:
    def test_period_two(self):
        assert classify(Pattern((2, 1))) == {
            "period": 2,
            "convergent": True,
            "division": True,
            "doubling": False,
            "block_sizes": [],
            "orp": [1, 2],
            "rho": "1/2",
        }

    def test_doubled_three_cycle(self):
        got = classify(Pattern((4, 3, 5, 6, 1, 2)))
        assert got["doubling"] is True
        assert got["block_sizes"] == [2]
        assert got["orp"] == [2, 6]
        assert got["rho"] == "1/3"

    def test_fixed_point_has_no_rotation(self):
        got = classify(Pattern((1,)))
        assert got["orp"] is None and got["rho"] is None


def test_random_large_patterns_classify_without_error():
    rng = random.Random(20260818)
    for _ in range(25):
        n = rng.randrange(8, 40)
        rest = list(range(2, n + 1))
        rng.shuffle(rest)
        cycle = [1] + rest
        images = [0] * n
        for i in range(n):
            images[cycle[i] - 1] = cycle[(i + 1) % n]
        p = Pattern(tuple(images))
        got = classify(p)
        assert got["period"] == n
        assert over_rotation_pair(flip(p)) == over_rotation_pair(p)
