"""Exact orbit realization, forcing queries, twist verdicts, insertion."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from overrot import (
    Degenerate,
    DegenerateRealizationError,
    DivergentPatternError,
    LoopError,
    NotTwist,
    Orbit,
    OrpPair,
    Pattern,
    PatternError,
    TwistUpTo,
    canonical,
    compose_loop,
    flip,
    forced_patterns,
    forces,
    insert_rotation,
    is_convergent,
    is_doubling,
    is_twist_bounded,
    markov_graph,
    orp_spectrum,
    over_rotation_number,
    over_rotation_pair,
    pattern_of_orbit,
    realize_loop,
    stefan,
    twist_monotone_check,
)
from overrot.verify import enumerate_patterns

THREE = Pattern((2, 3, 1))
TWO = Pattern((2, 1))


def small_patterns(max_period: int):
    @st.composite
    def build(draw):
        period = draw(st.integers(min_value=2, max_value=max_period))
        rest = draw(st.permutations(list(range(2, period + 1))))
        cycle = [1] + list(rest)
        images = [0] * period
        for i in range(period):
            images[cycle[i] - 1] = cycle[(i + 1) % period]
        return Pattern(tuple(images))

    return build()


class TestRealizeLoop:
    def test_two_loop(self):
        orbit = realize_loop(THREE, (1, 2))
        assert isinstance(orbit, Orbit)
        assert orbit.points == (Fraction(5, 3), Fraction(8, 3))
        assert orbit.period == 2
        assert orbit.itinerary == ("J1", "J2")
        assert pattern_of_orbit(orbit) == TWO

    def test_four_loop(self):
        orbit = realize_loop(THREE, (1, 2, 2, 2))
        assert orbit.points == (
            Fraction(13, 9),
            Fraction(19, 9),
            Fraction(22, 9),
            Fraction(25, 9),
        )
        assert pattern_of_orbit(orbit) == Pattern((3, 4, 2, 1))

    def test_fixed_point_loop(self):
        orbit = realize_loop(THREE, ("J2",))
        assert orbit.points == (Fraction(7, 3),)
        assert orbit.period == 1
        assert pattern_of_orbit(orbit) == Pattern((1,))

    def test_base_cycle_loop_realizes_the_pattern_itself(self):
        orbit = realize_loop(THREE, (1, 2, 2))
        assert orbit.points == (1, 2, 3)
        assert pattern_of_orbit(orbit) == THREE

    def test_short_period_keeps_full_itinerary(self):
        orbit = realize_loop(THREE, (2, 2))
        assert orbit.period == 1
        assert orbit.points == (Fraction(7, 3),)
        assert orbit.itinerary == ("J2", "J2")

    def test_identity_composition_picks_a_fresh_point(self):
        orbit = realize_loop(TWO, (1, 1))
        assert orbit.period == 2
        assert pattern_of_orbit(orbit) == TWO
        assert orbit.points[0].denominator > 1

    def test_fixed_point_retraced_is_a_short_orbit(self):
        orbit = realize_loop(TWO, (1, 1, 1))
        assert isinstance(orbit, Orbit)
        assert orbit.period == 1
        assert orbit.points == (Fraction(3, 2),)

    def test_degenerate_retrace_of_the_base_cycle(self):
        result = realize_loop(THREE, (1, 2, 2, 1, 2, 2))
        assert isinstance(result, Degenerate)
        assert result.points == (1, 2, 3)
        assert result.period == 3

    def test_rejects_non_edges(self):
        with pytest.raises(LoopError, match="no edge"):
            realize_loop(THREE, (1, 1))

    def test_rejects_unknown_intervals(self):
        with pytest.raises(LoopError, match="unknown interval"):
            realize_loop(THREE, (1, 5))
        with pytest.raises(LoopError, match="unknown interval"):
            realize_loop(THREE, ("Il",))

    def test_rejects_empty(self):
        with pytest.raises(LoopError, match="empty"):
            realize_loop(THREE, ())

    def test_orbit_points_all_map_within_the_orbit(self):
        orbit = realize_loop(THREE, (1, 2, 2, 2))
        f = orbit.carrier
        assert {f(x) for x in orbit.points} == set(orbit.points)


class TestComposeLoop:
    def test_two_loop_composition(self):
        comp = compose_loop(THREE, (1, 2))
        assert (comp.slope, comp.offset) == (-2, 5)
        assert (comp.domain_lo, comp.domain_hi) == (1, 2)

    def test_four_loop_composition(self):
        comp = compose_loop(THREE, (1, 2, 2, 2))
        assert (comp.slope, comp.offset) == (-8, 13)

    def test_fixed_point_matches_realization(self):
        comp = compose_loop(THREE, (1, 2))
        x = comp.offset / (1 - comp.slope)
        assert x in realize_loop(THREE, (1, 2)).points

    def test_rejects_non_edges(self):
        with pytest.raises(LoopError, match="no edge"):
            compose_loop(THREE, (1, 1))


@st.composite
def closed_walks(draw):
    """A pattern of period <= 7 and a closed walk in its covering graph: the
    stretch between two visits of one vertex on a random walk."""
    pattern = draw(small_patterns(7))
    graph = markov_graph(pattern)
    walk = [draw(st.integers(min_value=1, max_value=graph.num_vertices))]
    for _ in range(3 * graph.num_vertices):
        walk.append(draw(st.sampled_from(graph.successors(walk[-1]))))
    returns = [
        (i, j)
        for i in range(len(walk))
        for j in range(i + 1, len(walk))
        if walk[i] == walk[j]
    ]
    i, j = draw(st.sampled_from(returns))
    return pattern, tuple(walk[i:j])


class TestKernelProperties:
    @given(closed_walks())
    @settings(max_examples=150, deadline=None)
    def test_realized_orbits_follow_the_definitions(self, case):
        pattern, walk = case
        result = realize_loop(pattern, walk)
        if not isinstance(result, Orbit):
            return
        f = result.carrier
        assert {f(x) for x in result.points} == set(result.points)
        assert len(result.points) == result.period
        comp = compose_loop(pattern, walk)
        assert any(
            comp.domain_lo <= x <= comp.domain_hi and comp.slope * x + comp.offset == x
            for x in result.points
        )


class TestForcedPatterns:
    def test_examples(self):
        assert forced_patterns(THREE, 2) == frozenset({TWO})
        assert forced_patterns(THREE, 4) == frozenset({Pattern((3, 4, 2, 1))})
        assert forced_patterns(TWO, 3) == frozenset()
        assert forced_patterns(TWO, 2) == frozenset({TWO})

    def test_includes_the_pattern_itself(self):
        for p in (TWO, THREE, stefan(5), Pattern((4, 3, 5, 6, 1, 2))):
            assert canonical(p) in forced_patterns(p, p.period)

    def test_every_period_one_is_the_fixed_point(self):
        assert forced_patterns(THREE, 1) == frozenset({Pattern((1,))})
        assert forced_patterns(Pattern((1,)), 1) == frozenset({Pattern((1,))})
        assert forced_patterns(Pattern((1,)), 3) == frozenset()

    def test_results_are_canonical(self):
        for q in (2, 3, 4, 5):
            for b in forced_patterns(stefan(5), q):
                assert canonical(b) == b

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            forced_patterns(THREE, 0)

    @given(small_patterns(5), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_mirror_patterns_force_the_same_canonical_sets(self, p, q):
        assert forced_patterns(p, q) == forced_patterns(flip(p), q)


class TestForces:
    def test_three_forces_everything_small(self):
        assert forces(THREE, TWO)
        assert forces(THREE, Pattern((3, 4, 2, 1)))
        assert forces(THREE, stefan(5))
        assert forces(THREE, stefan(7))

    def test_two_forces_only_itself_and_the_fixed_point(self):
        assert forces(TWO, TWO)
        assert forces(TWO, Pattern((1,)))
        assert not forces(TWO, THREE)

    def test_fixed_point_pattern(self):
        one = Pattern((1,))
        assert forces(one, one)
        assert not forces(one, TWO)
        assert forces(TWO, one)

    def test_respects_canonical_classes(self):
        assert forces(Pattern((3, 1, 2)), TWO)
        assert forces(THREE, flip(stefan(5)))

    @given(small_patterns(6))
    @settings(max_examples=40, deadline=None)
    def test_reflexive(self, p):
        assert forces(p, p)

    @given(small_patterns(5))
    @settings(max_examples=30, deadline=None)
    def test_transitive_through_period_two(self, p):
        # every pattern of period >= 2 forces the period-2 swap
        assert forces(p, TWO)


class TestSpectrum:
    def test_period_two(self):
        assert orp_spectrum(TWO, 5) == frozenset({OrpPair(1, 2)})

    def test_three_cycle(self):
        got = orp_spectrum(THREE, 5)
        assert got == frozenset(
            {OrpPair(1, 2), OrpPair(1, 3), OrpPair(2, 4), OrpPair(2, 5)}
        )

    def test_divergent_pattern_forces_every_pair(self):
        got = orp_spectrum(Pattern((3, 1, 4, 2)), 6)
        everything = {
            OrpPair(p, q) for q in range(2, 7) for p in range(1, q // 2 + 1)
        }
        assert got == everything

    def test_spectrum_matches_its_descriptor(self):
        from overrot import OvrDescriptor, ovr

        # the period-3 spiral forces exactly the tail above 1/3 plus itself
        got = orp_spectrum(THREE, 6)
        assert got == ovr(OvrDescriptor.rational_tail(Fraction(1, 3), 1), 6)
        assert OrpPair(3, 6) in got  # pairs stay unreduced
        assert OrpPair(2, 6) not in got  # the doubled spiral is strictly stronger

    def test_spiral_five_spectrum(self):
        from overrot import OvrDescriptor, ovr

        got = orp_spectrum(stefan(5), 7)
        assert got == ovr(OvrDescriptor.rational_tail(Fraction(2, 5), 1), 7)

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            orp_spectrum(THREE, 1)

    @given(small_patterns(5))
    @settings(max_examples=30, deadline=None)
    def test_flip_invariant(self, p):
        assert orp_spectrum(p, 6) == orp_spectrum(flip(p), 6)


class TestTwist:
    def test_monotone_check(self):
        assert twist_monotone_check(THREE)
        assert twist_monotone_check(stefan(5))
        assert not twist_monotone_check(Pattern((2, 4, 5, 3, 1)))

    def test_monotone_check_rejects_divergent(self):
        with pytest.raises(DivergentPatternError):
            twist_monotone_check(Pattern((3, 1, 4, 2)))

    def test_verdicts(self):
        assert is_twist_bounded(THREE, 9) == TwistUpTo(9)
        assert is_twist_bounded(stefan(5), 9) == TwistUpTo(9)
        assert isinstance(is_twist_bounded(Pattern((3, 4, 2, 1)), 8), NotTwist)
        assert isinstance(is_twist_bounded(Pattern((3, 1, 4, 2)), 8), NotTwist)

    def test_default_cap_is_three_periods(self):
        assert is_twist_bounded(THREE) == TwistUpTo(9)
        assert is_twist_bounded(stefan(5)) == TwistUpTo(15)

    def test_rejects_period_one(self):
        with pytest.raises(PatternError):
            is_twist_bounded(Pattern((1,)))

    def test_rotation_patterns_are_twist(self):
        # the cyclic shift through 1..n advances every point one step
        for n in (4, 5, 6, 7):
            images = tuple(range(2, n + 1)) + (1,)
            assert isinstance(is_twist_bounded(Pattern(images)), TwistUpTo)


class TestInsertRotation:
    def test_three_cycle_insertion(self):
        orbit = insert_rotation(THREE)
        assert orbit.points == (
            Fraction(19, 15),
            Fraction(31, 15),
            Fraction(34, 15),
            Fraction(37, 15),
            Fraction(43, 15),
        )
        assert orbit.period == 5
        assert orbit.itinerary == ("J1", "Il", "Ir", "Il", "Ir")
        got = pattern_of_orbit(orbit)
        assert got == stefan(5)
        assert over_rotation_pair(got) == OrpPair(2, 5)

    def test_mirrored_insertion(self):
        # this pattern hits the right endpoint of the fixed-point interval
        # from the right, so the construction runs on its mirror
        p = Pattern((5, 4, 2, 1, 3))
        orbit = insert_rotation(p)
        assert orbit.period == 7
        got = pattern_of_orbit(orbit)
        assert over_rotation_pair(got) == OrpPair(3, 7)
        assert not is_doubling(got)
        f = orbit.carrier
        assert {f(x) for x in orbit.points} == set(orbit.points)

    def test_spiral_chain(self):
        orbit = insert_rotation(stefan(5))
        assert orbit.period == 7
        assert pattern_of_orbit(orbit) == stefan(7)

    def test_rejects_one_half(self):
        with pytest.raises(ValueError, match="1/2"):
            insert_rotation(TWO)

    def test_rejects_divergent(self):
        with pytest.raises(DivergentPatternError):
            insert_rotation(Pattern((3, 1, 4, 2)))

    def test_rejects_non_twist(self):
        with pytest.raises(ValueError, match="twist"):
            insert_rotation(Pattern((2, 4, 5, 3, 1)))

    def test_every_small_twist_pattern_inserts_cleanly(self):
        for n in range(2, 6):
            for p in enumerate_patterns(n):
                if not is_convergent(p):
                    continue
                if not isinstance(is_twist_bounded(p), TwistUpTo):
                    continue
                if over_rotation_number(p) >= Fraction(1, 2):
                    continue
                orbit = insert_rotation(p)
                got = pattern_of_orbit(orbit)
                pair = over_rotation_pair(p)
                assert orbit.period == n + 2
                assert over_rotation_pair(got) == OrpPair(pair.p + 1, n + 2)
                assert not is_doubling(got)


class TestOrbitType:
    def test_rejects_inconsistent_period(self):
        with pytest.raises(ValueError):
            Orbit(points=(Fraction(1), Fraction(2)), period=3, itinerary=("J1",), carrier=None)

    def test_rejects_unsorted_points(self):
        with pytest.raises(ValueError):
            Orbit(points=(Fraction(2), Fraction(1)), period=2, itinerary=("J1",), carrier=None)

    def test_equality_ignores_carrier(self):
        a = realize_loop(THREE, (1, 2))
        b = realize_loop(THREE, (1, 2))
        assert a == b
