"""Exact orbit realization, forcing queries, twist verdicts, insertion."""

import copy
import functools
import hashlib
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import overrot.forcing
import overrot.markov
from overrot import (
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
    fixed_point,
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
    p_linear,
    pattern_of_orbit,
    realize_loop,
    stefan,
)
from overrot.forcing import Degenerate, _iter_orbits, _twist_monotone
from overrot.markov import _compose, _covering_space, _labels, _realize
from overrot.patterns import _flip_images, _half_turns
from overrot.verify import enumerate_patterns

THREE = Pattern((2, 3, 1))
TWO = Pattern((2, 1))


def ranked_by_the_map(pattern: Pattern, points: tuple) -> Pattern:
    """The pattern of an orbit read off the map: the rank of each point's
    image under `p_linear`.  Orbits were ranked this way while they carried
    the map rather than their pattern; kept as the oracle."""
    f = p_linear(pattern)
    rank = {x: r for r, x in enumerate(points, 1)}
    return Pattern(tuple(rank[f(x)] for x in points))


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

    @pytest.mark.parametrize("loop", [5, None, 1.5], ids=repr)
    def test_rejects_a_loop_that_is_not_a_sequence(self, loop):
        with pytest.raises(LoopError, match="a loop is a sequence of intervals"):
            realize_loop(THREE, loop)

    @pytest.mark.parametrize("loop", [(1,), ()])
    def test_rejects_period_one_as_markov_graph_does(self, loop):
        # the period-1 pattern has no basic interval, so no covering graph
        with pytest.raises(PatternError, match="^covering graphs need period at least 2$"):
            realize_loop(Pattern((1,)), loop)

    def test_orbit_points_all_map_within_the_orbit(self):
        orbit = realize_loop(THREE, (1, 2, 2, 2))
        f = p_linear(THREE)
        assert {f(x) for x in orbit.points} == set(orbit.points)

    def test_derives_the_labels_once_per_call(self, monkeypatch):
        # one set of labels serves both the loop's check and the itinerary
        derived = []

        def counting(space):
            derived.append(space)
            return _labels(space)

        monkeypatch.setattr(overrot.forcing, "_labels", counting)
        monkeypatch.setattr(overrot.markov, "_labels", counting)
        loops = [(1, 2), (1, 2, 2, 2), ("J2",), (2, 2), (1, 2, 2, 1, 2, 2)]
        for loop in loops:
            realize_loop(THREE, loop)
        assert len(derived) == len(loops)


class TestCompose:
    """`_compose` and `_realize`, the kernel behind `realize_loop`, on the
    basic covering space."""

    def compose(self, pattern, loop):
        space = _covering_space(pattern.images, False)
        ids, prefixes = _compose(space, _labels(space), loop)
        return space, ids, prefixes

    def test_two_loop_composition(self):
        space, ids, prefixes = self.compose(THREE, (1, 2))
        assert prefixes[-1] == (-2, 5)
        assert (space.lows[ids[0]], space.highs[ids[0]]) == (1, 2)

    def test_four_loop_composition(self):
        _, _, prefixes = self.compose(THREE, (1, 2, 2, 2))
        assert prefixes[-1] == (-8, 13)

    def test_fixed_point_matches_realization(self):
        space, ids, prefixes = self.compose(THREE, (1, 2))
        d, nums = _realize(space, ids[0], prefixes)
        alpha, beta = prefixes[-1]
        x = Fraction(beta, 1 - alpha)
        assert Fraction(nums[0], d) == x
        assert x in realize_loop(THREE, (1, 2)).points

    def test_rejects_non_edges(self):
        with pytest.raises(LoopError, match="no edge"):
            self.compose(THREE, (1, 1))


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
        f = p_linear(pattern)
        assert {f(x) for x in result.points} == set(result.points)
        assert pattern_of_orbit(result) == ranked_by_the_map(pattern, result.points)
        assert len(result.points) == result.period
        space = _covering_space(pattern.images, False)
        ids, prefixes = _compose(space, _labels(space), walk)
        alpha, beta = prefixes[-1]
        lo, hi = space.lows[ids[0]], space.highs[ids[0]]
        assert any(lo <= x <= hi and alpha * x + beta == x for x in result.points)


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


CANONICAL_2_TO_5 = [p for n in range(2, 6) for p in enumerate_patterns(n)]


def every_closed_walk(pattern: Pattern, q: int):
    """Every closed length-q walk of the covering graph, all rotations."""
    graph = markov_graph(pattern)

    def extend(walk):
        if len(walk) == q:
            if walk[0] in graph.successors(walk[-1]):
                yield tuple(walk)
            return
        for u in graph.successors(walk[-1]):
            yield from extend(walk + [u])

    for v in range(1, graph.num_vertices + 1):
        yield from extend([v])


class TestSearchAgainstKernel:
    """The orbit search pinned against the public compose-and-realize path."""

    @pytest.mark.parametrize("pattern", CANONICAL_2_TO_5, ids=str)
    def test_forced_sets_are_the_patterns_of_realized_walks(self, pattern):
        for q in range(1, 7):
            expected = set()
            for walk in every_closed_walk(pattern, q):
                orbit = realize_loop(pattern, walk)
                if isinstance(orbit, Orbit) and orbit.period == q:
                    expected.add(canonical(pattern_of_orbit(orbit)))
            assert forced_patterns(pattern, q) == expected, f"period {q}"

    def test_crossing_target_search_finds_the_forced_patterns_of_that_count(self):
        for n in range(2, 7):
            for p in enumerate_patterns(n):
                if not is_convergent(p):
                    continue
                for q in range(2, 9):
                    forced = forced_patterns(p, q)
                    for target in range(1, q // 2 + 1):
                        found = {
                            min(images, _flip_images(images))
                            for images, _ in _iter_orbits(p.images, q, target)
                        }
                        expected = {
                            f.images for f in forced if over_rotation_pair(f).p == target
                        }
                        assert found == expected, (str(p), q, target)

    @pytest.mark.parametrize("pattern", CANONICAL_2_TO_5, ids=str)
    def test_spectrum_is_the_pairs_of_the_forced_sets(self, pattern):
        expected = {
            OrpPair(over_rotation_pair(f).p, q)
            for q in range(2, 9)
            for f in forced_patterns(pattern, q)
        }
        assert orp_spectrum(pattern, 8) == expected


CANONICAL_2_TO_6 = [p for n in range(2, 7) for p in enumerate_patterns(n)]


class TestClosingRows:
    """The closing rows that prune the walk search, against brute force, on
    the refined spaces of convergent and divergent patterns alike."""

    @pytest.mark.parametrize("pattern", CANONICAL_2_TO_6, ids=str)
    def test_rows_are_the_crossing_counts_of_closing_walks(self, pattern):
        depth = 8
        space = _covering_space(pattern.images, True)
        # the search fills every start vertex's rows up to the walk length
        list(_iter_orbits(pattern.images, depth, 0))
        for s in range(len(space.succ)):

            @functools.cache
            def closes(v, k, c):
                """Some k-edge walk v -> s through vertices >= s crosses c times."""
                if k == 0:
                    return v == s and c == 0
                return any(
                    closes(u, k - 1, c - (space.right[v] and not space.right[u]))
                    for u in space.succ[v]
                    if u >= s
                )

            rows = space.closing[s]
            for k in range(depth + 1):
                for v in range(len(space.succ)):
                    expected = sum(
                        1 << c for c in range(k + 1) if v >= s and closes(v, k, c)
                    )
                    assert rows[k][v] == expected, (s, k, v)


def spectrum_by_enumeration(images: tuple[int, ...], cap: int) -> frozenset:
    """The spectrum read off the exact-period orbits of the basic space, as
    the brute-force `orbit_stream` finds them: the oracle of the
    crossing-target search behind `orp_spectrum`.
    """
    return frozenset(
        OrpPair(_half_turns(orbit), q)
        for q in range(2, cap + 1)
        for orbit, _ in orbit_stream(images, q, None)
    )


class TestRefinedCrossings:
    """Crossings of the refined space count half-turns, divergent patterns
    included, so targeted searches decide spectra."""

    def test_every_targeted_orbit_has_the_target_half_turns(self):
        yielded = 0
        for p in (p for p in CANONICAL_2_TO_6 if p.period >= 3):
            for q in range(2, 9):
                for target in range(1, q // 2 + 1):
                    for orbit, _ in _iter_orbits(p.images, q, target):
                        assert _half_turns(orbit) == target, (str(p), orbit)
                        yielded += 1
        # one orbit per canonical walk; the count keeps the check from
        # passing on a search that yields nothing
        assert yielded == 50126

    def test_spectrum_equals_the_enumeration_oracle(self):
        for p in CANONICAL_2_TO_6:
            assert orp_spectrum(p, 8) == spectrum_by_enumeration(p.images, 8), str(p)


def orbit_stream(images: tuple[int, ...], q: int, target: int | None) -> list:
    """`_iter_orbits` by brute force, without closing rows or its DFS.

    From each start s, ascending, every closed length-q walk through the
    vertices >= s in lexicographic order; a walk is kept when it is the least
    of its rotations and makes the goal's number of falling-to-rising
    crossings, realized through `_compose` and `_realize`, and its orbit
    ranked when it has q distinct points, next to the walk.  Without a
    target it walks the basic space, which never crosses: every orbit of
    period q, the oracle of the union of the targeted searches.
    """
    space = _covering_space(images, target is not None)
    goal = target or 0
    # the basic space has no falling flags: it never crosses
    succ, right = space.succ, space.right or [False] * len(space.succ)
    labels = _labels(space)
    out = []

    def extend(walk, s):
        if len(walk) == q:
            if s in succ[walk[-1]]:
                yield walk
            return
        for u in succ[walk[-1]]:
            if u >= s:
                yield from extend(walk + [u], s)

    for s in range(len(succ)):
        for walk in extend([s], s):
            if walk != min(walk[i:] + walk[:i] for i in range(q)):
                continue
            steps = zip(walk, walk[1:] + walk[:1])
            if sum(right[v] and not right[u] for v, u in steps) != goal:
                continue
            _, prefixes = _compose(space, labels, [labels[v] for v in walk])
            res = _realize(space, s, prefixes)
            if res is None or len(set(res[1])) != q:
                continue
            nums = res[1]
            rank = {x: r for r, x in enumerate(sorted(nums), 1)}
            orbit = [0] * q
            for k in range(q):
                orbit[rank[nums[k]] - 1] = rank[nums[(k + 1) % q]]
            out.append((tuple(orbit), tuple(walk)))
    return out


class TestOrbitStream:
    """The search's stream itself, order and repeats included, against brute
    force: the closing rows and the DFS may prune, never add, drop or
    reorder an orbit, and each orbit comes with the walk that realized it.
    Over the targets 1..q // 2 the streams hold every orbit of the basic
    space."""

    @pytest.mark.parametrize("pattern", CANONICAL_2_TO_6, ids=str)
    def test_stream_is_the_brute_force_stream(self, pattern):
        for q in range(1, 8):
            union = set()
            for target in range(q // 2 + 1):
                got = list(_iter_orbits(pattern.images, q, target))
                assert got == orbit_stream(pattern.images, q, target), (q, target)
                union.update(orbit for orbit, _ in got)
            # period 1 is the fixed point, which no query searches for
            if q > 1:
                basic = orbit_stream(pattern.images, q, None)
                assert union == {orbit for orbit, _ in basic}, q


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

    def test_is_membership_in_the_forced_set(self):
        # forces walks b's own half-turn count only; forced_patterns chains
        # every target of b's period
        answers = []
        for a in CANONICAL_2_TO_6:
            forced = set().union(*(forced_patterns(a, q) for q in range(1, 7)))
            for b in [Pattern((1,)), *CANONICAL_2_TO_6]:
                answers.append(forces(a, b))
                assert answers[-1] == (b in forced), (str(a), str(b))
        assert (len(answers), sum(answers)) == (6806, 1580)

    @given(small_patterns(6))
    @settings(max_examples=40, deadline=None)
    def test_reflexive(self, p):
        assert forces(p, p)

    @given(small_patterns(5))
    @settings(max_examples=30, deadline=None)
    def test_transitive_through_period_two(self, p):
        # every pattern of period >= 2 forces the period-2 swap
        assert forces(p, TWO)


DIVERGENT_SIX = Pattern((3, 5, 2, 6, 4, 1))

SEARCHES = {
    "forced_patterns": lambda: forced_patterns(DIVERGENT_SIX, 6),
    "forces": lambda: [forces(DIVERGENT_SIX, b) for b in CANONICAL_2_TO_6],
    "orp_spectrum": lambda: orp_spectrum(DIVERGENT_SIX, 8),
    "is_twist_bounded": lambda: is_twist_bounded(THREE),
    "insert_rotation": lambda: insert_rotation(THREE),
}


class TestOneSearchMode:
    """Every search walks the refined space at a crossing target; the basic
    space is looked up only to realize a loop given over it."""

    def spaces_looked_up(self, monkeypatch, query) -> list:
        kinds = []

        def recording(images, refined):
            kinds.append(refined)
            return _covering_space(images, refined)

        overrot.forcing._twist_cached.cache_clear()
        monkeypatch.setattr(overrot.forcing, "_covering_space", recording)
        monkeypatch.setattr(overrot.markov, "_covering_space", recording)
        query()
        return kinds

    @pytest.mark.parametrize("query", SEARCHES.values(), ids=SEARCHES.keys())
    def test_searches_look_up_only_refined_spaces(self, monkeypatch, query):
        kinds = self.spaces_looked_up(monkeypatch, query)
        assert kinds and all(kind is True for kind in kinds)

    def test_realize_loop_looks_up_the_basic_space(self, monkeypatch):
        query = lambda: realize_loop(TWO, (1, 1))
        assert self.spaces_looked_up(monkeypatch, query) == [False]

    def test_convergent_refined_spaces_have_no_closed_walk_of_length_one(self):
        # the split interval of a convergent pattern falls, so its fixed
        # point is answered without a search
        convergent = [p for p in CANONICAL_2_TO_6 if is_convergent(p)]
        assert len(convergent) == 46
        for p in convergent:
            assert list(_iter_orbits(p.images, 1, 0)) == [], str(p)
            assert forced_patterns(p, 1) == frozenset({Pattern((1,))}), str(p)


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

    def test_spectrum_is_the_tail_above_the_spiral(self):
        # the period-3 spiral forces exactly the tail above 1/3 plus itself
        got = orp_spectrum(THREE, 6)
        assert got == frozenset(
            {OrpPair(1, 2), OrpPair(1, 3), OrpPair(2, 4), OrpPair(2, 5), OrpPair(3, 6)}
        )
        assert OrpPair(3, 6) in got  # pairs stay unreduced
        assert OrpPair(2, 6) not in got  # the doubled spiral is strictly stronger

    def test_spiral_five_spectrum(self):
        got = orp_spectrum(stefan(5), 7)
        assert got == frozenset(
            {OrpPair(1, 2), OrpPair(2, 4), OrpPair(2, 5), OrpPair(3, 6), OrpPair(3, 7)}
        )

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            orp_spectrum(THREE, 1)

    @given(small_patterns(5))
    @settings(max_examples=30, deadline=None)
    def test_flip_invariant(self, p):
        assert orp_spectrum(p, 6) == orp_spectrum(flip(p), 6)


class TestTwist:
    def test_monotone_check(self):
        assert _twist_monotone(THREE)
        assert _twist_monotone(stefan(5))
        assert not _twist_monotone(Pattern((2, 4, 5, 3, 1)))

    def test_monotone_check_rejects_divergent(self):
        with pytest.raises(DivergentPatternError):
            _twist_monotone(Pattern((3, 1, 4, 2)))

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

    @pytest.mark.parametrize("cap", [1, 0, -5])
    def test_rejects_caps_below_two(self, cap):
        with pytest.raises(ValueError, match="cap must be at least 2"):
            is_twist_bounded(THREE, cap)
        with pytest.raises(ValueError, match="cap must be at least 2"):
            insert_rotation(THREE, cap)

    def test_caps_below_the_denominator_are_rejected(self):
        # rho = 1/3, so competitors have periods 3, 6, ...; at cap 2 the
        # search would be empty and the verdict vacuous
        p = Pattern((2, 4, 6, 5, 3, 1))
        with pytest.raises(ValueError, match="cap 2 is below 3"):
            is_twist_bounded(p, 2)
        assert is_twist_bounded(p, 3) == NotTwist()
        with pytest.raises(ValueError, match="cap 2 is below 3"):
            insert_rotation(p, 2)

    def test_rotation_patterns_are_twist(self):
        # the cyclic shift through 1..n advances every point one step
        for n in (4, 5, 6, 7):
            images = tuple(range(2, n + 1)) + (1,)
            assert isinstance(is_twist_bounded(Pattern(images)), TwistUpTo)

    def test_monotone_check_agrees_with_the_fraction_oracle(self):
        for n in range(2, 9):
            for canon in enumerate_patterns(n):
                for p in (canon, flip(canon)):
                    if is_convergent(p):
                        assert _twist_monotone(p) == monotone_by_fractions(p), str(p)


def monotone_by_fractions(pattern: Pattern) -> bool:
    """The monotonicity condition compared on `Fraction` distances to the
    fixed point; the oracle of `_twist_monotone`."""
    a, _ = fixed_point(pattern)
    n = pattern.period
    for u in range(1, n + 1):
        fu = pattern.image(u)
        for v in range(1, n + 1):
            if u == v:
                continue
            if (u < a) != (v < a):
                continue
            fv = pattern.image(v)
            if (fu < a) != (fv < a):
                continue
            if abs(u - a) > abs(v - a) and not (abs(fu - a) > abs(fv - a)):
                return False
    return True


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
        f = p_linear(p)
        assert {f(x) for x in orbit.points} == set(orbit.points)

    def test_mirror_case_is_the_mirror_of_the_flip(self):
        # patterns whose fixed-point interval is not hit at its left endpoint
        # from the left build the mirror construction on themselves; it must
        # agree point by point with the direct construction on the flip
        mirrored = []
        for n in range(2, 7):
            for canon in enumerate_patterns(n):
                for p in {canon, flip(canon)}:
                    if not is_convergent(p) or over_rotation_number(p) >= Fraction(1, 2):
                        continue
                    if not isinstance(is_twist_bounded(p), TwistUpTo):
                        continue
                    a, split = fixed_point(p)
                    if p.images.index(split) + 1 < a:
                        continue
                    mirrored.append(str(p))
                    orbit = insert_rotation(p)
                    other = insert_rotation(flip(p))
                    assert orbit.points == tuple(n + 1 - x for x in reversed(other.points))
                    swap = {"Il": "Ir", "Ir": "Il"}
                    swap.update({f"J{i}": f"J{n - i}" for i in range(1, n)})
                    assert orbit.itinerary == tuple(swap[label] for label in other.itinerary)
        assert sorted(mirrored) == ["3 1 2", "4 1 2 3", "5 1 2 3 4", "5 4 2 1 3", "6 1 2 3 4 5"]

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
            Orbit(points=(Fraction(1), Fraction(2)), period=3, itinerary=("J1",), pattern=None)

    def test_rejects_unsorted_points(self):
        with pytest.raises(ValueError):
            Orbit(points=(Fraction(2), Fraction(1)), period=2, itinerary=("J1",), pattern=None)

    @pytest.mark.parametrize("pattern", [None, (2, 1), THREE], ids=repr)
    def test_rejects_a_pattern_that_is_not_one_of_the_orbits_period(self, pattern):
        with pytest.raises(ValueError, match="pattern must be a Pattern"):
            Orbit(points=(Fraction(1), Fraction(2)), period=2, itinerary=("J1",), pattern=pattern)

    def test_equality_ignores_pattern(self):
        a = realize_loop(THREE, (1, 2))
        b = realize_loop(THREE, (1, 2))
        assert a == b
        assert a == Orbit(a.points, a.period, a.itinerary, Pattern((2, 1)))

    def test_equality_and_hash_are_over_points_period_and_itinerary(self):
        a = realize_loop(THREE, (1, 2))
        assert a.pattern is not realize_loop(THREE, (1, 2)).pattern
        assert hash(a) == hash((a.points, a.period, a.itinerary))
        assert a != (a.points, a.period, a.itinerary)
        assert a != realize_loop(THREE, (2, 1))

    def test_repr_leaves_out_the_pattern(self):
        assert repr(realize_loop(THREE, (1, 2))) == (
            "Orbit(points=(Fraction(5, 3), Fraction(8, 3)), period=2, "
            "itinerary=('J1', 'J2'))"
        )

    def test_fields_cannot_be_assigned_or_deleted(self):
        orbit = realize_loop(THREE, (1, 2))
        for name in ("points", "period", "itinerary", "pattern"):
            with pytest.raises(AttributeError):
                setattr(orbit, name, None)
            with pytest.raises(AttributeError):
                delattr(orbit, name)
        assert orbit.period == 2

    @pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda o: pickle.loads(pickle.dumps(o))])
    def test_pickle_and_deepcopy_round_trip(self, round_trip):
        orbit = insert_rotation(Pattern((2, 3, 1)))
        back = round_trip(orbit)
        assert type(back) is Orbit
        assert back == orbit and repr(back) == repr(orbit)
        # the pattern comes along, so the copy still gives it
        assert pattern_of_orbit(back) == pattern_of_orbit(orbit)


def follows_its_itinerary(pattern: Pattern, orbit: Orbit) -> bool:
    """True when a point of the orbit visits the intervals of the orbit's
    itinerary in turn under `p_linear` and comes back to itself."""
    f = p_linear(pattern)
    bounds = {f"J{i}": (i, i + 1) for i in range(1, pattern.period)}
    if is_convergent(pattern):
        a, i = fixed_point(pattern)
        bounds.update(Il=(i, a), Ir=(a, i + 1))
    for x in orbit.points:
        y = x
        for label in orbit.itinerary:
            lo, hi = bounds[label]
            if not lo <= y <= hi:
                break
            y = f(y)
        else:
            if y == x:
                return True
    return False


def realization_lines():
    """One line per output of `fixed_point` and `insert_rotation` on every
    canonical pattern of period 2..8 and its flip, and of `realize_loop` on
    every closed walk of length 1..4 of those of period 2..6, an orbit's line
    with its `pattern_of_orbit`.  Each output is checked on the way against
    the map evaluated from its definition: the fixed point is fixed and
    inside its interval, an orbit follows its itinerary, and its pattern is
    the one the map ranks."""
    for n in range(2, 9):
        for canon in enumerate_patterns(n):
            for p in (canon, flip(canon)):
                if not is_convergent(p):
                    continue
                a, i = fixed_point(p)
                assert i < a < i + 1 and p_linear(p)(a) == a, str(p)
                yield f"{p}: {a} in J{i}"
                try:
                    orbit = insert_rotation(p)
                except ValueError as exc:
                    yield f"{p}: {type(exc).__name__}"
                    continue
                assert follows_its_itinerary(p, orbit), str(p)
                assert pattern_of_orbit(orbit) == ranked_by_the_map(p, orbit.points), str(p)
                yield f"{p}: {orbit!r} {pattern_of_orbit(orbit)}"
    for n in range(2, 7):
        for canon in enumerate_patterns(n):
            for p in (canon, flip(canon)):
                for q in range(1, 5):
                    for walk in every_closed_walk(p, q):
                        orbit = realize_loop(p, walk)
                        if isinstance(orbit, Orbit):
                            assert follows_its_itinerary(p, orbit), (str(p), walk)
                            got = pattern_of_orbit(orbit)
                            assert got == ranked_by_the_map(p, orbit.points), (str(p), walk)
                            yield f"{p} {walk}: {orbit!r} {got}"
                        else:
                            yield f"{p} {walk}: {orbit!r}"


class TestOneModelOfTheMap:
    """Fixed points and orbit patterns are read off the covering space alone.
    The outputs agree with the map evaluated from its definition, and they
    hash to what they hashed to while a second model of the map
    (`PLinearMap`) placed the fixed point and ranked each orbit."""

    def test_outputs_match_the_map_and_the_digest_of_the_second_model(self):
        digest = hashlib.sha256()
        lines = 0
        for line in realization_lines():
            digest.update(line.encode() + b"\n")
            lines += 1
        assert (lines, digest.hexdigest()) == (
            15390,
            "8ca5527d06b5e523fe2e7a41ac80f82bbb948b1507b0dd87c498fe9c3f5c61cd",
        )
