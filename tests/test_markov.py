"""Pattern-linear maps, covering graphs, and the fundamental loop."""

import itertools
from fractions import Fraction

import pytest

import overrot.forcing
import overrot.verify
from overrot import (
    DivergentPatternError,
    Pattern,
    PatternError,
    fixed_point,
    flip,
    fundamental_loop_pprime,
    insert_rotation,
    is_convergent,
    is_twist_bounded,
    markov_graph,
    orp_spectrum,
    p_linear,
    pattern_of_orbit,
    realize_loop,
    stefan,
)
from overrot.forcing import _realize_orbit
from overrot.markov import DegenerateRealizationError, _covering_space, _labels, _realize
from overrot.verify import enumerate_patterns, nd_nbs


def split_points(images):
    """The refined space's split points, its only `Fraction`s: the fixed
    points of the map."""
    return [lo for lo in _covering_space(images, True).lows if type(lo) is not int]


class TestPLinearMap:
    def test_interpolates_the_pattern(self):
        p = Pattern((2, 3, 1))
        f = p_linear(p)
        assert [f(i) for i in (1, 2, 3)] == [2, 3, 1]

    def test_evaluates_between_points(self):
        f = p_linear(Pattern((2, 3, 1)))
        assert f(Fraction(3, 2)) == Fraction(5, 2)
        assert f(Fraction(5, 2)) == 2

    def test_rejects_points_outside_the_domain(self):
        f = p_linear(Pattern((2, 1)))
        with pytest.raises(ValueError):
            f(0)
        with pytest.raises(ValueError):
            f(5)

    @pytest.mark.parametrize("bad", [1.5, True, "2", None], ids=repr)
    def test_rejects_points_that_are_not_ints_or_fractions(self, bad):
        # a float would leave exact arithmetic, and a bool is not taken for 1
        for images in ((2, 3, 1), (1,)):
            with pytest.raises(ValueError, match="ints or Fractions"):
                p_linear(Pattern(images))(bad)

    def test_fixed_points(self):
        # the map fixes the refined space's split points
        assert split_points((2, 3, 1)) == [Fraction(7, 3)]
        # divergent: one in each of J1, J2 and J3
        points = [Fraction(5, 3), Fraction(5, 2), Fraction(10, 3)]
        assert split_points((3, 1, 4, 2)) == points
        f = p_linear(Pattern((3, 1, 4, 2)))
        assert [f(a) for a in points] == points

    def test_fixed_point_of_degenerate_period_one(self):
        f = p_linear(Pattern((1,)))
        assert f(1) == 1 and type(f(1)) is Fraction


class TestMarkovGraph:
    def test_three_cycle(self):
        g = markov_graph(Pattern((2, 3, 1)))
        assert g.num_vertices == 2
        assert g.successors(1) == (2,)
        assert g.successors(2) == (1, 2)

    def test_period_two(self):
        g = markov_graph(Pattern((2, 1)))
        assert g.num_vertices == 1
        assert 1 in g.successors(1)

    def test_rejects_period_one(self):
        with pytest.raises(PatternError):
            markov_graph(Pattern((1,)))

    def test_flip_reverses_vertex_labels(self):
        for images in ((2, 3, 1), (3, 5, 4, 2, 1), (4, 3, 5, 6, 1, 2)):
            p = Pattern(images)
            n = p.period
            g = markov_graph(p)
            h = markov_graph(flip(p))
            for i in range(1, n):
                for k in range(1, n):
                    assert (k in g.successors(i)) == (n - k in h.successors(n - i))

    @pytest.mark.parametrize("period", range(2, 9))
    def test_edges_are_the_intervals_each_image_spans(self, period):
        # the definition: J_i -> J_k when the image of J_i, the interval
        # between pi(i) and pi(i+1), contains J_k = [k, k+1]
        for canon in enumerate_patterns(period):
            for p in (canon, flip(canon)):
                g = markov_graph(p)
                assert g.num_vertices == period - 1
                for i in range(1, period):
                    lo, hi = sorted(p.images[i - 1 : i + 1])
                    spanned = tuple(k for k in range(1, period) if lo <= k and k + 1 <= hi)
                    assert g.successors(i) == spanned, (str(p), i)

    @pytest.mark.parametrize("images", [(2, 3, 1), (3, 5, 4, 2, 1)])
    def test_rejects_vertices_outside_one_to_n(self, images):
        g = markov_graph(Pattern(images))
        n = g.num_vertices
        for bad in (0, -1, n + 1, True, 1.0, "1", None):
            with pytest.raises(ValueError, match="vertices run"):
                g.successors(bad)
        assert [g.successors(i) for i in range(1, n + 1)] == list(g.succ)

    def test_every_vertex_has_a_successor(self):
        for n in range(2, 7):
            for p in enumerate_patterns(n):
                g = markov_graph(p)
                for i in range(1, g.num_vertices + 1):
                    assert g.successors(i)


class TestFixedPoint:
    def test_examples(self):
        assert fixed_point(Pattern((2, 3, 1))) == (Fraction(7, 3), 2)
        assert fixed_point(Pattern((2, 1))) == (Fraction(3, 2), 1)
        assert fixed_point(stefan(5)) == (Fraction(10, 3), 3)
        assert fixed_point(stefan(7)) == (Fraction(13, 3), 4)

    def test_divergent_pattern_has_no_distinguished_fixed_point(self):
        with pytest.raises(DivergentPatternError):
            fixed_point(Pattern((3, 1, 4, 2)))

    def test_fixed_point_is_interior_and_fixed(self):
        for n in range(2, 7):
            for p in enumerate_patterns(n):
                try:
                    a, i = fixed_point(p)
                except DivergentPatternError:
                    continue
                assert i < a < i + 1
                assert p_linear(p)(a) == a


class TestRefinedSpace:
    def test_splits_at_every_fixed_point_and_marks_the_falling_halves(self):
        for n in range(2, 8):
            for p in enumerate_patterns(n):
                f = p_linear(p)
                space = _covering_space(p.images, True)
                ends = set(space.lows) | set(space.highs)
                assert ends == set(range(1, n + 1)) | set(root_scan(p.images))
                for lo, hi, right in zip(space.lows, space.highs, space.right):
                    x = (Fraction(lo) + Fraction(hi)) / 2
                    assert right == (f(x) < x), (str(p), lo, hi)
                basic = _covering_space(p.images, False)
                assert basic.right is None and basic.closing is None
                labels = _labels(space)
                assert len(set(labels)) == len(labels)
                split = [label for label in labels if not label[1:].isdigit()]
                if is_convergent(p):
                    assert split == ["Il", "Ir"], str(p)
                else:
                    assert len(split) == 2 * len(root_scan(p.images)), str(p)

    def test_divergent_labels(self):
        # 3 1 4 2 has fixed points 5/3 in J1, 5/2 in J2 and 10/3 in J3; the
        # map falls through 5/3 and 10/3 and rises through 5/2
        space = _covering_space((3, 1, 4, 2), True)
        assert _labels(space) == ["J1l", "J1r", "J2l", "J2r", "J3l", "J3r"]
        assert space.right == [False, True, True, False, False, True]


def root_scan(images):
    """The fixed points of a pattern's map, each piece solved for its root in
    Fraction arithmetic and the roots inside their interval kept: the oracle
    of the sign rule, for periods >= 2."""
    out = []
    for i in range(1, len(images)):
        m = images[i] - images[i - 1]
        if m == 1:
            continue
        a = Fraction(images[i - 1] - m * i, 1 - m)
        if i <= a <= i + 1 and (not out or out[-1] != a):
            out.append(a)
    return out


class TestSignRule:
    """The refined space splits at one fixed point in each J_i whose ends the
    map moves in opposite directions; it finds what the root scan finds."""

    @pytest.mark.parametrize("period", range(2, 10))
    def test_matches_the_root_scan(self, period):
        for canon in enumerate_patterns(period):
            for p in (canon, flip(canon)):
                got = split_points(p.images)
                assert got == root_scan(p.images), str(p)
                assert all(type(a) is Fraction for a in got), str(p)


def fraction_space(images, refined):
    """The covering space built in Fraction arithmetic, the integer builder's
    test oracle: the fixed points come from the root scan, and a vertex
    covers every vertex inside the image of its ends.  Returns the fields of
    `_Space` but closing, as lists, each succ[v] as a tuple, and the labels
    `_labels` derives."""
    points = root_scan(images) if refined else []
    splits = {int(a): a for a in points}
    bounds, labels, pieces = [], [], []
    for i in range(1, len(images)):
        # the piece through (i, pi(i)) and (i + 1, pi(i + 1))
        m = images[i] - images[i - 1]
        piece = (m, images[i - 1] - m * i)
        if i in splits:
            a = splits[i]
            bounds += [(i, a), (a, i + 1)]
            labels += ["Il", "Ir"] if len(points) == 1 else [f"J{i}l", f"J{i}r"]
            pieces += [piece] * 2
        else:
            bounds.append((i, i + 1))
            labels.append(f"J{i}")
            pieces.append(piece)
    succ = []
    for (lo, hi), (m, c) in zip(bounds, pieces):
        img_lo, img_hi = sorted((m * lo + c, m * hi + c))
        succ.append(
            tuple(u for u, (ul, uh) in enumerate(bounds) if img_lo <= ul and uh <= img_hi)
        )
    return {
        "lows": [lo for lo, _ in bounds],
        "highs": [hi for _, hi in bounds],
        "slopes": [m for m, _ in pieces],
        "offsets": [c for _, c in pieces],
        "succ": succ,
        "labels": labels,
        # the displacement m x + c - x at the midpoint, doubled; the basic
        # space, which no search walks, has none
        "right": [
            (m - 1) * (lo + hi) + 2 * c < 0 for (lo, hi), (m, c) in zip(bounds, pieces)
        ]
        if refined
        else None,
    }


class TestIntegerSpace:
    """`_covering_space` builds on integers what the Fraction oracle builds,
    field for field and type for type, for every pattern and its flip."""

    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("period", range(2, 9))
    def test_matches_the_fraction_builder(self, period, refined):
        for p in enumerate_patterns(period):
            for images in (p.images, flip(p).images):
                space = _covering_space(images, refined)
                expected = fraction_space(images, refined)
                got = space._asdict()
                got["succ"] = [tuple(run) for run in space.succ]
                got["labels"] = _labels(space)
                assert {name: got[name] for name in expected} == expected, images
                for name in ("lows", "highs"):
                    types = [type(x) for x in getattr(space, name)]
                    assert types == [type(x) for x in expected[name]], (images, name)
                assert all(type(run) is range for run in space.succ), images
                if refined:
                    assert all(type(x) is bool for x in space.right), images
                    assert space.closing == [None] * len(space.succ)
                else:
                    assert space.closing is None


def tuple_space(images, refined):
    """The covering space as the integer builder built it before its fields
    became lists filled in one pass: every field a tuple built by a
    generator pass, succ[v] a tuple, and the labels stored.  The one-pass
    builder's differential oracle."""
    n = len(images)
    rising = [images[x - 1] > x for x in range(1, n + 1)]
    split = [refined and up != rise for up, rise in zip(rising, rising[1:])]
    at = [x + k for x, k in enumerate(itertools.accumulate(split, initial=0))]
    bounds, labels, right, runs, pieces = [], [], [], [], []
    for i in range(1, n):
        y, z = images[i - 1], images[i]
        m = z - y
        if split[i - 1]:
            a, v = Fraction(y - m * i, 1 - m), at[i - 1] + 1
            bounds += [(i, a), (a, i + 1)]
            labels += ["Il", "Ir"] if sum(split) == 1 else [f"J{i}l", f"J{i}r"]
            right += [not rising[i - 1], not rising[i]]
            runs += [(at[y - 1], v), (v, at[z - 1])]
            pieces += [(m, y - m * i)] * 2
        else:
            bounds.append((i, i + 1))
            labels.append(f"J{i}")
            right.append(refined and not rising[i - 1])
            runs.append((at[y - 1], at[z - 1]))
            pieces.append((m, y - m * i))
    return {
        "lows": tuple(lo for lo, _ in bounds),
        "highs": tuple(hi for _, hi in bounds),
        "slopes": tuple(m for m, _ in pieces),
        "offsets": tuple(c for _, c in pieces),
        "succ": tuple(tuple(range(min(run), max(run))) for run in runs),
        "labels": tuple(labels),
        "right": tuple(right),
    }


class TestOnePassSpace:
    """The one-pass builder against the tuple builder it replaced, on every
    canonical pattern and its flip: the same values, and in the basic space
    no walk-search fields where the old one had all-False flags."""

    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("period", range(2, 10))
    def test_matches_the_tuple_builder(self, period, refined):
        build = _covering_space.__wrapped__
        for p in enumerate_patterns(period):
            for images in (p.images, flip(p).images):
                space, old = build(images, refined), tuple_space(images, refined)
                for name in ("lows", "highs", "slopes", "offsets"):
                    assert tuple(getattr(space, name)) == old[name], (images, name)
                assert tuple(map(tuple, space.succ)) == old["succ"], images
                assert tuple(_labels(space)) == old["labels"], images
                if refined:
                    assert tuple(space.right) == old["right"], images
                else:
                    assert space.right is None and not any(old["right"]), images


def germ_image(p, point, side):
    """The image of the germ of a point from one side: the image point, the
    side kept by a rising piece and swapped by a falling one."""
    i = point if side == "R" else point - 1
    if p.images[i] < p.images[i - 1]:
        side = "L" if side == "R" else "R"
    return p.images[point - 1], side


def germ_orbit(p):
    """The germ orbit of (1, R) over one period, a test oracle: each germ with
    the basic interval J_i holding its one-sided neighborhood."""
    out, germ = [], (1, "R")
    for _ in range(p.period):
        point, side = germ
        out.append((point, side, point if side == "R" else point - 1))
        germ = germ_image(p, point, side)
    return out


class TestRefinedLoop:
    def test_examples(self):
        assert fundamental_loop_pprime(Pattern((2, 3, 1))) == ("J1", "Il", "Ir")
        assert fundamental_loop_pprime(Pattern((2, 1))) == ("Il", "Ir")
        assert fundamental_loop_pprime(stefan(5)) == ("J1", "Il", "Ir", "J2", "J4")

    def test_divergent_is_rejected(self):
        with pytest.raises(DivergentPatternError):
            fundamental_loop_pprime(Pattern((3, 1, 4, 2)))

    def test_the_germ_oracle_on_the_three_cycle(self):
        p = Pattern((2, 3, 1))
        assert germ_orbit(p) == [(1, "R", 1), (2, "R", 2), (3, "L", 2)]
        assert germ_image(p, 3, "L") == (1, "R")

    def test_labels_agree_with_the_germs_position_against_the_fixed_point(self):
        # oracle: a germ in the split interval is labelled by which side of
        # the fixed point its point lies on
        def oracle(p):
            a, split = fixed_point(p)
            return tuple(
                f"J{i}" if i != split else ("Il" if point < a else "Ir")
                for point, _, i in germ_orbit(p)
            )

        for n in range(2, 9):
            for canon in enumerate_patterns(n):
                for p in (canon, flip(canon)):
                    if is_convergent(p):
                        assert fundamental_loop_pprime(p) == oracle(p), str(p)

    @pytest.mark.parametrize("period", range(2, 9))
    def test_realizing_the_loop_gives_back_the_pattern(self, period):
        # the loop is the itinerary of the pattern's own orbit, 1 first
        for canon in enumerate_patterns(period):
            for p in (canon, flip(canon)):
                if is_convergent(p):
                    loop = fundamental_loop_pprime(p)
                    orbit = _realize_orbit(_covering_space(p.images, True), loop)
                    assert orbit.itinerary == loop, str(p)
                    assert pattern_of_orbit(orbit) == p, str(p)

    def test_germs_pointing_at_the_fixed_point_stay_pointed_at_it(self):
        # for spiral patterns the germ toward the fixed point maps to a germ
        # toward the fixed point: onesided orbits spiral around it
        for n in (3, 5, 7):
            p = stefan(n)
            a, _ = fixed_point(p)
            for point in range(1, n + 1):
                for side in ("L", "R"):
                    toward = (side == "R") == (point < a)
                    if not toward:
                        continue
                    image, image_side = germ_image(p, point, side)
                    assert (image_side == "R") == (image < a)


def _prefixes(space, ids):
    """The prefix compositions (slope, offset) of the pieces along ids."""
    out = [(1, 0)]
    for v in ids:
        a, b = out[-1]
        out.append((space.slopes[v] * a, space.slopes[v] * b + space.offsets[v]))
    return out


def reference_realization(space, s, prefixes):
    """The realization in Fraction arithmetic, the kernel's test oracle.

    For a composition x -> alpha x + beta with alpha != 1 the periodic point
    is x = beta / (1 - alpha), and the orbit is a_t x + b_t over the prefix
    compositions (a_t, b_t); "escaped" when x leaves the start interval.  A
    translation gives None.  For the identity, time-slices a_t x + b_t may
    agree and collapse the period, so points between consecutive cut points,
    where two slices agree, are probed for a full-period one after the point
    a third of the way in.
    """
    lo, hi = Fraction(space.lows[s]), Fraction(space.highs[s])
    steps = prefixes[:-1]
    alpha, beta = prefixes[-1]
    if alpha != 1:
        x = Fraction(beta, 1 - alpha)
        if not lo <= x <= hi:
            return "escaped"
        return [a * x + b for a, b in steps]
    if beta != 0:
        return None
    cuts = {lo, hi}
    for i, (a1, b1) in enumerate(steps):
        for a2, b2 in steps[i + 1 :]:
            if a1 != a2:
                w = Fraction(b2 - b1, a1 - a2)
                if lo < w < hi:
                    cuts.add(w)
    ordered = sorted(cuts)
    probes = [(2 * lo + hi) / 3] + [(u + v) / 2 for u, v in zip(ordered, ordered[1:])]
    orbits = [[a * x + b for a, b in steps] for x in probes]
    return next((pts for pts in orbits if len(set(pts)) == len(steps)), orbits[0])


def closed_walks(space, max_len):
    """Every closed walk of at most max_len edges, from every start vertex."""
    for s in range(len(space.succ)):
        stack = [[s]]
        while stack:
            walk = stack.pop()
            if s in space.succ[walk[-1]]:
                yield walk
            if len(walk) < max_len:
                stack.extend(walk + [u] for u in space.succ[walk[-1]])


def check_kernel(space, s, prefixes):
    """The kernel against the reference on one composition; returns the
    reference's verdict."""
    expected = reference_realization(space, s, prefixes)
    if expected == "escaped":
        with pytest.raises(DegenerateRealizationError):
            _realize(space, s, prefixes)
        return expected
    res = _realize(space, s, prefixes)
    if expected is None:
        assert res is None
        return "translation"
    d, nums = res
    assert type(d) is int and d > 0
    assert all(type(n) is int for n in nums)
    assert [Fraction(n, d) for n in nums] == expected
    return "identity" if prefixes[-1] == (1, 0) else "affine"


KERNEL_PATTERNS = [p for n in range(2, 6) for p in enumerate_patterns(n)]


class TestIntegerKernel:
    """`_realize` returns integer numerators over a positive denominator;
    divided out, they are the points of the Fraction formula."""

    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("pattern", KERNEL_PATTERNS, ids=str)
    def test_matches_the_fraction_formula_on_every_closed_walk(self, pattern, refined):
        space = _covering_space(pattern.images, refined)
        seen = set()
        for walk in closed_walks(space, 7):
            seen.add(check_kernel(space, walk[0], _prefixes(space, walk)))
        # a covering walk is never a translation, and its point never escapes
        assert seen and seen <= {"affine", "identity"}

    @pytest.mark.parametrize("refined", [False, True])
    def test_identity_walks_are_among_those_checked(self, refined):
        space = _covering_space((2, 1), refined)
        seen = {check_kernel(space, w[0], _prefixes(space, w)) for w in closed_walks(space, 7)}
        assert "identity" in seen

    @pytest.mark.parametrize("refined", [False, True])
    @pytest.mark.parametrize("pattern", KERNEL_PATTERNS, ids=str)
    def test_raises_when_the_point_escapes_its_start_interval(self, pattern, refined):
        # sequences that are not walks can put the point outside the start
        # interval, which the kernel must refuse
        space = _covering_space(pattern.images, refined)
        seen = set()
        for length in range(1, 5):
            for ids in itertools.product(range(len(space.succ)), repeat=length):
                seen.add(check_kernel(space, ids[0], _prefixes(space, ids)))
        if pattern.period > 2:
            assert "escaped" in seen

    def test_identity_walk_of_the_two_cycle(self):
        orbit = realize_loop(Pattern((2, 1)), (1, 1))
        assert orbit.points == (Fraction(4, 3), Fraction(5, 3))
        assert all(type(x) is Fraction for x in orbit.points)


class TestSpaceCache:
    """The covering space is the one cache below the queries, sized by the
    traffic pinned here: a pattern's searches look its spaces up back to back."""

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        monkeypatch.setattr(overrot.verify, "_WALKS", {})
        _covering_space.cache_clear()

    def scanned_spaces(self, monkeypatch, images):
        """The spaces one nd/nbs scan of the pattern at cap 10 looks up, each
        checked to be refined and to be one cached space: the scan's own
        lookup, for the walks it replays, and one per search."""
        spaces, held = [], []

        def recording(images, kind):
            assert kind is True
            space = _covering_space(images, kind)
            spaces.append(space)
            held.append(list(space.closing))
            return space

        monkeypatch.setattr(overrot.forcing, "_covering_space", recording)
        monkeypatch.setattr(overrot.verify, "_covering_space", recording)
        nd_nbs(Pattern(images), 10)
        info = _covering_space.cache_info()
        assert (info.misses, info.hits) == (1, len(spaces) - 1)
        assert all(space is spaces[0] for space in spaces)
        # each start's rows are one list across the periods, extended in place:
        # start 0's, which every scan fills before it walks, up to row 10
        final = spaces[0].closing
        assert all(rows is final[s] for lists in held for s, rows in enumerate(lists) if rows)
        assert held[-1][0] is final[0] and len(final[0]) == 11
        return spaces

    def test_a_divergent_nd_nbs_scan_builds_one_refined_space(self, monkeypatch):
        # one scan per period 3..10: at each, target 1 finds an orbit without
        # a block structure, which settles the period
        assert len(self.scanned_spaces(monkeypatch, (3, 5, 2, 6, 4, 1))) == 1 + 8

    def test_a_convergent_nd_nbs_scan_builds_one_refined_space(self, monkeypatch):
        # one scan per period q in 3..10 and target 1 <= p < q / 2, less the
        # three at (7, 3), (9, 4) and (10, 4) after an nbs orbit at a lower p
        assert len(self.scanned_spaces(monkeypatch, (2, 4, 1, 3))) == 1 + 17

    def test_twist_insertion_and_spectrum_build_one_refined_space(self):
        three = Pattern((2, 3, 1))
        overrot.forcing._twist_cached.cache_clear()
        is_twist_bounded(three)
        insert_rotation(three)
        orp_spectrum(three, 9)
        assert _covering_space.cache_info().misses == 1
        _covering_space(three.images, True)
        assert _covering_space.cache_info().misses == 1

    def test_the_bound_holds_the_two_spaces_of_one_pattern(self):
        assert _covering_space.cache_info().maxsize == 2
