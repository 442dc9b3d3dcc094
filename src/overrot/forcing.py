"""Pattern forcing decided by exact orbit realization.

The cycles of the pattern-linear map of A correspond to closed walks in its
covering graph.  Composing the affine pieces along a closed walk gives an
affine map of the start interval; its fixed point realizes a periodic orbit
exactly, as integer numerators over one denominator.  The search
`_iter_orbits` enumerates closed walks of a given length, realizes each, and
yields the pattern of each orbit, ranked on its numerators, with the walk
that realized it; every query (forced sets, forcing, spectra, twist
verdicts, and the nd/nbs scans of `verify`, which also replay kept walks)
is a reduction over that stream.  Only `realize_loop` and `insert_rotation`
return orbit points, as `Fraction`s.

The search walks the refined intervals, which split every basic interval
holding a fixed point at that point; the basic ones serve only `realize_loop`
and `markov`'s graph.  On each refined interval the map moves every point the
same way, so a walk's falling-to-rising transitions count the half-turns of
the orbit it realizes, for divergent patterns as well as convergent ones, and
a search with crossing target p finds the orbits of pair (p, q) only.  The
forced sets chain the targets 1..q // 2; forcing, the over-rotation spectra
and the twist verdicts know their pairs and walk one target each.

The covering spaces, which hold the closing rows the search fills, and the
compose-and-realize kernel live in `markov`; this module owns the search and
the queries on it.  The space is the one cache below the queries: only twist
verdicts, which `insert_rotation` asks for again, are kept as results.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .markov import (
    DegenerateRealizationError,
    DivergentPatternError,
    LoopError,
    _compose,
    _covering_space,
    _labels,
    _minimal_period,
    _realize,
    fixed_point,
    fundamental_loop_pprime,
)
from .patterns import (
    OrpPair,
    Pattern,
    PatternError,
    _Frozen,
    _cyclic,
    _flip_images,
    _half_turns,
    _integer,
    canonical,
    is_convergent,
    over_rotation_number,
)


class Orbit(_Frozen):
    """A periodic orbit of a pattern-linear map, held exactly, immutable.

    points are sorted ascending; period is the exact minimal period (always
    the number of points); itinerary lists the interval labels the orbit was
    realized through, which may be longer than the period when the defining
    walk retraced the orbit; pattern is the orbit's pattern, the map's
    permutation of the points' ranks.  Equality, hash and repr leave out the
    pattern, which the points and the map determine.
    """

    __slots__ = ("points", "period", "itinerary", "pattern")

    def __init__(
        self, points: tuple, period: int, itinerary: tuple[str, ...], pattern: Pattern
    ) -> None:
        if period != len(points):
            raise ValueError("period must equal the number of points")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ValueError("points must be strictly increasing")
        if type(pattern) is not Pattern or pattern.period != period:
            raise ValueError("pattern must be a Pattern of the orbit's period")
        for name, value in zip(Orbit.__slots__, (points, period, itinerary, pattern)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return self.points, self.period, self.itinerary

    def __repr__(self) -> str:
        return "Orbit(points={!r}, period={!r}, itinerary={!r})".format(*self._key())


class Degenerate(NamedTuple):
    """A loop realization that collapsed onto the base cycle or vanished."""

    reason: str
    points: tuple = ()
    period: int = 0


class NotTwist(NamedTuple):
    """Verdict: a same-rotation-number competitor exists (or must, by the
    monotonicity condition failing)."""


class TwistUpTo(NamedTuple):
    """Bounded verdict: no same-rotation-number competitor up to this period."""

    cap: int


def _canonical_rotation(walk: list, s: int) -> bool:
    """True when the walk is lexicographically least among its rotations
    starting at occurrences of the start vertex s."""
    q = len(walk)
    for p in range(1, q):
        if walk[p] == s and walk[p:] + walk[:p] < walk:
            return False
    return True


def _ranked(nums: list) -> tuple[int, ...]:
    """The one-line images of the forward orbit nums, one period of it: the
    point of rank r maps to the rank of its successor in time."""
    q = len(nums)
    order = sorted(range(q), key=nums.__getitem__)
    rank = [0] * q
    for r, k in enumerate(order):
        rank[k] = r + 1
    # a tuple of a list, not of a generator: the latter raised the twist
    # benchmark's peak RSS by 3%
    return tuple([rank[(k + 1) % q] for k in order])


def _iter_orbits(
    images: tuple[int, ...], q: int, target: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The patterns of a pattern's map's orbits of over-rotation pair (target, q).

    Walks the closed length-q walks of the refined covering space, one
    canonical rotation each, realizes each walk's periodic orbit and yields,
    for each orbit of minimal period q, its one-line images (not
    canonicalized) and the walk, as a tuple of vertex ids: one pair per
    canonical walk, so an orbit traced by two walks is yielded twice.  A
    caller may keep the walk and realize it again.  No point leaves this
    generator.  Only walks making exactly `target` falling-to-rising
    transitions survive.  Each start vertex's closing rows in the space
    (`_Space.closing`), filled here up to row q, say exactly which vertices
    can still close the walk with the crossings left, so every edge taken
    lies on a closed walk of length q meeting the target, and a start vertex
    without one is skipped.  The rows are 0 below the start, which alone
    keeps each walk on the vertices from s up.  The depth-first search holds,
    per depth, the walk's vertex, its crossings and an iterator over that
    vertex's successors, and the prefix compositions in the one list
    `_realize` reads.
    """
    space = _covering_space(images, True)
    slopes = space.slopes
    offsets = space.offsets
    succ = space.succ
    right = space.right
    count = len(slopes)
    for s in range(count):
        rows = space.closing[s]
        if rows is None:
            rows = space.closing[s] = [[0] * s + [1] + [0] * (count - s - 1)]
        for k in range(len(rows), q + 1):
            row = last = rows[-1]
            # once a row equals the one before it, every later row does too
            if k == 1 or last != rows[-2]:
                row = [0] * count
                for v in range(s, count):
                    bits = 0
                    if right[v]:  # a step to a rising u crosses once
                        for u in succ[v]:
                            bits |= last[u] << (not right[u])
                    else:
                        for u in succ[v]:
                            bits |= last[u]
                    row[v] = bits
            rows.append(row)
        if not rows[q][s] >> target & 1:
            continue
        walk = [s] * q
        cr = [0] * q
        prefixes = [(1, 0)] * (q + 1)
        options = [iter(succ[s])] * q  # set on descent past depth 0
        t = 0
        while t >= 0:
            v = walk[t]
            m = slopes[v]
            alpha, beta = prefixes[t]
            if t == q - 1:
                if _canonical_rotation(walk, s):
                    prefixes[q] = (m * alpha, m * beta + offsets[v])
                    res = _realize(space, s, prefixes)
                    if res is not None and _minimal_period(res[1]) == q:
                        yield _ranked(res[1]), tuple(walk)
                t -= 1
                continue
            closing = rows[q - t - 1]
            for u in options[t]:
                ncr = cr[t] + (1 if right[v] and not right[u] else 0)
                # bit target - ncr of the closing row; none when ncr > target
                if closing[u] << ncr >> target & 1:
                    t += 1
                    walk[t] = u
                    cr[t] = ncr
                    prefixes[t] = (m * alpha, m * beta + offsets[v])
                    options[t] = iter(succ[u])
                    break
            else:
                t -= 1


def realize_loop(pattern: Pattern, loop) -> Orbit | Degenerate:
    """Realize the orbit tracing a given closed walk of basic intervals.

    The loop is a sequence of interval indices (integers i for J_i, or label
    strings); consecutive intervals, cyclically, must be edges of the
    covering graph.  The result is the orbit of the composition's periodic
    point, with its exact minimal period, or Degenerate when the point lies
    on the base cycle and merely retraces part of it.
    """
    if pattern.period < 2:
        raise PatternError("covering graphs need period at least 2")
    return _realize_orbit(_covering_space(pattern.images, False), loop)


def _realize_orbit(space, loop) -> Orbit | Degenerate:
    """The body of `realize_loop`, for a closed walk of either space."""
    labels = _labels(space)
    ids, prefixes = _compose(space, labels, loop)
    res = _realize(space, ids[0], prefixes)
    if res is None:
        return Degenerate("the composed map is a translation without periodic points")
    d, nums = res
    period = _minimal_period(nums)
    points = tuple(Fraction(n, d) for n in sorted(set(nums)))
    if nums[0] % d == 0 and period != len(ids):
        return Degenerate(
            "the realized point lies on the base cycle and retraces it",
            points,
            period,
        )
    return Orbit(
        points=points,
        period=period,
        itinerary=tuple(map(labels.__getitem__, ids)),
        pattern=_cyclic(_ranked(nums[:period])),
    )


def pattern_of_orbit(orbit: Orbit) -> Pattern:
    """The permutation of spatial ranks induced by the map on the orbit."""
    return orbit.pattern


def _iter_forced_patterns(images: tuple[int, ...], q: int) -> Iterator[Pattern]:
    """Canonical patterns of exact-period-q realized orbits, deduplicated:
    the fixed point at q = 1, else the orbits of 1..q // 2 half-turns."""
    if q == 1:
        yield Pattern((1,))
        return
    seen = set()
    for p in range(1, q // 2 + 1):
        for orbit, _ in _iter_orbits(images, q, p):
            key = min(orbit, _flip_images(orbit))
            if key not in seen:
                seen.add(key)
                yield _cyclic(key)


def forced_patterns(pattern: Pattern, q: int) -> frozenset[Pattern]:
    """All canonical patterns of period-q cycles of the pattern-linear map.

    Includes the pattern itself when q equals its period.  Computed on the
    canonical representative; mirror patterns force mirror orbits, so the
    canonical forced sets of a pattern and its flip coincide.
    """
    if _integer(q, "period") < 1:
        raise ValueError(f"period must be at least 1, got {q}")
    return frozenset(_iter_forced_patterns(canonical(pattern).images, q))


def forces(a: Pattern, b: Pattern) -> bool:
    """True when every map exhibiting a also exhibits b."""
    images = canonical(b).images
    # b's orbits have b's half-turns; a fixed point, b of period 1, is forced
    orbits = _iter_orbits(canonical(a).images, len(images), _half_turns(images))
    return len(images) == 1 or any(min(o, _flip_images(o)) == images for o, _ in orbits)


def orp_spectrum(pattern: Pattern, cap: int) -> frozenset[OrpPair]:
    """Over-rotation pairs of all forced patterns of periods 2..cap."""
    if _integer(cap, "cap") < 2:
        raise ValueError(f"cap must be at least 2, got {cap}")
    images = canonical(pattern).images
    # an orbit's half-turn count is its crossing count in the refined space,
    # so each pair asks the search for one orbit; the closing rows answer
    # most pairs that are not forced before any walk starts
    return frozenset(
        OrpPair(p, q)
        for q in range(2, cap + 1)
        for p in range(1, q // 2 + 1)
        if next(_iter_orbits(images, q, target=p), None) is not None
    )


def _twist_monotone(pattern: Pattern) -> bool:
    """Necessary twist condition: on either side of the fixed point, points
    mapping to a common side keep their distance order from the fixed point."""
    a, _ = fixed_point(pattern)
    # signed distances x - a scaled by a's denominator: integers with the
    # same signs and the same order of absolute values
    dist = [x * a.denominator - a.numerator for x in range(pattern.period + 1)]
    moves = [(dist[u], dist[fu]) for u, fu in enumerate(pattern.images, 1)]
    for du, dfu in moves:
        for dv, dfv in moves:
            if du == dv or (du < 0) != (dv < 0) or (dfu < 0) != (dfv < 0):
                continue
            if abs(du) > abs(dv) and not abs(dfu) > abs(dfv):
                return False
    return True


def is_twist_bounded(pattern: Pattern, cap: int | None = None) -> NotTwist | TwistUpTo:
    """Search for a forced competitor with the same over-rotation number.

    NotTwist when a distinct forced pattern of equal over-rotation number and
    period <= cap exists (or the monotonicity condition already rules twist
    out); otherwise TwistUpTo(cap), a bounded verdict.  Competitors must have
    period a multiple of the reduced denominator, and their orbits cross the
    fixed point right-to-left exactly rho * period times, so the search walks
    the refined interval family with that exact crossing count.  Divergent
    patterns are never twist and get NotTwist directly.  The cap must be at
    least 2, and, unless monotonicity already rules twist out, at least the
    reduced denominator of the over-rotation number; it defaults to three
    periods.
    """
    if pattern.period < 2:
        raise PatternError("twist verdicts need period at least 2")
    if cap is None:
        cap = 3 * pattern.period
    if _integer(cap, "cap") < 2:
        raise ValueError(f"cap must be at least 2, got {cap}")
    # the verdict is mirror-invariant (competitors mirror along with the
    # pattern), so it is computed and cached on the canonical representative
    return _twist_cached(canonical(pattern).images, cap)


@lru_cache(maxsize=256)
def _twist_cached(images: tuple[int, ...], cap: int) -> NotTwist | TwistUpTo:
    pattern = Pattern(images)
    if not is_convergent(pattern):
        return NotTwist()
    if not _twist_monotone(pattern):
        return NotTwist()
    rho = over_rotation_number(pattern)
    step = rho.denominator
    if cap < step:
        # competitors have periods that are multiples of the denominator, so
        # a smaller cap would search nothing and certify nothing
        raise ValueError(
            f"cap {cap} is below {step}, the denominator of the over-rotation "
            f"number {rho}"
        )
    for q in range(step, cap + 1, step):
        for orbit, _ in _iter_orbits(images, q, target=int(rho * q)):
            if min(orbit, _flip_images(orbit)) != images:
                return NotTwist()
    return TwistUpTo(cap)


def insert_rotation(pattern: Pattern, cap: int | None = None) -> Orbit:
    """Realize an orbit two points longer with one extra half-turn.

    For a twist-verified pattern of over-rotation pair (k, n) with k/n < 1/2,
    the walk of the fundamental loop over the refined intervals is extended by
    one extra passage right-left around the fixed point, inserted after its
    single left-half visit.  The realized orbit has period n+2, over-rotation
    pair (k+1, n+2), and is never a doubling.  When the left endpoint of the
    fixed-point interval is not hit from its own side, the mirror of that
    construction runs on the pattern itself: the loop starts at its right
    end, the left germ of n, and the passage left-right is inserted after its
    single right-half visit.  DegenerateRealizationError is raised when the
    extended loop does not realize an orbit of period n+2.
    """
    if pattern.period < 2:
        raise PatternError("insertion needs period at least 2")
    if not is_convergent(pattern):
        raise DivergentPatternError(f"insertion needs a convergent pattern: {pattern}")
    rho = over_rotation_number(pattern)
    if rho >= Fraction(1, 2):
        raise ValueError(
            f"insertion needs over-rotation number below 1/2, got {rho}"
        )
    verdict = is_twist_bounded(pattern, cap)
    if not isinstance(verdict, TwistUpTo):
        raise ValueError(f"pattern {pattern} is not twist-verified")
    n = pattern.period
    a, split = fixed_point(pattern)
    loop = list(fundamental_loop_pprime(pattern))
    if pattern.images.index(split) + 1 < a:
        # the left endpoint of the fixed-point interval is hit from the left
        half, other = "Il", "Ir"
    else:
        # the mirror image of the case above: start at the right end, k
        # steps from 1 along the cycle
        k, x = 0, 1
        while x != n:
            k, x = k + 1, pattern.images[x - 1]
        loop = loop[k:] + loop[:k]
        half, other = "Ir", "Il"
    if loop.count(half) != 1:
        raise DegenerateRealizationError(
            f"fundamental loop of {pattern} does not pass through {half} exactly once"
        )
    j = loop.index(half) + 1
    extended = loop[:j] + [other, half] + loop[j:]
    try:
        orbit = _realize_orbit(_covering_space(pattern.images, True), extended)
    except LoopError as exc:
        raise DegenerateRealizationError(f"extended loop broke covering: {exc}") from None
    if not isinstance(orbit, Orbit) or orbit.period != n + 2:
        raise DegenerateRealizationError(
            f"extended loop of {pattern} realized no orbit of period {n + 2}"
        )
    return orbit
