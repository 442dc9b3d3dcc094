"""Pattern forcing decided by exact orbit realization.

The cycles of the pattern-linear map of A correspond to closed walks in its
covering graph.  Composing the affine pieces along a closed walk gives an
affine map of the start interval; its fixed point realizes a periodic orbit
exactly, in rational arithmetic.  Enumerating closed walks of a given length,
realizing each, and collecting the patterns of the resulting orbits decides
which patterns A forces at that period.

Two interval families are walked: the basic intervals of the pattern itself,
and the refined family that splits the interval around the fixed point into a
left and a right half.  The refined family supports counting right-to-left
transitions over the fixed point, which equals the over-rotation count of any
realized orbit and so allows searching for orbits of a prescribed
over-rotation number only.

The covering spaces and the compose-and-realize kernel live in `markov`;
this module owns the closed-walk search and the queries built on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .markov import (
    DegenerateRealizationError,
    DivergentPatternError,
    LoopError,
    PLinearMap,
    _compose,
    _covering_space,
    _minimal_period,
    _realize,
    _Space,
    fixed_point,
    fundamental_loop_pprime,
    p_linear,
)
from .patterns import (
    OrpPair,
    Pattern,
    PatternError,
    canonical,
    flip,
    is_convergent,
    over_rotation_number,
)


@dataclass(frozen=True)
class Orbit:
    """A periodic orbit of a pattern-linear map, held exactly.

    points are sorted ascending; period is the exact minimal period (always
    the number of points); itinerary lists the interval labels the orbit was
    realized through, which may be longer than the period when the defining
    walk retraced the orbit.
    """

    points: tuple
    period: int
    itinerary: tuple[str, ...]
    carrier: PLinearMap = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.period != len(self.points):
            raise ValueError("period must equal the number of points")
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("points must be strictly increasing")


@dataclass(frozen=True)
class Degenerate:
    """A loop realization that collapsed onto the base cycle or vanished."""

    reason: str
    points: tuple = ()
    period: int = 0


@dataclass(frozen=True)
class AffineComposition:
    """The composition of the affine pieces along a closed walk."""

    slope: Fraction
    offset: Fraction
    domain_lo: Fraction
    domain_hi: Fraction


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


def _iter_closed_walks(space: _Space, q: int, target: int | None = None):
    """Closed length-q walks, one canonical rotation each, with composition.

    Yields (walk, prefixes): the vertex ids and the prefix compositions of the
    pieces along the walk, as `_compose` returns them.  With a crossing
    target, only walks making exactly `target` right-to-left transitions over
    the fixed point survive; branches that already exceed the target, or can
    no longer reach it, are cut (at most every other transition can cross
    back).
    """
    succ = space.succ
    succ_sets = space.succ_sets
    slopes = space.slopes
    offsets = space.offsets
    right = space.right
    count = len(slopes)
    for s in range(count):
        fsucc = [tuple(u for u in adj if u >= s) for adj in succ]
        walk = [s] * q
        idx = [0] * q
        al: list = [1] * q
        be: list = [0] * q
        cr = [0] * q
        t = 0
        while t >= 0:
            v = walk[t]
            if t == q - 1:
                if s in succ_sets[v]:
                    ok = True
                    if target is not None:
                        ncr = cr[t] + (1 if right[v] and not right[s] else 0)
                        ok = ncr == target
                    if ok and _canonical_rotation(walk, s):
                        m = slopes[v]
                        prefixes = list(zip(al, be))
                        prefixes.append((m * al[t], m * be[t] + offsets[v]))
                        yield tuple(walk), prefixes
                t -= 1
                continue
            options = fsucc[v]
            i = idx[t]
            moved = False
            while i < len(options):
                u = options[i]
                i += 1
                if target is not None:
                    ncr = cr[t] + (1 if right[v] and not right[u] else 0)
                    if ncr > target or ncr + (q - t) // 2 < target:
                        continue
                else:
                    ncr = 0
                idx[t] = i
                m = slopes[v]
                t += 1
                walk[t] = u
                al[t] = m * al[t - 1]
                be[t] = m * be[t - 1] + offsets[v]
                cr[t] = ncr
                idx[t] = 0
                moved = True
                break
            if not moved:
                t -= 1


def _iter_realized_points(pattern: Pattern, q: int) -> Iterator[list]:
    """Forward point lists of realized exact-period-q orbits (with repeats:
    one per canonical closed walk, not deduplicated by point set)."""
    if pattern.period < 2:
        if q == 1:
            yield [Fraction(1)]
        return
    space = _covering_space(pattern.images, False)
    for walk, prefixes in _iter_closed_walks(space, q):
        res = _realize(space, walk[0], prefixes)
        if res is None:
            continue
        _, pts = res
        if _minimal_period(pts) == q:
            yield pts


def _pattern_from_forward(pts: list) -> Pattern:
    """The pattern of an orbit given in forward (time) order."""
    q = len(pts)
    order = sorted(range(q), key=pts.__getitem__)
    rank = [0] * q
    for r, t in enumerate(order):
        rank[t] = r + 1
    images = [0] * q
    for t in range(q):
        images[rank[t] - 1] = rank[(t + 1) % q]
    return Pattern(tuple(images))


def _orp_from_forward(pts: list) -> int:
    """Over-rotation count p of an orbit in forward order: half the number of
    displacement sign changes along the cycle."""
    q = len(pts)
    rising = [pts[(t + 1) % q] > pts[t] for t in range(q)]
    changes = sum(1 for t in range(q) if rising[t] != rising[(t + 1) % q])
    return changes // 2


def realize_loop(pattern: Pattern, loop) -> Orbit | Degenerate:
    """Realize the orbit tracing a given closed walk of basic intervals.

    The loop is a sequence of interval indices (integers i for J_i, or label
    strings); consecutive intervals, cyclically, must be edges of the
    covering graph.  The result is the orbit of the composition's periodic
    point, with its exact minimal period, or Degenerate when the point lies
    on the base cycle and merely retraces part of it.
    """
    space = _covering_space(pattern.images, False)
    ids, prefixes = _compose(space, loop)
    res = _realize(space, ids[0], prefixes)
    if res is None:
        return Degenerate("the composed map is a translation without periodic points")
    x, pts = res
    period = _minimal_period(pts)
    points = tuple(sorted(set(pts)))
    if x.denominator == 1 and period != len(ids):
        return Degenerate(
            "the realized point lies on the base cycle and retraces it",
            points,
            period,
        )
    return Orbit(
        points=points,
        period=period,
        itinerary=tuple(space.labels[v] for v in ids),
        carrier=p_linear(pattern),
    )


def compose_loop(pattern: Pattern, loop) -> AffineComposition:
    """The affine composition along a closed walk, with its start interval."""
    space = _covering_space(pattern.images, False)
    ids, prefixes = _compose(space, loop)
    alpha, beta = prefixes[-1]
    s = ids[0]
    return AffineComposition(
        slope=Fraction(alpha),
        offset=Fraction(beta),
        domain_lo=Fraction(space.lows[s]),
        domain_hi=Fraction(space.highs[s]),
    )


def pattern_of_orbit(orbit: Orbit) -> Pattern:
    """The permutation of spatial ranks induced by the carrier map."""
    pts = orbit.points
    rank = {x: i + 1 for i, x in enumerate(pts)}
    f = orbit.carrier
    return Pattern(tuple(rank[f(x)] for x in pts))


def _iter_forced_patterns(pattern: Pattern, q: int) -> Iterator[Pattern]:
    """Canonical patterns of exact-period-q realized orbits, deduplicated."""
    seen_orbits = set()
    seen_patterns = set()
    for pts in _iter_realized_points(pattern, q):
        key = frozenset(pts)
        if key in seen_orbits:
            continue
        seen_orbits.add(key)
        result = canonical(_pattern_from_forward(pts))
        if result.images in seen_patterns:
            continue
        seen_patterns.add(result.images)
        yield result


@lru_cache(maxsize=None)
def _forced_cached(images: tuple[int, ...], q: int) -> frozenset[Pattern]:
    return frozenset(_iter_forced_patterns(Pattern(images), q))


def forced_patterns(pattern: Pattern, q: int) -> frozenset[Pattern]:
    """All canonical patterns of period-q cycles of the pattern-linear map.

    Includes the pattern itself when q equals its period.  Computed on the
    canonical representative; mirror patterns force mirror orbits, so the
    canonical forced sets of a pattern and its flip coincide.
    """
    if q < 1:
        raise ValueError(f"period must be at least 1, got {q}")
    return _forced_cached(canonical(pattern).images, q)


def forces(a: Pattern, b: Pattern) -> bool:
    """True when every map exhibiting a also exhibits b."""
    target = canonical(b)
    source = canonical(a)
    if source.period == 1:
        return target.period == 1
    return any(
        candidate == target
        for candidate in _iter_forced_patterns(source, target.period)
    )


@lru_cache(maxsize=None)
def _spectrum_cached(images: tuple[int, ...], cap: int) -> frozenset[OrpPair]:
    pattern = Pattern(images)
    pairs = set()
    for q in range(2, cap + 1):
        possible = q // 2
        found: set[int] = set()
        for pts in _iter_realized_points(pattern, q):
            found.add(_orp_from_forward(pts))
            if len(found) == possible:
                break
        pairs.update(OrpPair(p, q) for p in found)
    return frozenset(pairs)


def orp_spectrum(pattern: Pattern, cap: int) -> frozenset[OrpPair]:
    """Over-rotation pairs of all forced patterns of periods 2..cap."""
    if cap < 2:
        raise ValueError(f"cap must be at least 2, got {cap}")
    return _spectrum_cached(canonical(pattern).images, cap)


def twist_monotone_check(pattern: Pattern) -> bool:
    """Necessary twist condition: on either side of the fixed point, points
    mapping to a common side keep their distance order from the fixed point."""
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


def is_twist_bounded(pattern: Pattern, cap: int | None = None) -> NotTwist | TwistUpTo:
    """Search for a forced competitor with the same over-rotation number.

    NotTwist when a distinct forced pattern of equal over-rotation number and
    period <= cap exists (or the monotonicity condition already rules twist
    out); otherwise TwistUpTo(cap), a bounded verdict.  Competitors must have
    period a multiple of the reduced denominator, and their orbits cross the
    fixed point right-to-left exactly rho * period times, so the search walks
    the refined interval family with that exact crossing count.  Divergent
    patterns are never twist and get NotTwist directly.
    """
    if pattern.period < 2:
        raise PatternError("twist verdicts need period at least 2")
    if cap is None:
        cap = 3 * pattern.period
    # the verdict is mirror-invariant (competitors mirror along with the
    # pattern), so it is computed and cached on the canonical representative
    return _twist_cached(canonical(pattern).images, cap)


@lru_cache(maxsize=None)
def _twist_cached(images: tuple[int, ...], cap: int) -> NotTwist | TwistUpTo:
    pattern = Pattern(images)
    if not is_convergent(pattern):
        return NotTwist()
    if not twist_monotone_check(pattern):
        return NotTwist()
    rho = over_rotation_number(pattern)
    own = pattern
    step = rho.denominator
    space = _covering_space(pattern.images, True)
    for q in range(step, cap + 1, step):
        target = int(rho * q)
        for walk, prefixes in _iter_closed_walks(space, q, target=target):
            res = _realize(space, walk[0], prefixes)
            if res is None:
                continue
            _, pts = res
            if _minimal_period(pts) != q:
                continue
            if canonical(_pattern_from_forward(pts)) != own:
                return NotTwist()
    return TwistUpTo(cap)


def _hits_left_endpoint_from_left(pattern: Pattern) -> bool:
    """True when the left endpoint of the fixed-point interval is the image
    of a point lying left of the fixed point."""
    a, split = fixed_point(pattern)
    pre = pattern.images.index(split) + 1
    return pre < a


def _inserted_walk(pattern: Pattern) -> tuple[list[int], list]:
    """Vertex ids and forward orbit of the refined fundamental loop extended
    by one Ir, Il passage after its single Il visit."""
    space = _covering_space(pattern.images, True)
    loop = list(fundamental_loop_pprime(pattern))
    if loop.count("Il") != 1:
        raise DegenerateRealizationError(
            f"fundamental loop of {pattern} does not pass through Il exactly once"
        )
    j = loop.index("Il")
    extended = loop[: j + 1] + ["Ir", "Il"] + loop[j + 1 :]
    try:
        ids, prefixes = _compose(space, extended)
    except LoopError as exc:
        raise DegenerateRealizationError(f"extended loop broke covering: {exc}") from None
    res = _realize(space, ids[0], prefixes)
    if res is None:
        raise DegenerateRealizationError("extended loop composed to a translation")
    _, pts = res
    period = _minimal_period(pts)
    if period != len(ids):
        raise DegenerateRealizationError(
            f"extended loop realized an orbit of period {period}, not {len(ids)}"
        )
    return ids, pts


def insert_rotation(pattern: Pattern, cap: int | None = None) -> Orbit:
    """Realize an orbit two points longer with one extra half-turn.

    For a twist-verified pattern of over-rotation pair (k, n) with k/n < 1/2,
    the walk of the fundamental loop over the refined intervals is extended by
    one extra passage right-left around the fixed point, inserted after its
    single left-half visit.  The realized orbit has period n+2, over-rotation
    pair (k+1, n+2), and is never a doubling.  When the left endpoint of the
    fixed-point interval is not hit from its own side, the construction runs
    on the mirror pattern and the orbit is mirrored back.
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
    space = _covering_space(pattern.images, True)
    if _hits_left_endpoint_from_left(pattern):
        ids, pts = _inserted_walk(pattern)
    elif _hits_left_endpoint_from_left(flip(pattern)):
        # the mirror's refined intervals are this pattern's in reverse order
        ids, pts = _inserted_walk(flip(pattern))
        last = len(space.labels) - 1
        ids = [last - v for v in ids]
        pts = [pattern.period + 1 - x for x in pts]
    else:
        raise ValueError(
            f"neither endpoint of the fixed-point interval of {pattern} "
            "is hit from its own side"
        )
    return Orbit(
        points=tuple(sorted(pts)),
        period=len(pts),
        itinerary=tuple(space.labels[v] for v in ids),
        carrier=p_linear(pattern),
    )
