"""Piecewise-linear models of patterns: maps and covering spaces.

A pattern of period n determines the connect-the-dots map on [1, n] that
sends i to pi(i) and is affine on every basic interval J_i = [i, i+1].  The
covering space records which intervals each image stretches across; closed
walks in it are the raw material for orbit realization.

This module owns the covering spaces and the compose-and-realize kernel:
`_covering_space` builds the basic space and the space refined at the fixed
points as plain lists, each vertex's successors a `range`, with no labels
(`_labels` derives them for loops and itineraries); `_compose` validates a
closed walk and composes its pieces, and `_realize` turns the compositions
into an exact periodic orbit: integer numerators over one denominator, as
slopes and offsets are integers, so `Fraction` appears only at the API
boundary.  One integer rule places the fixed points: J_i holds one exactly
when the map moves i and i+1 in opposite directions, and a split point is
the only `Fraction` in a space.  The public views read the same spaces:
`markov_graph` the basic one; `fixed_point`, its split point, and
`fundamental_loop_pprime`, which follows the germ of 1 around the pattern,
the refined one.  `p_linear` only evaluates the map, for callers that want
its values.  The closed-walk search, which walks only refined spaces and
keeps its closing rows in them, and the forcing queries built on the kernel
live in `forcing`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .patterns import Pattern, PatternError, is_convergent


class DivergentPatternError(ValueError):
    """Raised when an operation needs the single-fixed-point (convergent) case."""


class LoopError(ValueError):
    """Raised for itineraries the covering graph does not allow."""


class DegenerateRealizationError(ValueError):
    """Raised when a construction that must yield a fresh orbit fails to."""


def p_linear(pattern: Pattern):
    """The pattern-linear map of a pattern: the exact image of an int or a
    `Fraction` in [1, n]."""
    images = pattern.images
    n = len(images)

    def f(x):
        if type(x) is not int and not isinstance(x, Fraction):
            raise ValueError(f"points are ints or Fractions, got {x!r}")
        if not 1 <= x <= n:
            raise ValueError(f"point {x} outside [1, {n}]")
        if n == 1:
            return Fraction(1)
        i = min(int(x), n - 1)
        y = images[i - 1]
        return y + (images[i] - y) * (x - i)

    return f


class MarkovGraph(NamedTuple):
    """Covering graph on basic intervals: succ[i - 1] lists, ascending, the k
    with an edge J_i -> J_k.  A vertex is an int in 1..num_vertices."""

    num_vertices: int
    succ: tuple[tuple[int, ...], ...]

    def successors(self, i: int) -> tuple[int, ...]:
        if type(i) is not int or not 1 <= i <= self.num_vertices:
            raise ValueError(f"vertices run 1..{self.num_vertices}, got {i!r}")
        return self.succ[i - 1]


def markov_graph(pattern: Pattern) -> MarkovGraph:
    """The covering graph: J_i -> J_k when the image of J_i stretches over J_k."""
    n = pattern.period
    if n < 2:
        raise PatternError("covering graphs need period at least 2")
    succ = _covering_space(pattern.images, False).succ
    return MarkovGraph(n - 1, tuple(tuple(k + 1 for k in run) for run in succ))


def fixed_point(pattern: Pattern):
    """(a, i) with a the unique fixed point, inside the basic interval J_i.

    Defined for convergent patterns of period >= 2; the fixed point is always
    interior to its interval.
    """
    if pattern.period < 2:
        raise PatternError("fixed-point data needs period at least 2")
    if not is_convergent(pattern):
        raise DivergentPatternError(
            f"pattern {pattern} has more than one fixed point"
        )
    # the refined space's one split point, its only `Fraction`
    (a,) = [lo for lo in _covering_space(pattern.images, True).lows if type(lo) is not int]
    return a, int(a)


class _Space(NamedTuple):
    """An interval family exactly covered by the affine pieces of one map.

    Vertex v is the interval [lows[v], highs[v]] carrying the piece
    x -> slopes[v] * x + offsets[v]; succ[v] is the range of the vertices
    its image covers.  The fields are lists.  The last two are the walk
    search's, None in the basic space, which only `markov_graph` and
    `realize_loop` read.  right[v] tells whether the map is falling on v,
    that is, moves every point of v down; for a convergent pattern these are
    exactly the vertices right of its fixed point.

    closing[s] is None until the walk search first starts at vertex s, then
    the list of its closing rows built so far: row k maps each vertex v to a
    bitmask with bit c set when some walk of k edges leads from v back to s
    through vertices >= s with exactly c falling-to-rising crossings.  Row 0
    is s alone with bit 0; the search appends row k from row k - 1 as its
    walks need it, so the rows are shared by every walk length and live as
    long as the space.  Every row is 0 below s, and that is what keeps the
    walks from s on the vertices >= s: each is counted from its least vertex.
    """

    lows: list
    highs: list
    slopes: list
    offsets: list
    succ: list
    right: list | None
    closing: list | None


# The sweeps and the twist queries look a space up again only right after
# the last lookup of it (reuse distance 0), or, across suites, after about
# 3,000 other spaces, which no bounded cache holds.  Every search walks the
# refined space; two entries keep it in hand next to the basic space that
# `markov_graph` or `realize_loop` asks for on the same pattern.
@lru_cache(maxsize=2)
def _covering_space(images: tuple[int, ...], refined: bool) -> _Space:
    """The covering space of a pattern's pattern-linear map.

    Its vertices are the basic intervals J_i = [i, i+1] with the map's pieces.
    Refined, every interval J_i holding a fixed point a is split into
    [i, a] and [a, i+1], both carrying the piece of J_i.  No fixed point is
    an integer, and a basic interval holds at most one, so the map's
    displacement has one sign on each refined vertex: right[v] marks the
    falling ones.

    The space is built on integers, in one pass over the intervals.  J_i
    holds a fixed point exactly when the map moves i and i+1 in opposite
    directions, and as f(a) = a every vertex maps onto the interval between
    two points that are integers or fixed points.  The vertices between two
    such points form a run of ids, so each succ[v] is a range found by
    counting the vertices left of each point, and a split point a is the
    only `Fraction`.
    """
    n = len(images)
    rising = [images[x - 1] > x for x in range(1, n + 1)]
    # at[x - 1] counts the vertices left of the integer point x
    at = [0] * n
    for x in range(1, n):
        at[x] = at[x - 1] + 1 + (refined and rising[x - 1] != rising[x])
    lows, slopes, offsets, succ, right = [], [], [], [], []
    for i in range(1, n):
        y, z = images[i - 1], images[i]
        m, up, k = z - y, rising[i - 1], at[i] - at[i - 1]
        c = y - m * i
        slopes += [m] * k
        offsets += [c] * k
        if k == 1:
            lows.append(i)
            succ.append(range(at[y - 1], at[z - 1]) if m > 0 else range(at[z - 1], at[y - 1]))
            right.append(not up)
        else:
            # v counts the vertices left of the fixed point; each half maps
            # onto the span from it to the image of the half's integer end,
            # which lies above it when that end moves up
            v = at[i - 1] + 1
            lows += (i, Fraction(c, 1 - m))
            if up:
                succ += (range(v, at[y - 1]), range(at[z - 1], v))
            else:
                succ += (range(at[y - 1], v), range(v, at[z - 1]))
            right += (not up, up)
    search = (right, [None] * len(lows)) if refined else (None, None)
    return _Space(lows, lows[1:] + [n], slopes, offsets, succ, *search)


def _labels(space: _Space) -> list[str]:
    """Vertex labels: J_i for a basic interval; the halves of a split J_i are
    Jil and Jir, or Il and Ir in a space with one split (a convergent one)."""
    splits = sum(type(lo) is not int for lo in space.lows)
    out = []
    for lo, hi in zip(space.lows, space.highs):
        side = "l" if type(hi) is not int else "r" if type(lo) is not int else ""
        out.append(f"I{side}" if side and splits == 1 else f"J{int(lo)}{side}")
    return out


def _compose(space: _Space, labels: list[str], loop) -> tuple[list[int], list[tuple]]:
    """A closed walk as vertex ids, checked, with its prefix compositions.

    The loop lists interval labels (or integers i for J_i), and `labels` are
    the space's, as `_labels` derives them; consecutive intervals,
    cyclically, must be edges of the covering graph.  prefixes[t] is the
    (slope, offset) of the composition of the first t pieces, for
    t = 0..len(loop); the last one composes the whole walk.
    """
    try:
        items = iter(loop)
    except TypeError:
        raise LoopError(f"a loop is a sequence of intervals, got {loop!r}") from None
    loop = list(items)
    if not loop:
        raise LoopError("empty loop")
    index = {label: v for v, label in enumerate(labels)}
    ids = []
    for item in loop:
        label = f"J{item}" if isinstance(item, int) else str(item)
        if label not in index:
            raise LoopError(
                f"unknown interval {item!r}; intervals are {', '.join(labels)}"
            )
        ids.append(index[label])
    prefixes = [(1, 0)]
    for t, v in enumerate(ids):
        u = ids[(t + 1) % len(ids)]
        if u not in space.succ[v]:
            raise LoopError(
                f"no edge {labels[v]} -> {labels[u]} in the covering graph"
            )
        alpha, beta = prefixes[-1]
        m = space.slopes[v]
        prefixes.append((m * alpha, m * beta + space.offsets[v]))
    return ids, prefixes


def _minimal_period(pts: list) -> int:
    q = len(pts)
    x0 = pts[0]
    for d in range(1, q):
        if q % d == 0 and pts[d] == x0:
            return d
    return q


def _realize(space: _Space, s: int, prefixes: list):
    """The periodic point of a closed walk from vertex s, with its orbit.

    prefixes are the walk's integer prefix compositions, as `_compose`
    returns them.  Returns (d, nums) with d > 0, nums[t] / d being the image
    of the point under the first t pieces, or None when the composition is a
    pure translation (which a covering walk cannot produce; kept as a guard).
    The fixed point always lies in the start interval because the
    composition maps part of that interval onto all of it.
    """
    lo, hi = space.lows[s], space.highs[s]
    alpha, beta = prefixes[-1]
    if alpha != 1:
        # the fixed point beta / (1 - alpha) is n / d, the sign moved into n
        n, d = (beta, 1 - alpha) if alpha < 1 else (-beta, alpha - 1)
        # lo <= n / d <= hi, cross-multiplied: a bound may be a Fraction
        if lo.numerator * d > n * lo.denominator or n * hi.denominator > hi.numerator * d:
            raise DegenerateRealizationError(
                f"fixed point {Fraction(n, d)} escaped its start interval [{lo}, {hi}]"
            )
    elif beta != 0:
        return None
    else:
        # The identity: every point of the start interval is periodic, and
        # time-slices that agree at a point collapse its period.  All slopes
        # are +-1, so slices of unequal slope agree only at multiples of 1/2,
        # as are the interval's ends (a fixed point of a slope -1 piece): the
        # point a third of the way in has the longest period there is.
        x = (2 * Fraction(lo) + Fraction(hi)) / 3
        n, d = x.numerator, x.denominator
    return d, [a * n + b * d for a, b in prefixes[:-1]]


def fundamental_loop_pprime(pattern: Pattern) -> tuple[str, ...]:
    """The fundamental loop over the refined intervals split at the fixed point.

    Interval J_i containing the fixed point a splits into Il = [i, a] and
    Ir = [a, i+1]; all other intervals keep their J labels.  The loop follows
    the germ of 1 from the right, a one-sided neighborhood of an orbit point,
    for one period: the right germ of x lies in the interval starting at x,
    the left germ in the one ending at x, and a falling piece swaps the side.
    No fixed point is an integer, so each germ lies in one refined interval.
    Convergent patterns only.
    """
    fixed_point(pattern)  # raises unless convergent, of period >= 2
    space = _covering_space(pattern.images, True)
    labels = _labels(space)
    loop, x, right = [], 1, True
    for _ in range(pattern.period):
        v = space.lows.index(x) if right else space.highs.index(x)
        loop.append(labels[v])
        right ^= space.slopes[v] < 0
        x = pattern.images[x - 1]
    return tuple(loop)
