"""Piecewise-linear models of patterns: maps, covering spaces, and germs.

A pattern of period n determines the connect-the-dots map on [1, n] that
sends i to pi(i) and is affine on every basic interval J_i = [i, i+1].  The
covering space records which intervals each image stretches across; closed
walks in it are the raw material for orbit realization.

This module owns the covering spaces and the compose-and-realize kernel:
`_covering_space` builds the basic space and the space refined at the fixed
point, `_compose` validates a closed walk and composes its pieces, and
`_realize` turns the compositions into an exact periodic orbit.  The public
views (`markov_graph`, `fixed_point`) read the same spaces.  The closed-walk
search and the forcing queries built on the kernel live in `forcing`.
"""

from __future__ import annotations

from dataclasses import dataclass
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


LEFT = "L"
RIGHT = "R"


class Germ(NamedTuple):
    """A one-sided neighborhood of an orbit point: the point plus a side."""

    point: int
    side: str


class PLinearMap:
    """The connect-the-dots map of a pattern, evaluated exactly."""

    def __init__(self, pattern: Pattern):
        self.pattern = pattern
        self.n = pattern.period
        images = pattern.images
        self._slopes = tuple(
            images[i] - images[i - 1] for i in range(1, self.n)
        )
        self._offsets = tuple(
            images[i - 1] - self._slopes[i - 1] * i for i in range(1, self.n)
        )

    def piece(self, i: int):
        """(slope, offset) of the affine piece on J_i = [i, i+1]."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"basic intervals run J_1..J_{self.n - 1}, got J_{i}")
        return self._slopes[i - 1], self._offsets[i - 1]

    def __call__(self, x):
        """Exact image of a number in [1, n]."""
        if self.n == 1:
            if x != 1:
                raise ValueError(f"point {x} outside [1, 1]")
            return Fraction(1)
        if not 1 <= x <= self.n:
            raise ValueError(f"point {x} outside [1, {self.n}]")
        i = min(int(x), self.n - 1)
        slope, offset = self._slopes[i - 1], self._offsets[i - 1]
        return slope * x + offset

    def fixed_points(self) -> list[Fraction]:
        """All fixed points, ascending."""
        if self.n == 1:
            return [Fraction(1)]
        out = []
        for i in range(1, self.n):
            slope, offset = self._slopes[i - 1], self._offsets[i - 1]
            if slope == 1:
                continue
            x = Fraction(offset, 1 - slope)
            if i <= x <= i + 1 and (not out or out[-1] != x):
                out.append(x)
        return out

    def __repr__(self) -> str:
        return f"PLinearMap({self.pattern!r})"


def p_linear(pattern: Pattern) -> PLinearMap:
    """The pattern-linear map of a pattern."""
    return PLinearMap(pattern)


@dataclass(frozen=True)
class MarkovGraph:
    """Covering graph on basic intervals; vertex i stands for J_i."""

    num_vertices: int
    adjacency: tuple[tuple[bool, ...], ...]

    def has_edge(self, i: int, k: int) -> bool:
        return self.adjacency[i - 1][k - 1]

    def successors(self, i: int) -> tuple[int, ...]:
        return tuple(
            k for k in range(1, self.num_vertices + 1) if self.adjacency[i - 1][k - 1]
        )


def markov_graph(pattern: Pattern) -> MarkovGraph:
    """The covering graph: J_i -> J_k when the image of J_i stretches over J_k."""
    n = pattern.period
    if n < 2:
        raise PatternError("covering graphs need period at least 2")
    succ = _covering_space(pattern.images, False).succ_sets
    rows = tuple(tuple(k in adj for k in range(n - 1)) for adj in succ)
    return MarkovGraph(n - 1, rows)


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
    (a,) = p_linear(pattern).fixed_points()
    return a, int(a)


class _Space(NamedTuple):
    """An interval family exactly covered by the affine pieces of one map.

    Vertex v is the interval [lows[v], highs[v]] carrying the piece
    x -> slopes[v] * x + offsets[v]; succ[v] lists, ascending, the vertices
    its image covers.  right[v] tells whether v lies right of the fixed point
    (refined spaces only; None otherwise).
    """

    lows: tuple
    highs: tuple
    slopes: tuple
    offsets: tuple
    succ: tuple
    succ_sets: tuple
    labels: tuple[str, ...]
    right: tuple | None


@lru_cache(maxsize=None)
def _covering_space(images: tuple[int, ...], refined: bool) -> _Space:
    """The covering space of a pattern's pattern-linear map.

    Its vertices are the basic intervals J_i = [i, i+1] with the map's pieces.
    Refined, the interval J_i holding the fixed point a is split into
    Il = [i, a] and Ir = [a, i+1], both carrying the piece of J_i (convergent
    patterns only).
    """
    pattern = Pattern(images)
    f = p_linear(pattern)
    a, split = fixed_point(pattern) if refined else (None, None)
    bounds, labels, pieces = [], [], []
    for i in range(1, pattern.period):
        if i == split:
            bounds += [(Fraction(i), a), (a, Fraction(i + 1))]
            labels += ["Il", "Ir"]
            pieces += [f.piece(i)] * 2
        else:
            bounds.append((i, i + 1))
            labels.append(f"J{i}")
            pieces.append(f.piece(i))
    succ = []
    for (lo, hi), (m, c) in zip(bounds, pieces):
        img_lo, img_hi = sorted((m * lo + c, m * hi + c))
        succ.append(
            tuple(u for u, (ul, uh) in enumerate(bounds) if img_lo <= ul and uh <= img_hi)
        )
    return _Space(
        lows=tuple(lo for lo, _ in bounds),
        highs=tuple(hi for _, hi in bounds),
        slopes=tuple(m for m, _ in pieces),
        offsets=tuple(c for _, c in pieces),
        succ=tuple(succ),
        succ_sets=tuple(frozenset(adj) for adj in succ),
        labels=tuple(labels),
        right=tuple(lo >= a for lo, _ in bounds) if refined else None,
    )


def _compose(space: _Space, loop) -> tuple[list[int], list[tuple]]:
    """A closed walk as vertex ids, checked, with its prefix compositions.

    The loop lists interval labels (or integers i for J_i); consecutive
    intervals, cyclically, must be edges of the covering graph.  prefixes[t]
    is the (slope, offset) of the composition of the first t pieces, for
    t = 0..len(loop); the last one composes the whole walk.
    """
    if not loop:
        raise LoopError("empty loop")
    index = {label: v for v, label in enumerate(space.labels)}
    ids = []
    for item in loop:
        label = f"J{item}" if isinstance(item, int) else str(item)
        if label not in index:
            raise LoopError(
                f"unknown interval {item!r}; intervals are {', '.join(space.labels)}"
            )
        ids.append(index[label])
    prefixes = [(1, 0)]
    for t, v in enumerate(ids):
        u = ids[(t + 1) % len(ids)]
        if u not in space.succ_sets[v]:
            raise LoopError(
                f"no edge {space.labels[v]} -> {space.labels[u]} in the covering graph"
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

    prefixes are the walk's prefix compositions, as `_compose` returns them.
    Returns (x, forward_points), forward_points[t] being the image of x under
    the first t pieces, or None when the composition is a pure translation
    (which a covering walk cannot produce; kept as a guard).  The fixed point
    always lies in the start interval because the composition maps part of
    that interval onto all of it.
    """
    lo = space.lows[s]
    hi = space.highs[s]
    steps = prefixes[:-1]
    alpha, beta = prefixes[-1]
    if alpha != 1:
        x = Fraction(beta) / (1 - alpha)
        if not lo <= x <= hi:
            raise DegenerateRealizationError(
                f"fixed point {x} escaped its start interval [{lo}, {hi}]"
            )
        return x, [a * x + b for a, b in steps]
    if beta != 0:
        return None
    # The identity: every point of the start interval is periodic, but two
    # time-slices may agree at the chosen point and collapse its period.  They
    # agree at finitely many cut points, so probing one point strictly between
    # consecutive cuts finds a full-period representative whenever one exists.
    q = len(steps)
    x0 = (2 * Fraction(lo) + Fraction(hi)) / 3
    pts0 = [a * x0 + b for a, b in steps]
    if _minimal_period(pts0) == q:
        return x0, pts0
    cuts = {Fraction(lo), Fraction(hi)}
    for i, (a1, b1) in enumerate(steps):
        for a2, b2 in steps[i + 1 :]:
            if a1 != a2:
                w = Fraction(b2 - b1) / (a1 - a2)
                if lo < w < hi:
                    cuts.add(w)
    ordered = sorted(cuts)
    for left, right in zip(ordered, ordered[1:]):
        x = (left + right) / 2
        pts = [a * x + b for a, b in steps]
        if _minimal_period(pts) == q:
            return x, pts
    return x0, pts0


def germ_map(pattern: Pattern, germ: Germ) -> Germ:
    """Image of a germ: the image point, with the side carried by the local slope."""
    n = pattern.period
    point, side = germ
    if side == RIGHT:
        if not 1 <= point <= n - 1:
            raise ValueError(f"germ ({point}, R) has no interval to the right")
        i = point
    elif side == LEFT:
        if not 2 <= point <= n:
            raise ValueError(f"germ ({point}, L) has no interval to the left")
        i = point - 1
    else:
        raise ValueError(f"germ side must be L or R, got {side!r}")
    slope = pattern.images[i] - pattern.images[i - 1]
    image_side = side if slope > 0 else (LEFT if side == RIGHT else RIGHT)
    return Germ(pattern.image(point), image_side)


def _germ_interval(germ: Germ) -> int:
    """Index of the basic interval a germ lives in."""
    return germ.point if germ.side == RIGHT else germ.point - 1


def fundamental_loop(pattern: Pattern):
    """The germ orbit of (1, R) and the basic intervals it passes through.

    The germ returns to (1, R) after exactly one full period; the interval
    sequence is a closed walk in the covering graph that realizes the pattern
    itself.
    """
    n = pattern.period
    if n < 2:
        raise PatternError("germ orbits need period at least 2")
    germs = []
    g = Germ(1, RIGHT)
    for _ in range(n):
        germs.append(g)
        g = germ_map(pattern, g)
    intervals = tuple(_germ_interval(g) for g in germs)
    return tuple(germs), intervals


def fundamental_loop_pprime(pattern: Pattern) -> tuple[str, ...]:
    """The fundamental loop over the refined intervals split at the fixed point.

    Interval J_i containing the fixed point a splits into Il = [i, a] and
    Ir = [a, i+1]; all other intervals keep their J labels.  Convergent
    patterns only.
    """
    a, split = fixed_point(pattern)
    germs, intervals = fundamental_loop(pattern)
    labels = []
    for germ, interval in zip(germs, intervals):
        if interval != split:
            labels.append(f"J{interval}")
        elif germ.point < a:
            labels.append("Il")
        else:
            labels.append("Ir")
    return tuple(labels)
