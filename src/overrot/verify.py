"""Exhaustive verification sweeps over all cyclic patterns up to a period.

Each suite enumerates every canonical pattern in a period range, checks a
family of claims against the forcing machinery, and reports violations.  A
passing report is a machine-checked certificate that the claims hold on the
swept range; the sweeps are exact (rational arithmetic throughout), so a
violation is a genuine counterexample, not noise.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .forcing import (
    TwistUpTo,
    _iter_realized_points,
    _pattern_from_forward,
    forced_patterns,
    is_twist_bounded,
    orp_spectrum,
)
from .markov import fixed_point, fundamental_loop_pprime
from .orders import OrpPair, n_r, star_precedes
from .patterns import (
    Pattern,
    _flip_images,
    block_structures,
    canonical,
    has_division,
    is_convergent,
    over_rotation_pair,
    stefan,
)


@dataclass(frozen=True)
class NdNbsReport:
    """Which periods in 3..cap carry forced no-division (nd) and forced
    no-block-structure (nbs) patterns, for one canonical pattern."""

    pattern: Pattern
    cap: int
    nd: frozenset[int]
    nbs: frozenset[int]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite: the swept parameters and every violation found."""

    suite: str
    params: tuple[tuple[str, int], ...]
    violations: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "violations": [dict(v) for v in self.violations],
            "pass": self.passed,
        }


def enumerate_patterns(period: int) -> Iterator[Pattern]:
    """All canonical cyclic patterns of the given period, in a fixed order.

    Cyclic permutations are generated as cycles starting at 1; each pattern
    is kept only if its one-line images are lexicographically no larger than
    its flip's, so exactly one representative per mirror pair appears.
    """
    if period < 2:
        raise ValueError(f"period must be at least 2, got {period}")
    for rest in itertools.permutations(range(2, period + 1)):
        cycle = (1,) + rest
        images = [0] * period
        for i in range(period):
            images[cycle[i] - 1] = cycle[(i + 1) % period]
        images = tuple(images)
        if images <= _flip_images(images):
            yield Pattern(images)


@lru_cache(maxsize=None)
def _nd_nbs_cached(images: tuple[int, ...], cap: int):
    pattern = Pattern(images)
    nd = set()
    nbs = set()
    for q in range(3, cap + 1):
        found_nd = False
        for pts in _iter_realized_points(pattern, q):
            forced = _pattern_from_forward(pts)
            if not found_nd and not has_division(forced):
                found_nd = True
                nd.add(q)
            if not block_structures(forced):
                # no block structure rules out division too (a division is a
                # two-block decomposition once the period exceeds 2)
                nd.add(q)
                nbs.add(q)
                break
    return frozenset(nd), frozenset(nbs)


def nd_nbs(pattern: Pattern, cap: int) -> NdNbsReport:
    """Scan periods 3..cap for forced no-division / no-block-structure
    patterns; the report is for the canonical representative."""
    if cap < 3:
        raise ValueError(f"cap must be at least 3, got {cap}")
    rep = canonical(pattern)
    nd, nbs = _nd_nbs_cached(rep.images, cap)
    return NdNbsReport(pattern=rep, cap=cap, nd=nd, nbs=nbs)


def _violation(pattern: Pattern, claim: str, witness: str) -> dict:
    return {"pattern": str(pattern), "claim": claim, "witness": witness}


def _check_forcing_order(pattern: Pattern, params: dict) -> list[dict]:
    """Forcing goes down the doubled order: a no-division pattern of period m
    forces no-division patterns of every period m dominates, and likewise for
    no-block-structure."""
    cap = params["cap"]
    m = pattern.period
    report = nd_nbs(pattern, cap)
    out = []
    no_div = not has_division(pattern)
    no_bs = not block_structures(pattern)
    if not (no_div or no_bs):
        return out
    for s in range(3, cap + 1):
        if not star_precedes(m, s):
            continue
        if no_div and s not in report.nd:
            out.append(
                _violation(
                    pattern,
                    f"no-division pattern forces a no-division pattern of period {s}",
                    f"nd={sorted(report.nd)}",
                )
            )
        if no_bs and s not in report.nbs:
            out.append(
                _violation(
                    pattern,
                    f"no-block-structure pattern forces a no-block-structure "
                    f"pattern of period {s}",
                    f"nbs={sorted(report.nbs)}",
                )
            )
    return out


def _truncated_n_r(r: int, cap: int) -> frozenset[int]:
    return frozenset(s for s in n_r(r, cap) if 3 <= s <= cap)


@lru_cache(maxsize=None)
def _admissible_shapes(cap: int) -> frozenset:
    """The nd/nbs set pairs the trichotomy allows at this cap: both empty,
    both equal to a principal down-set, or nd one even step wider than nbs."""
    shapes = {(frozenset(), frozenset())}
    for r in range(3, 2 * cap + 3):
        tail = _truncated_n_r(r, cap)
        shapes.add((tail, tail))
    for n in range(1, cap + 1):
        shapes.add((_truncated_n_r(4 * n + 2, cap), _truncated_n_r(2 * n + 1, cap)))
    return frozenset(shapes)


def _check_trichotomy(pattern: Pattern, params: dict) -> list[dict]:
    cap = params["cap"]
    report = nd_nbs(pattern, cap)
    if (report.nd, report.nbs) in _admissible_shapes(cap):
        return []
    return [
        _violation(
            pattern,
            "nd/nbs sets form one of the three admissible shapes",
            f"nd={sorted(report.nd)} nbs={sorted(report.nbs)}",
        )
    ]


def _check_refrem(pattern: Pattern, params: dict) -> list[dict]:
    """A no-division pattern of period m forces no-block-structure patterns
    of every period m dominates, and of m itself unless m is twice an odd."""
    cap = params["cap"]
    m = pattern.period
    if has_division(pattern):
        return []
    report = nd_nbs(pattern, cap)
    out = []
    for s in range(3, cap + 1):
        if star_precedes(m, s) or (m == s and m % 4 != 2):
            if s not in report.nbs:
                out.append(
                    _violation(
                        pattern,
                        f"no-division pattern forces a no-block-structure "
                        f"pattern of period {s}",
                        f"nbs={sorted(report.nbs)}",
                    )
                )
    return out


def _check_stefan_only(pattern: Pattern, params: dict) -> list[dict]:
    """Minimality of the spiral patterns.

    (1) When the least odd period in nbs is m, every forced period-m pattern
    is the period-m spiral, and no odd period strictly between 1 and m is
    forced at all.  (2) When period 4n+2 is in nd but not in nbs, every
    forced no-division pattern of period 4n+2 is a doubling whose factor is
    the period-(2n+1) spiral.
    """
    cap = params["max_period"]
    report = nd_nbs(pattern, cap)
    out = []
    odd_nbs = sorted(q for q in report.nbs if q % 2)
    if odd_nbs:
        m = odd_nbs[0]
        spiral = stefan(m)
        for forced in sorted(forced_patterns(pattern, m), key=lambda p: p.images):
            if forced != spiral:
                out.append(
                    _violation(
                        pattern,
                        f"every forced period-{m} pattern is the period-{m} spiral",
                        str(forced),
                    )
                )
        for q in range(3, m, 2):
            if forced_patterns(pattern, q):
                out.append(
                    _violation(
                        pattern,
                        f"no pattern of odd period {q} below {m} is forced",
                        f"forced set at period {q} is nonempty",
                    )
                )
    for half in range(1, (cap - 2) // 4 + 1):
        q = 4 * half + 2
        if q not in report.nd or q in report.nbs:
            continue
        spiral = stefan(2 * half + 1)
        for forced in sorted(forced_patterns(pattern, q), key=lambda p: p.images):
            if has_division(forced):
                continue
            factors = [
                dec.factor
                for dec in block_structures(forced)
                if dec.block_size == 2
            ]
            if not factors or canonical(factors[0]) != spiral:
                out.append(
                    _violation(
                        pattern,
                        f"every forced no-division period-{q} pattern doubles "
                        f"the period-{2 * half + 1} spiral",
                        str(forced),
                    )
                )
    return out


def _check_lemmas(pattern: Pattern, params: dict) -> list[dict]:
    """Structural side claims, each restricted to the range it is cheap on."""
    n_max = params["max_period"]
    cap = params["cap"]
    out = []
    m = pattern.period
    pair = over_rotation_pair(pattern)
    convergent = is_convergent(pattern)

    for dec in block_structures(pattern):
        if (2 * pair.p) % dec.block_size or m % dec.block_size:
            out.append(
                _violation(
                    pattern,
                    "block size divides both the doubled over-rotation count "
                    "and the period",
                    f"block size {dec.block_size}, pair ({pair.p},{pair.q})",
                )
            )

    if convergent:
        if (Fraction(pair.p, pair.q) == Fraction(1, 2)) != has_division(pattern):
            out.append(
                _violation(
                    pattern,
                    "a convergent pattern has over-rotation number 1/2 "
                    "exactly when it has a division",
                    f"pair ({pair.p},{pair.q}), division={has_division(pattern)}",
                )
            )

    if not convergent and m <= min(6, n_max):
        spectrum = orp_spectrum(pattern, cap)
        report = nd_nbs(pattern, cap)
        for q in range(2, cap + 1):
            if OrpPair(1, q) not in spectrum:
                out.append(
                    _violation(
                        pattern,
                        f"divergent pattern forces an orbit of over-rotation "
                        f"pair (1,{q})",
                        f"spectrum={sorted(spectrum)}",
                    )
                )
            # for q = 2 the spectrum pair (1,2) already witnesses a forced
            # period-2 pattern, which never has a block structure
            if q >= 3 and q not in report.nbs:
                out.append(
                    _violation(
                        pattern,
                        f"divergent pattern forces a no-block-structure "
                        f"pattern of period {q}",
                        f"nbs={sorted(report.nbs)}",
                    )
                )

    if convergent and m <= min(7, n_max):
        verdict = is_twist_bounded(pattern)
        if isinstance(verdict, TwistUpTo):
            if m > 2:
                a, split = fixed_point(pattern)
                pre_left = pattern.images.index(split) + 1
                pre_right = pattern.images.index(split + 1) + 1
                if not (pre_left < a or pre_right > a):
                    out.append(
                        _violation(
                            pattern,
                            "twist pattern hits an endpoint of the fixed-point "
                            "interval from that endpoint's side",
                            f"preimages {pre_left},{pre_right}, fixed point {a}",
                        )
                    )
            loop = fundamental_loop_pprime(pattern)
            if len(set(loop)) != len(loop):
                out.append(
                    _violation(
                        pattern,
                        "the fundamental loop of a twist pattern visits every "
                        "refined interval exactly once",
                        " ".join(loop),
                    )
                )

    if m <= min(7, n_max):
        rho = Fraction(pair.p, pair.q)
        if rho < Fraction(1, 2) and rho.denominator + 2 <= cap:
            bumped = OrpPair(rho.numerator + 1, rho.denominator + 2)
            if bumped not in orp_spectrum(pattern, cap):
                out.append(
                    _violation(
                        pattern,
                        f"forces an orbit of over-rotation pair "
                        f"({bumped.p},{bumped.q})",
                        f"pair ({pair.p},{pair.q})",
                    )
                )
    return out


class Suite(NamedTuple):
    """One verification suite: its per-pattern checker, the first period it
    sweeps, and its (max_period, cap) at acceptance scale and under --slow;
    cap is None for suites that take none.  The suite is run by the public
    function verify_<name>, dashes turned into underscores."""

    checker: Callable[[Pattern, dict], list[dict]]
    first_period: int
    defaults: tuple[int, int | None]
    slow: tuple[int, int | None]


SUITES = {
    "forcing-order": Suite(_check_forcing_order, 3, (7, 9), (8, 10)),
    "trichotomy": Suite(_check_trichotomy, 2, (7, 9), (8, 10)),
    "refrem": Suite(_check_refrem, 3, (7, 9), (8, 10)),
    "stefan-only": Suite(_check_stefan_only, 2, (7, None), (8, None)),
    "lemmas": Suite(_check_lemmas, 2, (10, 9), (10, 10)),
}


def _shard_worker(task) -> list[dict]:
    suite, period, offset, stride, params = task
    checker = SUITES[suite].checker
    out = []
    for i, pattern in enumerate(enumerate_patterns(period)):
        if i % stride != offset:
            continue
        out.extend(checker(pattern, dict(params)))
    return out


def _violation_key(v: dict):
    return (v["claim"], v["pattern"], v["witness"])


def _run_suite(suite: str, params: dict, jobs: int) -> VerificationReport:
    """Run a suite's checker on every pattern of its periods, sharded over at
    most one worker process per CPU."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    entry = SUITES[suite]
    periods = range(entry.first_period, params["max_period"] + 1)
    workers = min(jobs, os.cpu_count() or 1)
    violations: list[dict] = []
    if workers == 1:
        for period in periods:
            for pattern in enumerate_patterns(period):
                violations.extend(entry.checker(pattern, params))
    else:
        tasks = [
            (suite, period, offset, workers, tuple(params.items()))
            for period in periods
            for offset in range(workers)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_shard_worker, tasks):
                violations.extend(part)
    violations.sort(key=_violation_key)
    return VerificationReport(
        suite=suite,
        params=tuple(params.items()),
        violations=tuple(violations),
    )


def verify_forcing_order(m_max: int = 7, s_max: int = 9, jobs: int = 1) -> VerificationReport:
    """Sweep all patterns of periods 3..m_max against the doubled order up to
    s_max: no-division and no-block-structure forcing both go down it."""
    if not 3 <= m_max <= s_max:
        raise ValueError(f"need 3 <= m_max <= s_max, got {m_max}, {s_max}")
    params = {"max_period": m_max, "cap": s_max}
    return _run_suite("forcing-order", params, jobs)


def verify_trichotomy(n_max: int = 7, cap: int = 9, jobs: int = 1) -> VerificationReport:
    """Sweep all patterns of periods 2..n_max: the pair of forced-period sets
    (no-division, no-block-structure) always takes one of three shapes."""
    if not 3 <= n_max <= cap:
        raise ValueError(f"need 3 <= n_max <= cap, got {n_max}, {cap}")
    params = {"max_period": n_max, "cap": cap}
    return _run_suite("trichotomy", params, jobs)


def verify_refrem(m_max: int = 7, s_max: int = 9, jobs: int = 1) -> VerificationReport:
    """Sweep all no-division patterns of periods 3..m_max: they force
    no-block-structure patterns down the doubled order, including at their
    own period unless it is twice an odd number."""
    if not 3 <= m_max <= s_max:
        raise ValueError(f"need 3 <= m_max <= s_max, got {m_max}, {s_max}")
    params = {"max_period": m_max, "cap": s_max}
    return _run_suite("refrem", params, jobs)


def verify_stefan_only(n_max: int = 7, jobs: int = 1) -> VerificationReport:
    """Sweep all patterns of periods 2..n_max for spiral minimality at odd
    periods and doubled-spiral minimality at periods twice an odd."""
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")
    params = {"max_period": n_max}
    return _run_suite("stefan-only", params, jobs)


def verify_lemmas(n_max: int = 10, cap: int = 9, jobs: int = 1) -> VerificationReport:
    """Sweep the structural side claims: block sizes divide the doubled
    over-rotation count and the period; over-rotation number 1/2 is
    equivalent to division for convergent patterns; divergent patterns force
    (1,q) orbits and no-block-structure patterns at every period; twist
    patterns hit the fixed-point interval from inside and have clean
    fundamental loops; and over-rotation pairs step down by (1,2)."""
    if n_max < 2 or cap < 2:
        raise ValueError(f"need n_max >= 2 and cap >= 2, got {n_max}, {cap}")
    params = {"max_period": n_max, "cap": cap}
    return _run_suite("lemmas", params, jobs)
