"""Exhaustive verification sweeps over all cyclic patterns up to a period.

Each suite enumerates every canonical pattern in a period range, checks a
family of claims against the forcing machinery, and reports violations.  A
passing report is a machine-checked certificate that the claims hold on the
swept range; the sweeps are exact (orbits are ranked on integer numerators
over one denominator, and `Fraction` appears only at the API boundary), so a
violation is a genuine counterexample, not noise.  The nd/nbs scans go into
one table per process that every cap and every suite reads.  The workers of
a parallel sweep start from it, and after each period they return the rows
they wrote.  A row is closed under forcing, so an nd/nbs certificate rests
on the walk search plus transitivity of forcing (Baldwin 1987; Alseda,
Llibre & Misiurewicz 2.6).  Each process also keeps, per period, the few
closed walks that settled it in the latest scans; a scan replays them
before it searches, realizing and testing each orbit as the search does.
The checkers decide each claim on a row's bits, and build sets and
witnesses only for a claim that fails.
"""

from __future__ import annotations

import itertools
import os
from contextlib import nullcontext
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Iterator, NamedTuple

from .forcing import (
    TwistUpTo,
    _iter_orbits,
    _ranked,
    forced_patterns,
    is_twist_bounded,
    orp_spectrum,
)
from .markov import (
    _covering_space,
    _minimal_period,
    _realize,
    fixed_point,
    fundamental_loop_pprime,
)
from .orders import OrpPair, _star_rank, n_r
from .patterns import (
    Pattern,
    _block_factors,
    _cyclic,
    _flip_images,
    _has_division,
    _integer,
    block_structures,
    canonical,
    has_division,
    is_convergent,
    over_rotation_pair,
    stefan,
)


class NdNbsReport(NamedTuple):
    """Which periods in 3..cap carry forced no-division (nd) and forced
    no-block-structure (nbs) patterns, for one canonical pattern."""

    pattern: Pattern
    cap: int
    nd: frozenset[int]
    nbs: frozenset[int]


class VerificationReport(NamedTuple):
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


def enumerate_patterns(period: int, *, offset: int = 0, stride: int = 1) -> Iterator[Pattern]:
    """All canonical cyclic patterns of the given period, in a fixed order, or
    the shard of them at positions offset, offset + stride, ... of that order.

    Cyclic permutations are generated as cycles starting at 1; each pattern
    is kept only if its one-line images are lexicographically no larger than
    its flip's, so exactly one representative per mirror pair appears.  The
    first entries, pi(1) against n + 1 - pi(n), decide that test unless they
    tie, and only the shard's patterns are built: every shard walks every
    cycle, counting the canonical ones, so the shards split the same stream.
    """
    if _integer(period, "period") < 2:
        raise ValueError(f"period must be at least 2, got {period}")
    if _integer(stride, "stride") < 1 or not 0 <= _integer(offset, "offset") < stride:
        raise ValueError(f"need stride >= 1 and 0 <= offset < stride, got {offset}, {stride}")
    last = period - 2
    skip = offset
    for rest in itertools.permutations(range(2, period + 1)):
        # pi(1) is the first point after 1, pi(n) the one after n, or 1
        j = rest.index(period)
        head = rest[0]
        tail = period + 1 - rest[j + 1] if j < last else period
        if head > tail:
            continue
        if head == tail:
            images = _cycle_images(rest, period)
            if images > _flip_images(images):
                continue
        if skip:
            skip -= 1
            continue
        skip = stride - 1
        yield _cyclic(_cycle_images(rest, period))


def _cycle_images(rest: tuple[int, ...], period: int) -> tuple[int, ...]:
    """One-line images of the cycle (1, *rest), walked from 1: each point
    maps to the next, and the last one keeps the image 1."""
    images, prev = [1] * period, 0
    for x in rest:
        images[prev], prev = x, x - 1
    return tuple(images)


# canonical images -> (top, nd, nbs): periods 3..top are scanned, and bit q of
# nd (nbs) is set when a no-division (no-block-structure) orbit of period q is
# forced.  Unbounded: it is the state the suites of one process share.
_ND_NBS: dict[tuple[int, ...], tuple[int, int, int]] = {}

# row value -> the one tuple that holds it, for every row the table gets: at
# (9, 11), 23,065 rows take 9 values
_ROWS: dict[tuple[int, int, int], tuple[int, int, int]] = {}


# period q -> the closed walks of a refined space whose orbits settled q in
# the latest scans, latest first, at most 8: a scan replays them before it
# searches q.  One store per process, like the table.
_WALKS: dict[int, list[tuple[int, ...]]] = {}


@lru_cache(maxsize=1024)
def _periods(bits: int, cap: int) -> frozenset[int]:
    return frozenset(q for q in range(3, cap + 1) if bits >> q & 1)


@lru_cache(maxsize=64)
def _scan_order(top: int, cap: int) -> tuple[int, ...]:
    """Periods top + 1..cap in the paper's order 4, 6, 3, 8, 10, 5, ..."""
    return tuple(sorted(range(top + 1, cap + 1), key=_star_rank))


def _no_division_walks(images: tuple[int, ...], q: int, convergent: bool) -> Iterator:
    """The period-q orbits of a pattern's map that have no division, as
    `_iter_orbits` yields them (not canonicalized), each with its walk.

    In a division every point moves to the other half, so the orbit makes
    q / 2 half-turns: the orbits at the targets p < q / 2 have none and are
    yielded untested.  Conversely a convergent pattern's orbits at 2p = q alternate
    sides of its one fixed point, and the lower half maps onto the upper
    (over-rotation pairs: Blokh & Misiurewicz, Ergodic Theory Dynam. Systems
    17, 1997); only a divergent pattern's are walked, each one tested."""
    last = (q - 1) // 2 if convergent else q // 2
    for p in range(1, last + 1):
        for orbit, walk in _iter_orbits(images, q, p):
            if 2 * p < q or not _has_division(orbit):
                yield orbit, walk


def _no_division_orbits(images: tuple[int, ...], q: int, convergent: bool) -> Iterator:
    """The orbits of `_no_division_walks`, without their walks."""
    return (orbit for orbit, _ in _no_division_walks(images, q, convergent))


def _replayed(space, walk: tuple[int, ...], q: int) -> tuple[int, ...] | None:
    """The one-line images of the orbit a kept walk realizes in a refined
    space, when the walk is a closed walk in it and its orbit has minimal
    period q and no block structure; else None.

    The walk may come from another pattern's space, so every step is checked
    to be an edge, the closing step first.  succ holds ranges of vertex ids,
    so an id is in range once it heads an edge; only the last id is read as
    a tail before that, and it gets a bound check.  The orbit is realized
    and ranked as the search does it (`markov._realize`, `forcing._ranked`),
    so it is as exact as a searched one."""
    succ, slopes, offsets = space.succ, space.slopes, space.offsets
    u = walk[-1]
    if u >= len(succ):
        return None
    alpha, beta = 1, 0
    prefixes = [(alpha, beta)]
    for v in walk:
        if v not in succ[u]:
            return None
        m = slopes[v]
        alpha, beta = m * alpha, m * beta + offsets[v]
        prefixes.append((alpha, beta))
        u = v
    res = _realize(space, walk[0], prefixes)
    if res is None or _minimal_period(res[1]) != q:
        return None
    orbit = _ranked(res[1])
    return orbit if next(_block_factors(orbit), None) is None else None


def nd_nbs(pattern: Pattern, cap: int) -> NdNbsReport:
    """Scan periods 3..cap for forced no-division / no-block-structure
    patterns; the report is for the canonical representative.  A bit rests
    on the walk search plus transitivity of forcing (Baldwin, Discrete Math.
    67, 1987), as the P-linear map exhibits exactly the forced patterns
    (Alseda, Llibre & Misiurewicz, Combinatorial Dynamics and Entropy in
    Dimension One, 2.6): an nd/nbs orbit found brings its pattern's row along,
    so the row gets only bits a plain scan would find, with fewer scans.
    Periods are scanned in the paper's order 4, 6, 3, 8, 10, 5, ...: an nbs
    orbit of a period early in it forces nbs orbits of every period after it,
    so its row settles those periods unscanned.  Every bit is found or
    brought in from an exact row, so the row does not depend on the order.
    Only orbits without a division can set a bit (`_no_division_walks`).

    Before it searches q, the scan replays the walks that settled q in the
    latest scans (`_WALKS`).  The first that is a closed walk of this
    pattern's refined space and realizes an orbit of minimal period q without
    a block structure (`_replayed`) settles q as a searched one would: any
    closed walk of the space realizes an orbit of the map, so that orbit's
    pattern is forced.  Only when none does is q searched.  The walk that
    settles q, replayed or searched, goes to the front of q's store."""
    if _integer(cap, "cap") < 3:
        raise ValueError(f"cap must be at least 3, got {cap}")
    # keys are canonical images, so a pattern found in the table is its own
    # representative
    row = _ND_NBS.get(pattern.images)
    rep = pattern if row else canonical(pattern)
    top, nd, nbs = row or _ND_NBS.get(rep.images, (2, 0, 0))
    if top < cap:
        convergent = is_convergent(rep)
        space = _covering_space(rep.images, True)
        for q in _scan_order(top, cap):
            # an nbs bit answers q: no block structure rules out division
            # too (a division is a two-block decomposition once q > 2)
            if nbs >> q & 1:
                continue
            walks = _WALKS.setdefault(q, [])
            found = _no_division_walks(rep.images, q, convergent)
            for walk in walks:
                orbit = _replayed(space, walk, q)
                if orbit:
                    found = [(orbit, walk)]
                    break
            for orbit, walk in found:
                no_bs = next(_block_factors(orbit), None) is None
                if not no_bs and nd >> q & 1:
                    continue
                # its pattern B is forced, and so is all B forces: OR in B's
                # row, up to the periods that both rows cover
                b_top, b_nd, b_nbs = _ND_NBS.get(min(orbit, _flip_images(orbit)), (2, 0, 0))
                mask = (2 << min(b_top, cap)) - 1
                nd |= 1 << q | b_nd & mask
                nbs |= no_bs << q | b_nbs & mask
                if nbs >> q & 1:
                    if no_bs:
                        # to the front of q's store, which keeps 8
                        if walk in walks:
                            walks.remove(walk)
                        walks.insert(0, walk)
                        del walks[8:]
                    break
        # the scan at q does not depend on the cap, so every cap shares the row
        row = (cap, nd, nbs)
        _ND_NBS[rep.images] = _ROWS.setdefault(row, row)
    return NdNbsReport(pattern=rep, cap=cap, nd=_periods(nd, cap), nbs=_periods(nbs, cap))


def _violation(pattern: Pattern, claim: str, witness: str) -> dict:
    return {"pattern": str(pattern), "claim": claim, "witness": witness}


_KINDS = {"nd": "no-division", "nbs": "no-block-structure"}


def _forced_periods(
    pattern: Pattern, source: str, wanted: Iterable[int], report: NdNbsReport, kind: str
) -> list[dict]:
    """The claim that a `source` pattern forces a pattern of kind "nd" or
    "nbs" at every period in `wanted`: one violation per period missing from
    that set of the report."""
    found = getattr(report, kind)
    return [
        _violation(
            pattern,
            f"{source} pattern forces a {_KINDS[kind]} pattern of period {s}",
            f"{kind}={sorted(found)}",
        )
        for s in sorted(wanted)
        if s not in found
    ]


def _row_bits(pattern: Pattern, cap: int) -> tuple[int, int]:
    """The nd and nbs bits of a pattern's row, masked to periods 3..cap.  The
    checkers decide their claims on these; a pattern that the table lacks,
    or holds to a smaller cap, is scanned through `nd_nbs`."""
    row = _ND_NBS.get(pattern.images)
    if row is None or row[0] < cap:
        row = _ND_NBS[nd_nbs(pattern, cap).pattern.images]
    mask = (2 << cap) - 8
    return row[1] & mask, row[2] & mask


def _missing_periods(
    pattern: Pattern, cap: int, source: str, wanted: int, found: int, kind: str
) -> list[dict]:
    """`_forced_periods` on bits: the periods of `wanted` missing from `found`,
    the row's bits of that kind.  Only a failed claim builds its report."""
    if not wanted & ~found:
        return []
    report = nd_nbs(pattern, cap)
    return _forced_periods(pattern, source, _periods(wanted, cap), report, kind)


@lru_cache(maxsize=256)
def _down_bits(r: int, cap: int) -> int:
    """The periods 3..cap of `n_r(r, cap)` as bits."""
    return sum(1 << s for s in n_r(r, cap) if 3 <= s <= cap)


def _check_forcing_order(pattern: Pattern, params: dict) -> list[dict]:
    """Forcing goes down the doubled order: a no-division pattern of period m
    forces no-division patterns of every period m dominates, and likewise for
    no-block-structure."""
    cap = params["cap"]
    m = pattern.period
    out = []
    no_div = not _has_division(pattern.images)
    no_bs = next(_block_factors(pattern.images), None) is None
    if not (no_div or no_bs):
        return out
    nd, nbs = _row_bits(pattern, cap)
    below = _down_bits(m, cap) & ~(1 << m)
    if no_div:
        out += _missing_periods(pattern, cap, "no-division", below, nd, "nd")
    if no_bs:
        out += _missing_periods(pattern, cap, "no-block-structure", below, nbs, "nbs")
    return out


@lru_cache(maxsize=256)
def _admissible_rows(cap: int) -> frozenset[tuple[int, int]]:
    """The nd/nbs bit pairs the trichotomy allows at this cap: both empty,
    both equal to a principal down-set, or nd one even step wider than nbs."""
    rows = {(0, 0)}
    for r in range(3, 2 * cap + 3):
        tail = _down_bits(r, cap)
        rows.add((tail, tail))
    for n in range(1, cap + 1):
        rows.add((_down_bits(4 * n + 2, cap), _down_bits(2 * n + 1, cap)))
    return frozenset(rows)


def _check_trichotomy(pattern: Pattern, params: dict) -> list[dict]:
    cap = params["cap"]
    if _row_bits(pattern, cap) in _admissible_rows(cap):
        return []
    report = nd_nbs(pattern, cap)
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
    wanted = _down_bits(m, cap)
    if m % 4 == 2:
        wanted &= ~(1 << m)
    _, nbs = _row_bits(pattern, cap)
    return _missing_periods(pattern, cap, "no-division", wanted, nbs, "nbs")


def _check_stefan_only(pattern: Pattern, params: dict) -> list[dict]:
    """Minimality of the spiral patterns.

    (1) When the least odd period in nbs is m, every forced period-m pattern
    is the period-m spiral, and no odd period strictly between 1 and m is
    forced at all.  At m = 3 this needs no search: the spiral `2 3 1` is the
    only canonical pattern of period 3.  (2) When period 4n+2 is in nd but
    not in nbs, every forced no-division pattern of period 4n+2 (searched
    by `_no_division_orbits`) doubles the period-(2n+1) spiral.
    """
    cap = params["max_period"]
    nd, nbs = _row_bits(pattern, cap)
    out = []
    # the least odd period in nbs, or none (0)
    m = next((q for q in range(3, cap + 1, 2) if nbs >> q & 1), 0)
    if m > 3:
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
        if not nd >> q & 1 or nbs >> q & 1:
            continue
        spiral = stefan(2 * half + 1).images
        orbits = _no_division_orbits(canonical(pattern).images, q, is_convergent(pattern))
        for key in sorted({min(o, _flip_images(o)) for o in orbits}):
            # block sizes come ascending, so size 2 comes first if at all
            size, factor = next(_block_factors(key), (0, ()))
            if size != 2 or min(factor, _flip_images(factor)) != spiral:
                out.append(
                    _violation(
                        pattern,
                        f"every forced no-division period-{q} pattern doubles "
                        f"the period-{2 * half + 1} spiral",
                        str(_cyclic(key)),
                    )
                )
    return out


def _check_lemmas(pattern: Pattern, params: dict) -> list[dict]:
    """Structural side claims.  The two that hold for every period are
    checked on the whole sweep; the divergent, twist and pair-stepping claims
    need spectra, nd/nbs scans or twist verdicts, and stop at the period
    params["claim_max_period"]."""
    claim_max = params["claim_max_period"]
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
        if (2 * pair.p == pair.q) != has_division(pattern):
            out.append(
                _violation(
                    pattern,
                    "a convergent pattern has over-rotation number 1/2 "
                    "exactly when it has a division",
                    f"pair ({pair.p},{pair.q}), division={has_division(pattern)}",
                )
            )

    if m > claim_max:
        return out
    g = gcd(pair.p, pair.q)
    bumped = OrpPair(pair.p // g + 1, pair.q // g + 2)
    stepping = 2 * pair.p < pair.q and bumped.q <= cap
    spectrum = orp_spectrum(pattern, cap) if stepping or not convergent else frozenset()

    if not convergent:
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
        # the nbs claim starts at 3: the spectrum pair (1,2) already witnesses
        # a forced period-2 pattern, which never has a block structure
        report = nd_nbs(pattern, cap)
        out += _forced_periods(pattern, "divergent", range(3, cap + 1), report, "nbs")
    else:
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

    if stepping and bumped not in spectrum:
        out.append(
            _violation(
                pattern,
                f"forces an orbit of over-rotation pair ({bumped.p},{bumped.q})",
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


def _merge_rows(rows: dict) -> None:
    """Merge nd/nbs rows into this process's table, keeping the longer scan
    and holding each row value once."""
    for images, row in rows.items():
        row = _ROWS.setdefault(row, row)
        _ND_NBS[images] = max(row, _ND_NBS.get(images, row))


def _shard_worker(task) -> tuple[list[dict], dict]:
    """One shard's violations, and the nd/nbs rows its (canonical) patterns
    wrote or extended.  The rows the task carries are merged into the table
    first."""
    suite, period, offset, stride, params, known = task
    _merge_rows(known)
    checker = SUITES[suite].checker
    params = dict(params)
    out, rows = [], {}
    for pattern in enumerate_patterns(period, offset=offset, stride=stride):
        before = _ND_NBS.get(pattern.images)
        out.extend(checker(pattern, params))
        # a written row is a new object: rows are interned, and a row is
        # rewritten only to cover a larger cap
        row = _ND_NBS.get(pattern.images)
        if row is not before:
            rows[pattern.images] = row
    return out, rows


def ProcessPoolExecutor(max_workers: int):
    """A process pool whose workers start from this process's nd/nbs table:
    a forked worker inherits it, and a forkserver or spawned one gets it
    pickled once.  Its module is imported only when a sweep starts workers."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(
        max_workers=max_workers, initializer=_merge_rows, initargs=(_ND_NBS,)
    )


def _violation_key(v: dict):
    return (v["claim"], v["pattern"], v["witness"])


def _run_suite(suite: str, params: dict, jobs: int) -> VerificationReport:
    """Run a suite's checker on every pattern of its periods.

    Periods go one at a time, lowest first, and each period's patterns are
    split by stride into one task per worker, with at most one worker per CPU.
    One worker runs its tasks in this process, so caches and tracing see the
    work, and its tasks carry no rows: they read the table itself.  More
    workers run them in one process pool per suite.  Each worker starts from
    this process's nd/nbs table under any start method (fork, forkserver,
    spawn; see `ProcessPoolExecutor`).  A shard returns the rows it wrote,
    which are merged back after each period, keeping the longer scan, so
    later periods and suites reuse the earlier scans.  A task carries the
    rows that shards returned since the pool started, which its worker may
    not have.
    """
    if _integer(jobs, "jobs") < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    periods = range(SUITES[suite].first_period, params["max_period"] + 1)
    workers = min(jobs, os.cpu_count() or 1)
    violations, returned = [], {}
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for period in periods:
            tasks = [
                (suite, period, offset, workers, tuple(params.items()), returned)
                for offset in range(workers)
            ]
            # every task has run before `returned` grows, so none is
            # pickled while it changes
            for part, rows in list((pool.map if pool else map)(_shard_worker, tasks)):
                violations.extend(part)
                _merge_rows(rows)
                if pool:
                    # the table's rows, which are interned
                    returned.update((images, _ND_NBS[images]) for images in rows)
    return VerificationReport(
        suite=suite,
        params=tuple(params.items()),
        violations=tuple(sorted(violations, key=_violation_key)),
    )


def verify_forcing_order(m_max: int = 7, s_max: int = 9, jobs: int = 1) -> VerificationReport:
    """Sweep all patterns of periods 3..m_max against the doubled order up to
    s_max: no-division and no-block-structure forcing both go down it."""
    if not 3 <= _integer(m_max, "m_max") <= _integer(s_max, "s_max"):
        raise ValueError(f"need 3 <= m_max <= s_max, got {m_max}, {s_max}")
    params = {"max_period": m_max, "cap": s_max}
    return _run_suite("forcing-order", params, jobs)


def verify_trichotomy(n_max: int = 7, cap: int = 9, jobs: int = 1) -> VerificationReport:
    """Sweep all patterns of periods 2..n_max: the pair of forced-period sets
    (no-division, no-block-structure) always takes one of three shapes."""
    if not 3 <= _integer(n_max, "n_max") <= _integer(cap, "cap"):
        raise ValueError(f"need 3 <= n_max <= cap, got {n_max}, {cap}")
    params = {"max_period": n_max, "cap": cap}
    return _run_suite("trichotomy", params, jobs)


def verify_refrem(m_max: int = 7, s_max: int = 9, jobs: int = 1) -> VerificationReport:
    """Sweep all no-division patterns of periods 3..m_max: they force
    no-block-structure patterns down the doubled order, including at their
    own period unless it is twice an odd number."""
    if not 3 <= _integer(m_max, "m_max") <= _integer(s_max, "s_max"):
        raise ValueError(f"need 3 <= m_max <= s_max, got {m_max}, {s_max}")
    params = {"max_period": m_max, "cap": s_max}
    return _run_suite("refrem", params, jobs)


def verify_stefan_only(n_max: int = 7, jobs: int = 1) -> VerificationReport:
    """Sweep all patterns of periods 2..n_max for spiral minimality at odd
    periods and doubled-spiral minimality at periods twice an odd."""
    if _integer(n_max, "n_max") < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")
    params = {"max_period": n_max}
    return _run_suite("stefan-only", params, jobs)


def verify_lemmas(n_max: int = 10, cap: int = 9, jobs: int = 1) -> VerificationReport:
    """Sweep the structural side claims: block sizes divide the doubled
    over-rotation count and the period; over-rotation number 1/2 is
    equivalent to division for convergent patterns; divergent patterns force
    (1,q) orbits and no-block-structure patterns at every period; twist
    patterns hit the fixed-point interval from inside and have clean
    fundamental loops; and over-rotation pairs step down by (1,2).  The
    last three need spectra, nd/nbs scans or twist verdicts up to the cap,
    and are checked through period min(cap - 1, n_max), which the report
    states as claim_max_period: 8 at the defaults (10, 9), 9 under --slow
    (10, 10)."""
    if _integer(n_max, "n_max") < 2 or _integer(cap, "cap") < 3:
        raise ValueError(f"need n_max >= 2 and cap >= 3, got {n_max}, {cap}")
    params = {"max_period": n_max, "cap": cap, "claim_max_period": min(cap - 1, n_max)}
    return _run_suite("lemmas", params, jobs)
