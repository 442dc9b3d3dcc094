"""Pattern enumeration, forced-period scans, and the verification sweeps."""

import copy
import inspect
import itertools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import overrot.verify

from overrot import (
    NdNbsReport,
    Pattern,
    PatternError,
    VerificationReport,
    block_structures,
    canonical,
    enumerate_patterns,
    flip,
    forced_patterns,
    has_division,
    is_convergent,
    is_twist_bounded,
    nd_nbs,
    orp_spectrum,
    over_rotation_pair,
    stefan,
    verify_forcing_order,
    verify_lemmas,
    verify_refrem,
    verify_stefan_only,
    verify_trichotomy,
)
from overrot.forcing import _iter_forced_patterns, _iter_orbits
from overrot.markov import _covering_space
from overrot.orders import n_r, star_precedes
from overrot.patterns import _block_factors, _flip_images, _has_division


def brute_force_canonical_count(n: int) -> int:
    """Count mirror classes of n-cycles straight from the definition."""
    seen = set()
    for images in itertools.permutations(range(1, n + 1)):
        x, steps = 1, 0
        while True:
            x = images[x - 1]
            steps += 1
            if x == 1:
                break
        if steps != n:
            continue
        flipped = tuple(n + 1 - images[n - 1 - i] for i in range(n))
        seen.add(min(images, flipped))
    return len(seen)


def brute_force_stream(n: int) -> list[tuple[int, ...]]:
    """The canonical images of period n in enumeration order, straight from
    the definition: each cycle (1, *rest) in permutation order, kept when its
    images are no larger than its flip's."""
    out = []
    for rest in itertools.permutations(range(2, n + 1)):
        cycle = (1,) + rest
        images = [0] * n
        for i in range(n):
            images[cycle[i] - 1] = cycle[(i + 1) % n]
        images = tuple(images)
        if images <= tuple(n + 1 - images[n - 1 - i] for i in range(n)):
            out.append(images)
    return out


class TestEnumerate:
    def test_small_counts(self):
        assert [str(p) for p in enumerate_patterns(2)] == ["2 1"]
        assert [str(p) for p in enumerate_patterns(3)] == ["2 3 1"]
        assert len(list(enumerate_patterns(4))) == 4

    def test_counts_match_brute_force(self):
        for n in range(2, 8):
            got = sum(1 for _ in enumerate_patterns(n))
            assert got == brute_force_canonical_count(n), n

    def test_all_canonical_and_distinct(self):
        for n in range(2, 7):
            items = list(enumerate_patterns(n))
            assert len(set(items)) == len(items)
            for p in items:
                assert canonical(p) == p
                assert p.period == n

    def test_covers_every_mirror_class(self):
        seen = {p.images for p in enumerate_patterns(5)}
        for images in itertools.permutations(range(1, 6)):
            try:
                p = Pattern(images)
            except Exception:
                continue
            assert canonical(p).images in seen

    def test_rejects_period_below_two(self):
        with pytest.raises(ValueError):
            list(enumerate_patterns(1))

    def test_deterministic_order(self):
        assert [str(p) for p in enumerate_patterns(5)] == [
            str(p) for p in enumerate_patterns(5)
        ]

    def test_the_stream_and_its_shards_match_the_definition(self):
        for n in range(2, 10):
            full = brute_force_stream(n)
            assert [p.images for p in enumerate_patterns(n)] == full, n
            for stride in range(1, 4):
                for offset in range(stride):
                    shard = enumerate_patterns(n, offset=offset, stride=stride)
                    assert [p.images for p in shard] == full[offset::stride], (n, offset, stride)

    @pytest.mark.parametrize("offset, stride", [(0, 0), (0, -1), (-1, 2), (2, 2), (3, 2)])
    def test_rejects_a_bad_shard(self, offset, stride):
        with pytest.raises(ValueError, match="stride"):
            list(enumerate_patterns(5, offset=offset, stride=stride))


class TestCyclicByConstruction:
    """The patterns the library builds from images that are cycles by
    construction skip validation; each must be the pattern the validating
    constructor builds from the same images."""

    @staticmethod
    def _validated(pattern):
        assert type(pattern.images) is tuple
        same = Pattern(pattern.images)
        assert same == pattern and hash(same) == hash(pattern)

    def test_enumerated_patterns_and_their_flips(self):
        for n in range(2, 10):
            for p in enumerate_patterns(n):
                self._validated(p)
                self._validated(canonical(flip(p)))

    def test_forced_patterns(self):
        for p in small_patterns(6):
            for forced in forced_patterns(p, 6):
                self._validated(forced)

    @pytest.mark.parametrize("images", [(), (1, 1), (2, 1, 3), (2, 3, 4, 1, 6, 5), (1.0,)])
    def test_the_public_constructor_still_validates(self, images):
        with pytest.raises(PatternError):
            Pattern(images)


class TestNdNbs:
    def test_period_two_forces_nothing_beyond_itself(self):
        report = nd_nbs(Pattern((2, 1)), 8)
        assert report.nd == frozenset()
        assert report.nbs == frozenset()

    def test_three_cycle(self):
        report = nd_nbs(Pattern((2, 3, 1)), 8)
        assert report.nd == frozenset({3, 5, 7, 8})
        assert report.nbs == frozenset({3, 5, 7, 8})

    def test_doubled_three_cycle_splits_the_two_sets(self):
        report = nd_nbs(Pattern((4, 3, 5, 6, 1, 2)), 10)
        assert report.nd == frozenset({3, 5, 6, 7, 8, 9, 10})
        assert report.nbs == frozenset({3, 5, 7, 8, 9, 10})

    def test_report_is_for_the_canonical_form(self):
        p = Pattern((3, 1, 2))
        report = nd_nbs(p, 8)
        assert report.pattern == Pattern((2, 3, 1))
        assert report.cap == 8
        assert isinstance(report, NdNbsReport)

    def test_flip_invariant(self):
        for images in ((2, 3, 1), (3, 4, 2, 1), (2, 4, 1, 3)):
            p = Pattern(images)
            a = nd_nbs(p, 8)
            b = nd_nbs(flip(p), 8)
            assert (a.nd, a.nbs) == (b.nd, b.nbs)

    def test_nbs_is_contained_in_nd(self):
        for n in range(2, 6):
            for p in enumerate_patterns(n):
                report = nd_nbs(p, 8)
                assert report.nbs <= report.nd

    def test_rejects_small_cap(self):
        with pytest.raises(ValueError):
            nd_nbs(Pattern((2, 1)), 2)


THREE = Pattern((2, 3, 1))


@pytest.mark.parametrize(
    "fn, args, kwargs",
    [
        (nd_nbs, (THREE, 9.5), {}),
        (nd_nbs, (THREE, True), {}),
        (forced_patterns, (THREE, 3.0), {}),
        (orp_spectrum, (THREE, "4"), {}),
        (is_twist_bounded, (THREE, 6.0), {}),
        (stefan, (5.0,), {}),
        (enumerate_patterns, (3.0,), {}),
        (enumerate_patterns, (4,), {"stride": 2.0}),
        (enumerate_patterns, (4,), {"offset": True, "stride": 2}),
        (verify_trichotomy, (5.0, 8), {}),
        (verify_trichotomy, (5, 8.0), {}),
        (verify_trichotomy, (5, 8), {"jobs": "2"}),
        (verify_trichotomy, (5, 8), {"jobs": 2.5}),
        (verify_trichotomy, (5, 8), {"jobs": True}),
        (verify_forcing_order, (5, 8.0), {}),
        (verify_refrem, (5.0, 8), {}),
        (verify_stefan_only, (5.0,), {}),
        (verify_lemmas, (5, 9.0), {}),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_integer_arguments_reject_other_types(fn, args, kwargs):
    # bools too: True is an int to Python, but not a period, cap or job count
    with pytest.raises(ValueError, match="must be an integer"):
        result = fn(*args, **kwargs)
        if inspect.isgenerator(result):
            next(result)


@pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
def test_reports_pickle_and_deepcopy_round_trip(round_trip):
    failing = VerificationReport(
        suite="demo",
        params=(("max_period", 3),),
        violations=({"pattern": "2 3 1", "claim": "a", "witness": "x"},),
    )
    for report in (nd_nbs(Pattern((3, 5, 4, 2, 1)), 6), verify_stefan_only(4), failing):
        back = round_trip(report)
        assert type(back) is type(report)
        assert back == report and repr(back) == repr(report)
    assert round_trip(failing).to_dict() == failing.to_dict()


class TestSuites:
    def test_forcing_order_small(self):
        report = verify_forcing_order(5, 8)
        assert report.passed
        assert report.to_dict()["pass"] is True
        assert report.to_dict()["params"] == {"max_period": 5, "cap": 8}

    def test_trichotomy_small(self):
        report = verify_trichotomy(5, 8)
        assert report.passed
        assert report.suite == "trichotomy"

    def test_refrem_small(self):
        assert verify_refrem(5, 8).passed

    def test_stefan_only_small(self):
        assert verify_stefan_only(5).passed

    def test_lemmas_small(self):
        assert verify_lemmas(6, 8).passed

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            verify_forcing_order(9, 8)
        with pytest.raises(ValueError):
            verify_trichotomy(2, 1)
        with pytest.raises(ValueError):
            verify_stefan_only(2)
        with pytest.raises(ValueError):
            verify_lemmas(5, 8, jobs=0)

    @pytest.mark.parametrize("n_max", [3, 4])
    def test_lemmas_rejects_a_cap_below_three_before_it_sweeps(self, n_max, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("swept before the cap was checked")

        monkeypatch.setattr(overrot.verify, "_run_suite", no_sweep)
        with pytest.raises(ValueError, match="cap >= 3"):
            verify_lemmas(n_max, 2)

    @pytest.mark.parametrize(
        "scale, bound",
        [("defaults", 8), ("slow", 9), ((5, 6), 5), ((10, 5), 4)],
    )
    def test_lemmas_states_its_claim_bound_one_below_the_cap(self, scale, bound, monkeypatch):
        monkeypatch.setattr(overrot.verify, "_run_suite", lambda suite, params, jobs: params)
        if isinstance(scale, str):
            scale = getattr(overrot.verify.SUITES["lemmas"], scale)
        assert verify_lemmas(*scale)["claim_max_period"] == bound

    def test_jobs_do_not_change_the_report(self):
        serial = verify_trichotomy(5, 8, jobs=1)
        parallel = verify_trichotomy(5, 8, jobs=3)
        assert json.dumps(serial.to_dict()) == json.dumps(parallel.to_dict())

    def test_workers_are_clamped_to_the_cpu_count(self, monkeypatch):
        started = []

        class SerialPool:
            """Stands in for the process pool: maps in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(overrot.verify, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(overrot.verify.os, "cpu_count", lambda: 3)
        wide = verify_trichotomy(5, 8, jobs=64)
        assert started == [3]
        serial = verify_trichotomy(5, 8, jobs=1)
        assert json.dumps(wide.to_dict()) == json.dumps(serial.to_dict())

    def test_suite_table_defaults_are_the_public_defaults(self):
        for name, suite in overrot.verify.SUITES.items():
            runner = getattr(overrot.verify, "verify_" + name.replace("-", "_"))
            defaults = tuple(
                p.default
                for p in inspect.signature(runner).parameters.values()
                if p.name != "jobs"
            )
            assert defaults == tuple(v for v in suite.defaults if v is not None)

    def test_report_serialization_shape(self):
        report = verify_stefan_only(4)
        data = report.to_dict()
        assert list(data) == ["suite", "params", "violations", "pass"]
        assert json.loads(json.dumps(data)) == data

    def test_failing_report_serializes_and_sorts(self):
        violations = (
            {"pattern": "2 3 1", "claim": "b", "witness": "y"},
            {"pattern": "2 1", "claim": "a", "witness": "x"},
        )
        report = VerificationReport(
            suite="demo", params=(("max_period", 3),), violations=violations
        )
        assert not report.passed
        assert report.to_dict()["pass"] is False
        assert len(report.to_dict()["violations"]) == 2


def small_patterns(max_period: int):
    return [p for n in range(2, max_period + 1) for p in enumerate_patterns(n)]


class TestNdNbsTable:
    """The one nd/nbs table a process keeps: rows are shared across caps and
    filled from the workers of a parallel sweep."""

    def test_matches_the_definition(self, monkeypatch):
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        for p in small_patterns(6):
            forced = {q: forced_patterns(p, q) for q in range(3, 9)}
            report = nd_nbs(p, 8)
            assert report.nd == {
                q for q, fs in forced.items() if any(not has_division(f) for f in fs)
            }, p
            assert report.nbs == {
                q for q, fs in forced.items() if any(not block_structures(f) for f in fs)
            }, p

    def test_a_smaller_cap_reuses_a_larger_scan(self, monkeypatch):
        patterns = small_patterns(5) + [Pattern((4, 3, 5, 6, 1, 2))]
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        fresh = [nd_nbs(p, 7) for p in patterns]
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        for p in patterns:
            nd_nbs(p, 10)

        def no_scan(*args, **kwargs):
            raise AssertionError("a cap-7 query rescanned")

        monkeypatch.setattr(overrot.verify, "_iter_orbits", no_scan)
        assert [nd_nbs(p, 7) for p in patterns] == fresh

    def test_extending_a_row_equals_a_fresh_scan(self, monkeypatch):
        patterns = small_patterns(5) + [Pattern((4, 3, 5, 6, 1, 2))]
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        fresh = [nd_nbs(p, 10) for p in patterns]
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        for p in patterns:
            nd_nbs(p, 7)
        assert [nd_nbs(p, 10) for p in patterns] == fresh

    def test_a_parallel_sweep_fills_this_process_table(self, monkeypatch):
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        assert verify_trichotomy(6, 8, jobs=2).passed
        for p in small_patterns(6):
            assert overrot.verify._ND_NBS[p.images][0] >= 8, p

        runs = (
            lambda jobs: verify_forcing_order(6, 8, jobs=jobs),
            lambda jobs: verify_refrem(6, 8, jobs=jobs),
            lambda jobs: verify_stefan_only(6, jobs=jobs),
        )
        reused = [json.dumps(run(2).to_dict()) for run in runs]
        fresh = []
        for run in runs:
            monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
            fresh.append(json.dumps(run(1).to_dict()))
        assert reused == fresh

    @pytest.mark.parametrize("method", ["spawn", "forkserver", "fork"])
    def test_workers_start_from_the_table_under_any_start_method(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        # a row no scan would write (nd = {3}, nbs empty breaks the
        # trichotomy): a worker that reads it reports 2 3 1, a rescan does not
        script = (
            "import json, multiprocessing\n"
            "import overrot.verify as v\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "v._ND_NBS[(2, 3, 1)] = (9, 1 << 3, 0)\n"
            "print(json.dumps(v.verify_trichotomy(7, 9, jobs=2).to_dict()))\n"
        )
        report = json.loads(run_fresh(script))
        assert [v["pattern"] for v in report["violations"]] == ["2 3 1"]

    def test_a_two_job_sweep_checks_each_pattern_once(self):
        # stefan-only scans every canonical pattern of periods 2-7, so a shard
        # that dropped one would leave its row out of the table
        script = (
            "import overrot.verify as v\n"
            "v.verify_forcing_order(7, 9, jobs={jobs})\n"
            "v.verify_stefan_only(7, jobs={jobs})\n"
            "print(len(v._ND_NBS), repr(sorted(v._ND_NBS.items())))\n"
        )
        one, two = (run_fresh(script.format(jobs=jobs)) for jobs in (1, 2))
        assert one.split()[0] == "442"
        assert two == one


def run_fresh(script: str) -> str:
    """The stdout of a Python script run in a new interpreter that imports
    this checkout's overrot."""
    src = os.path.dirname(os.path.dirname(overrot.verify.__file__))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    run = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    return run.stdout


def plain_nd_nbs(images, cap):
    """The nd/nbs scan without the table: the forced patterns of every period
    3..cap, as `forced_patterns` finds them, stopping each period at its
    first no-block-structure pattern."""
    nd = nbs = 0
    for q in range(3, cap + 1):
        for forced in _iter_forced_patterns(images, q):
            if not nd >> q & 1 and not _has_division(forced.images):
                nd |= 1 << q
            if next(_block_factors(forced.images), None) is None:
                nd |= 1 << q
                nbs |= 1 << q
                break
    return nd, nbs


CLOSURE_CAP = 10


@pytest.fixture(scope="module")
def plain_rows():
    return {
        p.images: (CLOSURE_CAP, *plain_nd_nbs(p.images, CLOSURE_CAP))
        for p in small_patterns(8)
    }


class TestClosureAgainstPlainScan:
    """Rows closed under forcing equal the plain scan's on every canonical
    pattern of periods 2-8 at cap 10, whatever the table holds beforehand."""

    @pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
    def test_from_an_empty_table(self, plain_rows, order, monkeypatch):
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        for p in small_patterns(8)[::order]:
            nd_nbs(p, CLOSURE_CAP)
        assert overrot.verify._ND_NBS == plain_rows

    def test_from_the_full_table(self, plain_rows, monkeypatch):
        table = dict(plain_rows)
        monkeypatch.setattr(overrot.verify, "_ND_NBS", table)
        for images, row in plain_rows.items():
            del table[images]
            nd_nbs(Pattern(images), CLOSURE_CAP)
            assert table[images] == row, images

    def test_the_closure_skips_scans(self, monkeypatch):
        scans = []

        def counting(images, q, target):
            scans.append((q, target))
            return _iter_orbits(images, q, target=target)

        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        monkeypatch.setattr(overrot.verify, "_WALKS", {})
        monkeypatch.setattr(overrot.verify, "_iter_orbits", counting)
        nd_nbs(Pattern((2, 3, 1)), CLOSURE_CAP)
        scans.clear()
        # no kept walk answers a period (see TestReplay)
        overrot.verify._WALKS.clear()
        # periods go in the paper's order 4, 6, 3, 8, 10, 5, 7, 9; the 3-cycle
        # found at q = 3 brings its nbs bits 8, 10, 5, 7, 9 along; the pattern
        # is convergent, so each q walks the targets p < q / 2
        nd_nbs(Pattern((4, 3, 5, 6, 1, 2)), CLOSURE_CAP)
        assert scans == [(4, 1), (6, 1), (6, 2), (3, 1)]

    def test_a_period_four_row_settles_every_period(self, monkeypatch):
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        verify_forcing_order(7, CLOSURE_CAP)
        monkeypatch.setattr(overrot.verify, "_WALKS", {})
        scans = []

        def counting(images, q, target):
            scans.append((q, target))
            return _iter_orbits(images, q, target=target)

        monkeypatch.setattr(overrot.verify, "_iter_orbits", counting)
        # the first orbit at q = 4 has no block structure, and its row's nbs
        # bits are every period 4 precedes: 3..10; ascending order would
        # scan q = 3 first
        report = nd_nbs(Pattern((2, 3, 4, 5, 6, 7, 8, 1)), CLOSURE_CAP)
        assert scans == [(4, 1)]
        assert report.nbs == report.nd == frozenset(range(3, CLOSURE_CAP + 1))


def hostile_walks(q: int) -> list[tuple[int, ...]]:
    """Walks of length q that a scan at q must not accept on the pattern
    they come from: vertex ids out of range, and, from the refined spaces of
    the patterns of periods 2-5, a walk whose closing step is not an edge
    (every other step is), a closed walk whose orbit has a block structure,
    and a closed walk that retraces an orbit of a smaller period.  Periods
    3, 5 and 7 have no block structure to offer."""
    kinds = {}
    for p in small_patterns(5):
        succ = _covering_space(p.images, True).succ
        for target in range(1, q // 2 + 1):
            for orbit, walk in _iter_orbits(p.images, q, target):
                if next(_block_factors(orbit), None) is not None:
                    kinds.setdefault("block structure", walk)
                for u in succ[walk[-2]]:
                    if walk[0] not in succ[u]:
                        kinds.setdefault("not closed", walk[:-1] + (u,))
        for d in (d for d in range(1, q) if q % d == 0):
            loops = [(v,) for v in range(len(succ)) if v in succ[v]] if d == 1 else [
                walk for target in range(1, d // 2 + 1) for _, walk in _iter_orbits(p.images, d, target)
            ]
            for loop in loops:
                kinds.setdefault("smaller period", loop * (q // d))
    return [(-1,) * q, (99,) * q, *kinds.values()]


@pytest.fixture(scope="module")
def hostile():
    return {q: hostile_walks(q) for q in range(3, CLOSURE_CAP + 1)}


THREE = Pattern((2, 3, 1))


class TestReplay:
    """A scan replays the walks that settled each period in the latest scans
    before it searches it (`_WALKS`); only a closed walk of the pattern's own
    space whose orbit has minimal period q and no block structure settles q,
    so the rows stay the plain scan's."""

    def replayed(self, walk, q):
        return overrot.verify._replayed(_covering_space(THREE.images, True), walk, q)

    def test_a_kept_walk_and_its_rotations_replay_its_orbit(self):
        # the search's walk for the 3-cycle in its own space: 0 -> 1 -> 2 -> 0
        assert ((2, 3, 1), (0, 1, 2)) in _iter_orbits(THREE.images, 3, 1)
        for walk in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            assert self.replayed(walk, 3) == (2, 3, 1), walk

    @pytest.mark.parametrize(
        "walk, q",
        [
            ((0, 1, 2), 4),  # shorter than q: a period below q
            ((3, 3, 3), 3),  # ids out of range
            ((-1, 0, 1), 3),
            ((0, 1, 9), 3),
            ((0, 2, 1), 3),  # 0 -> 2 -> 1 are edges, the closing 1 -> 0 is not
            ((0, 1, 1), 3),  # 1 -> 1 is not an edge
            ((0, 2, 1, 2), 4),  # the doubled 2-cycle 3 4 2 1: a block structure
            ((0, 1, 2, 0, 1, 2), 6),  # the 3-cycle twice: minimal period 3
            ((1, 2, 1, 2), 4),  # a shorter orbit twice
        ],
    )
    def test_a_walk_the_scan_must_not_accept(self, walk, q):
        assert self.replayed(walk, q) is None

    def test_a_kept_walk_settles_a_period_unsearched(self, monkeypatch):
        scans = []

        def counting(images, q, target):
            scans.append((q, target))
            return _iter_orbits(images, q, target=target)

        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        monkeypatch.setattr(overrot.verify, "_WALKS", {})
        monkeypatch.setattr(overrot.verify, "_iter_orbits", counting)
        nd_nbs(Pattern((3, 4, 5, 6, 2, 1)), CLOSURE_CAP)
        assert overrot.verify._WALKS[3] == [(0, 2, 5)]
        scans.clear()
        # as in test_the_closure_skips_scans, but the walk that settled q = 3
        # for the pattern before is a closed walk of this pattern's space
        # too, and its orbit, a 3-cycle, settles q = 3 with no search
        pattern = Pattern((4, 3, 5, 6, 1, 2))
        report = nd_nbs(pattern, CLOSURE_CAP)
        assert scans == [(4, 1), (6, 1), (6, 2)]
        assert overrot.verify._WALKS[3] == [(0, 2, 5)]
        nd, nbs = plain_nd_nbs(pattern.images, CLOSURE_CAP)
        assert (report.nd, report.nbs) == (_bit_set(nd), _bit_set(nbs))

    def test_a_hit_moves_to_the_front(self, monkeypatch):
        junk = [(99, 99, 99), (-1, -1, -1)]
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        monkeypatch.setattr(overrot.verify, "_WALKS", {3: junk + [(1, 2, 0)]})
        scans = []

        def counting(images, q, target):
            scans.append(q)
            return _iter_orbits(images, q, target=target)

        monkeypatch.setattr(overrot.verify, "_iter_orbits", counting)
        nd_nbs(THREE, CLOSURE_CAP)
        assert 3 not in scans
        assert overrot.verify._WALKS[3] == [(1, 2, 0)] + junk

    def test_a_settling_walk_goes_in_at_the_front_of_a_full_store(self, monkeypatch):
        junk = {q: [(99 + k,) * q for k in range(8)] for q in range(3, CLOSURE_CAP + 1)}
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        monkeypatch.setattr(overrot.verify, "_WALKS", {q: list(w) for q, w in junk.items()})
        nd_nbs(THREE, CLOSURE_CAP)
        store = overrot.verify._WALKS
        # 4 and 6 have no orbit without a division; every other period is
        # settled by an nbs orbit the search finds
        assert store[4] == junk[4] and store[6] == junk[6]
        for q in (3, 5, 7, 8, 9, 10):
            assert len(store[q]) == 8 and store[q][1:] == junk[q][:7], q
            assert self.replayed(store[q][0], q) is not None, q

    @pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
    def test_rows_from_an_empty_store(self, plain_rows, order, monkeypatch):
        hits = []
        replayed = overrot.verify._replayed

        def counting(space, walk, q):
            orbit = replayed(space, walk, q)
            hits.append(orbit is not None)
            return orbit

        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        monkeypatch.setattr(overrot.verify, "_WALKS", {})
        monkeypatch.setattr(overrot.verify, "_replayed", counting)
        for p in small_patterns(8)[::order]:
            nd_nbs(p, CLOSURE_CAP)
        assert overrot.verify._ND_NBS == plain_rows
        # the replay took part: it settled periods, and it missed
        assert sum(hits) > 0 and not all(hits)

    @pytest.mark.parametrize("order", [1, -1], ids=["ascending", "descending"])
    def test_rows_with_hostile_walks_in_front(self, plain_rows, hostile, order, monkeypatch):
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        monkeypatch.setattr(overrot.verify, "_WALKS", {})
        store = overrot.verify._WALKS
        for p in small_patterns(8)[::order]:
            # each scan meets every hostile walk first, then the walks that
            # settled the latest scans
            for q, walks in hostile.items():
                kept = [w for w in store.get(q, ()) if w not in walks]
                store[q] = walks + kept[: 8 - len(walks)]
            nd_nbs(p, CLOSURE_CAP)
        assert overrot.verify._ND_NBS == plain_rows

    def test_the_store_keeps_at_most_8_walks_per_period(self, monkeypatch):
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        monkeypatch.setattr(overrot.verify, "_WALKS", {})
        for name in ("forcing-order", "trichotomy", "refrem", "stefan-only"):
            runner = getattr(overrot.verify, "verify_" + name.replace("-", "_"))
            slow = [v for v in overrot.verify.SUITES[name].slow if v is not None]
            assert runner(*slow).passed
        sizes = [len(walks) for walks in overrot.verify._WALKS.values()]
        assert max(sizes) == 8
        assert all(len(w) == q for q, walks in overrot.verify._WALKS.items() for w in walks)


def _bit_set(bits):
    return frozenset(q for q in range(3, CLOSURE_CAP + 1) if bits >> q & 1)


class TestDivisionStratum:
    """Why the nd/nbs scan sets the nd bit untested at the targets p < q / 2,
    and why a convergent pattern's walks only those: an orbit with a division
    has 2p = q, for every pattern, and a convergent pattern's orbits of
    over-rotation pair (p, q) have a division exactly when 2p = q (Blokh &
    Misiurewicz, ETDS 17, 1997), so its orbits at p = q / 2 set no bit."""

    def test_every_half_turn_orbit_has_a_division(self):
        orbits = 0
        for n in range(3, 8):
            for p in filter(is_convergent, enumerate_patterns(n)):
                for q in range(2, 11, 2):
                    for orbit, _ in _iter_orbits(p.images, q, target=q // 2):
                        assert _has_division(orbit), (str(p), q, orbit)
                        orbits += 1
        assert orbits == 120049
        # convergence is needed: this divergent pattern has pair (3, 6) and
        # no division, and the search at target 3 finds its own orbit
        divergent = Pattern((3, 5, 2, 6, 4, 1))
        assert not is_convergent(divergent) and not has_division(divergent)
        assert over_rotation_pair(divergent) == (3, 6)
        assert divergent.images in (o for o, _ in _iter_orbits(divergent.images, 6, target=3))

    def test_no_orbit_below_half_a_turn_has_one(self):
        # divergent patterns included: this half needs no convergence
        orbits = 0
        for n in range(3, 8):
            for p in enumerate_patterns(n):
                for q in range(3, 9):
                    for target in range(1, (q + 1) // 2):
                        for orbit, _ in _iter_orbits(p.images, q, target=target):
                            assert not _has_division(orbit), (str(p), q, orbit)
                            orbits += 1
        assert orbits == 589491


class TestNoDivisionStream:
    """The orbits `_no_division_orbits` yields, canonicalized, are exactly the
    forced patterns without a division."""

    @staticmethod
    def _stream_against_forced_sets(patterns, q, convergent):
        sizes = []
        for p in patterns:
            got = {
                min(o, _flip_images(o))
                for o in overrot.verify._no_division_orbits(p.images, q, convergent)
            }
            want = {f.images for f in forced_patterns(p, q) if not has_division(f)}
            assert got == want, (str(p), q)
            sizes.append(len(got))
        return len(sizes), sum(sizes)

    @pytest.mark.parametrize(
        "top, q, counts", [(7, 6, (192, 761)), (6, 10, (45, 4659))]
    )
    def test_convergent_patterns_walk_the_targets_below_half(self, top, q, counts):
        patterns = [
            p for n in range(3, top + 1) for p in filter(is_convergent, enumerate_patterns(n))
        ]
        assert self._stream_against_forced_sets(patterns, q, True) == counts

    def test_divergent_patterns_test_each_orbit(self):
        patterns = [
            p for n in range(3, 8) for p in enumerate_patterns(n) if not is_convergent(p)
        ]
        assert self._stream_against_forced_sets(patterns, 6, False) == (249, 4584)


class TestConvergentNdAgainstSpectra:
    """A convergent pattern forces a no-division pattern of period q >= 3
    exactly when its over-rotation spectrum holds a pair (p, q) with 2p < q:
    the rows checked against `orp_spectrum`, a search of its own, whatever
    the table holds beforehand."""

    CAP = 9

    @pytest.fixture(scope="class")
    def expected(self):
        return {
            p.images: {
                pair.q for pair in orp_spectrum(p, self.CAP) if pair.q >= 3 and 2 * pair.p < pair.q
            }
            for n in range(3, 8)
            for p in filter(is_convergent, enumerate_patterns(n))
        }

    def test_from_an_empty_table(self, expected, monkeypatch):
        for images, nd in expected.items():
            monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
            assert nd_nbs(Pattern(images), self.CAP).nd == nd, images
        assert len(expected) == 192

    def test_from_the_full_table(self, expected, monkeypatch):
        table = {}
        monkeypatch.setattr(overrot.verify, "_ND_NBS", table)
        for p in small_patterns(7):
            nd_nbs(p, self.CAP)
        for images, nd in expected.items():
            del table[images]
            assert nd_nbs(Pattern(images), self.CAP).nd == nd, images


class TestPeriodDispatch:
    def test_each_period_carries_the_rows_below_it(self, monkeypatch):
        started, calls = [], []

        class SerialPool:
            """Stands in for the process pool: records each map call."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                calls.append([(task[1], dict(task[5])) for task in tasks])
                return map(fn, tasks)

        monkeypatch.setattr(overrot.verify, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(overrot.verify.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        assert verify_forcing_order(6, 8, jobs=2).passed
        assert started == [2]
        assert [[period for period, _ in call] for call in calls] == [
            [n, n] for n in range(3, 7)
        ]
        table = overrot.verify._ND_NBS
        for call in calls:
            for period, known in call:
                # forcing-order scans exactly the no-division patterns
                below = {
                    p.images
                    for p in small_patterns(period - 1)
                    if p.period >= 3 and not has_division(p)
                }
                assert set(known) == below, period
                assert all(known[images] == table[images] for images in below)


    def test_one_job_tasks_carry_no_rows(self, monkeypatch):
        known = []
        shard_worker = overrot.verify._shard_worker

        def recording(task):
            known.append(task[5])
            return shard_worker(task)

        monkeypatch.setattr(overrot.verify, "_shard_worker", recording)
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        assert verify_forcing_order(6, 8, jobs=1).passed
        # one worker is this process: its tasks read the table itself
        assert known == [{}] * 4
        assert len(overrot.verify._ND_NBS) == sum(
            1 for p in small_patterns(6) if p.period >= 3 and not has_division(p)
        )


class TestRowTraffic:
    """A parallel sweep's workers start from the table, so tasks and shards
    carry only rows that a worker may not hold, and each row value is held
    once."""

    def test_a_sweep_over_known_rows_ships_none(self, monkeypatch):
        carried, returned = [], []

        class RecordingPool:
            """Stands in for the process pool: records what crosses it."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                carried.extend(dict(task[5]) for task in tasks)
                for task in tasks:
                    part, rows = fn(task)
                    returned.append(dict(rows))
                    yield part, rows

        monkeypatch.setattr(overrot.verify, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(overrot.verify.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        assert verify_trichotomy(6, 8, jobs=2).passed
        assert any(carried) and any(returned)
        carried.clear()
        returned.clear()
        # refrem reads only rows of cap 8 that trichotomy wrote
        assert verify_refrem(6, 8, jobs=2).passed
        assert carried == returned == [{}] * 8

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_row_value_is_held_once(self, jobs, monkeypatch):
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        for name, suite in overrot.verify.SUITES.items():
            if name == "lemmas":
                continue
            runner = getattr(overrot.verify, "verify_" + name.replace("-", "_"))
            slow = [v for v in suite.slow if v is not None]
            assert runner(*slow, jobs=jobs).passed
        rows = list(overrot.verify._ND_NBS.values())
        assert len(rows) == 2986
        assert len({id(row) for row in rows}) == len(set(rows))

    def test_a_scan_holds_its_row_value_once(self, monkeypatch):
        monkeypatch.setattr(overrot.verify, "_ND_NBS", {})
        for p in small_patterns(6):
            nd_nbs(p, 8)
        rows = list(overrot.verify._ND_NBS.values())
        assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)


def _claims_under_a_row(checker, images, params, monkeypatch, row=(9, 0, 0)):
    """A checker's violations when the table holds `row` for `images` (by
    default: it forces nothing up to cap 9), sorted the way a report sorts
    them."""
    monkeypatch.setattr(overrot.verify, "_ND_NBS", {images: row})
    out = checker(Pattern(images), params)
    return sorted(out, key=overrot.verify._violation_key)


def _missing(pattern, claim, witness, periods):
    return [
        {"pattern": pattern, "claim": claim.format(q), "witness": witness}
        for q in periods
    ]


class TestClaimViolations:
    """Every real sweep passes, so these pin the violation strings under an
    injected row that forces nothing."""

    def test_forcing_order(self, monkeypatch):
        got = _claims_under_a_row(
            overrot.verify._check_forcing_order, (2, 3, 1), {"cap": 9}, monkeypatch
        )
        assert len(got) == 8
        assert {
            "pattern": "2 3 1",
            "claim": "no-division pattern forces a no-division pattern of period 5",
            "witness": "nd=[]",
        } in got
        want = _missing(
            "2 3 1",
            "no-division pattern forces a no-division pattern of period {}",
            "nd=[]",
            (5, 7, 8, 9),
        ) + _missing(
            "2 3 1",
            "no-block-structure pattern forces a no-block-structure pattern of period {}",
            "nbs=[]",
            (5, 7, 8, 9),
        )
        assert got == sorted(want, key=overrot.verify._violation_key)

    def test_refrem(self, monkeypatch):
        got = _claims_under_a_row(
            overrot.verify._check_refrem, (2, 3, 1), {"cap": 9}, monkeypatch
        )
        assert got == _missing(
            "2 3 1",
            "no-division pattern forces a no-block-structure pattern of period {}",
            "nbs=[]",
            (3, 5, 7, 8, 9),
        )

    def test_divergent_lemma(self, monkeypatch):
        params = {"max_period": 4, "cap": 9, "claim_max_period": 4}
        got = _claims_under_a_row(
            overrot.verify._check_lemmas, (3, 1, 4, 2), params, monkeypatch
        )
        assert got == _missing(
            "3 1 4 2",
            "divergent pattern forces a no-block-structure pattern of period {}",
            "nbs=[]",
            range(3, 10),
        )

    @staticmethod
    def _stefan_only(forced, nd, nbs, monkeypatch, orbits=None):
        """stefan-only's violations on `2 3 1` at cap 9 when the table row has
        the periods `nd` and `nbs`, `forced` maps a period to its forced set
        (claim 1) and `orbits` maps one to its no-division orbits (claim 2)."""
        monkeypatch.setattr(
            overrot.verify, "forced_patterns", lambda pattern, q: forced.get(q, ())
        )
        monkeypatch.setattr(
            overrot.verify,
            "_no_division_orbits",
            lambda images, q, convergent: (orbits or {}).get(q, ()),
        )
        row = (9, sum(1 << q for q in nd), sum(1 << q for q in nbs))
        return _claims_under_a_row(
            overrot.verify._check_stefan_only,
            (2, 3, 1),
            {"max_period": 9},
            monkeypatch,
            row,
        )

    def test_stefan_only_least_odd_period_forces_only_its_spiral(self, monkeypatch):
        other = Pattern((2, 3, 4, 5, 1))
        forced = {5: [stefan(5), other]}
        got = self._stefan_only(forced, {5}, {5}, monkeypatch)
        assert got == [
            {
                "pattern": "2 3 1",
                "claim": "every forced period-5 pattern is the period-5 spiral",
                "witness": "2 3 4 5 1",
            }
        ]

    def test_stefan_only_no_odd_period_below_the_least(self, monkeypatch):
        forced = {3: [stefan(3)], 5: [stefan(5)]}
        got = self._stefan_only(forced, {3, 5}, {5}, monkeypatch)
        assert got == [
            {
                "pattern": "2 3 1",
                "claim": "no pattern of odd period 3 below 5 is forced",
                "witness": "forced set at period 3 is nonempty",
            }
        ]

    def test_stefan_only_no_division_period_six_doubles_the_three_spiral(
        self, monkeypatch
    ):
        # no division and no block structure, so it doubles nothing
        lone = Pattern((2, 3, 4, 5, 6, 1))
        assert not has_division(lone) and not block_structures(lone)
        got = self._stefan_only({}, {6}, (), monkeypatch, orbits={6: [lone.images]})
        assert got == [
            {
                "pattern": "2 3 1",
                "claim": "every forced no-division period-6 pattern doubles "
                "the period-3 spiral",
                "witness": "2 3 4 5 6 1",
            }
        ]


# The checkers as they decided their claims on frozensets, before they read
# the row's bits: the oracle of the bit path.


def truncated_n_r(r, cap):
    return frozenset(s for s in n_r(r, cap) if 3 <= s <= cap)


def frozenset_forcing_order(pattern, params):
    cap = params["cap"]
    m = pattern.period
    out = []
    no_div = not _has_division(pattern.images)
    no_bs = next(_block_factors(pattern.images), None) is None
    if not (no_div or no_bs):
        return out
    report = nd_nbs(pattern, cap)
    below = truncated_n_r(m, cap) - {m}
    forced = overrot.verify._forced_periods
    if no_div:
        out += forced(pattern, "no-division", below, report, "nd")
    if no_bs:
        out += forced(pattern, "no-block-structure", below, report, "nbs")
    return out


def frozenset_admissible_shapes(cap):
    shapes = {(frozenset(), frozenset())}
    for r in range(3, 2 * cap + 3):
        tail = truncated_n_r(r, cap)
        shapes.add((tail, tail))
    for n in range(1, cap + 1):
        shapes.add((truncated_n_r(4 * n + 2, cap), truncated_n_r(2 * n + 1, cap)))
    return frozenset(shapes)


def frozenset_trichotomy(pattern, params):
    cap = params["cap"]
    report = nd_nbs(pattern, cap)
    if (report.nd, report.nbs) in frozenset_admissible_shapes(cap):
        return []
    return [
        overrot.verify._violation(
            pattern,
            "nd/nbs sets form one of the three admissible shapes",
            f"nd={sorted(report.nd)} nbs={sorted(report.nbs)}",
        )
    ]


def frozenset_refrem(pattern, params):
    cap = params["cap"]
    m = pattern.period
    if has_division(pattern):
        return []
    wanted = truncated_n_r(m, cap)
    if m % 4 == 2:
        wanted -= {m}
    return overrot.verify._forced_periods(
        pattern, "no-division", wanted, nd_nbs(pattern, cap), "nbs"
    )


def frozenset_stefan_only(pattern, params):
    violation = overrot.verify._violation
    cap = params["max_period"]
    report = nd_nbs(pattern, cap)
    out = []
    odd_nbs = sorted(q for q in report.nbs if q % 2)
    if odd_nbs:
        m = odd_nbs[0]
        if m > 3:
            spiral = stefan(m)
            for forced in sorted(forced_patterns(pattern, m), key=lambda p: p.images):
                if forced != spiral:
                    out.append(
                        violation(
                            pattern,
                            f"every forced period-{m} pattern is the period-{m} spiral",
                            str(forced),
                        )
                    )
        for q in range(3, m, 2):
            if forced_patterns(pattern, q):
                out.append(
                    violation(
                        pattern,
                        f"no pattern of odd period {q} below {m} is forced",
                        f"forced set at period {q} is nonempty",
                    )
                )
    rep = report.pattern
    for half in range(1, (cap - 2) // 4 + 1):
        q = 4 * half + 2
        if q not in report.nd or q in report.nbs:
            continue
        spiral = stefan(2 * half + 1).images
        orbits = overrot.verify._no_division_orbits(rep.images, q, is_convergent(rep))
        for key in sorted({min(o, _flip_images(o)) for o in orbits}):
            size, factor = next(_block_factors(key), (0, ()))
            if size != 2 or min(factor, _flip_images(factor)) != spiral:
                out.append(
                    violation(
                        pattern,
                        f"every forced no-division period-{q} pattern doubles "
                        f"the period-{2 * half + 1} spiral",
                        str(Pattern(key)),
                    )
                )
    return out


ORACLE_CAP = 9

# suite -> the frozenset formulation of its checker, and its parameters
BIT_CHECKERS = {
    "forcing-order": (frozenset_forcing_order, {"cap": ORACLE_CAP}),
    "trichotomy": (frozenset_trichotomy, {"cap": ORACLE_CAP}),
    "refrem": (frozenset_refrem, {"cap": ORACLE_CAP}),
    "stefan-only": (frozenset_stefan_only, {"max_period": ORACLE_CAP}),
}


class TestClaimsOnBits:
    """The checkers decide each claim on the row's bits, masked to 3..cap,
    and build sets and witnesses only for a failed claim.  Under rows with
    bits flipped at random (below 3 and above the cap too, and rows that
    stop below the cap, which the checker extends by a scan), each gives
    the violations of the frozenset formulation it replaced."""

    @given(
        pattern=st.sampled_from(small_patterns(7)),
        top=st.integers(ORACLE_CAP - 2, ORACLE_CAP + 2),
        nd_flips=st.integers(0, (1 << ORACLE_CAP + 4) - 1),
        nbs_flips=st.integers(0, (1 << ORACLE_CAP + 4) - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_checker_matches_the_frozenset_formulation(
        self, pattern, top, nd_flips, nbs_flips
    ):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(overrot.verify, "_ND_NBS", {})
            report = nd_nbs(pattern, top)
            row = (
                top,
                sum(1 << q for q in report.nd) ^ nd_flips,
                sum(1 << q for q in report.nbs) ^ nbs_flips,
            )
            for name, (oracle, params) in BIT_CHECKERS.items():
                suite = overrot.verify.SUITES[name]
                if pattern.period < suite.first_period:
                    continue
                got = _claims_under_a_row(suite.checker, pattern.images, params, mp, row)
                want = _claims_under_a_row(oracle, pattern.images, params, mp, row)
                assert got == want, name

    @pytest.mark.parametrize("cap", range(3, 17))
    def test_the_admissible_rows_are_the_admissible_shapes(self, cap):
        assert overrot.verify._admissible_rows(cap) == {
            (sum(1 << q for q in nd), sum(1 << q for q in nbs))
            for nd, nbs in frozenset_admissible_shapes(cap)
        }


class TestSpiralAtPeriodThree:
    """stefan-only searches no forced set at period 3: the spiral is the only
    canonical pattern there, so claim (1) holds at m = 3 without a search."""

    def test_the_spiral_is_the_only_canonical_pattern_of_period_three(self):
        assert list(enumerate_patterns(3)) == [stefan(3)]

    @pytest.mark.parametrize(
        "images, cap, searched",
        [
            ((2, 3, 1), 9, []),
            # 6 is in nd but not in nbs, so claim (2) still walks period 6
            ((2, 5, 8, 7, 6, 4, 3, 1), 8, [6]),
        ],
    )
    def test_least_odd_period_three_searches_no_period_three_set(
        self, images, cap, searched, monkeypatch
    ):
        pattern = Pattern(images)
        report = nd_nbs(pattern, cap)
        assert min(q for q in report.nbs if q % 2) == 3
        periods = []
        no_division_orbits = overrot.verify._no_division_orbits

        def recording(pattern, q):
            periods.append(q)
            return forced_patterns(pattern, q)

        def recording_orbits(images, q, convergent):
            periods.append(q)
            return no_division_orbits(images, q, convergent)

        monkeypatch.setattr(overrot.verify, "forced_patterns", recording)
        monkeypatch.setattr(overrot.verify, "_no_division_orbits", recording_orbits)
        assert overrot.verify._check_stefan_only(pattern, {"max_period": cap}) == []
        assert periods == searched


def _report(nd, nbs):
    return NdNbsReport(
        pattern=Pattern((2, 3, 1)), cap=9, nd=frozenset(nd), nbs=frozenset(nbs)
    )


class TestForcedPeriods:
    """The one helper behind the forcing-order, refrem and divergent claims."""

    def test_nothing_missing_gives_no_violation(self):
        report = _report({3, 5, 7}, {3, 5})
        forced = overrot.verify._forced_periods
        assert forced(Pattern((2, 3, 1)), "no-division", {5, 7}, report, "nd") == []
        assert forced(Pattern((2, 3, 1)), "divergent", (), report, "nbs") == []

    def test_one_violation_per_missing_period_in_ascending_order(self):
        report = _report({9, 3}, {4})
        got = overrot.verify._forced_periods(
            Pattern((2, 3, 1)), "no-division", [9, 7, 5, 3], report, "nd"
        )
        assert got == [
            {
                "pattern": "2 3 1",
                "claim": f"no-division pattern forces a no-division pattern of period {s}",
                "witness": "nd=[3, 9]",
            }
            for s in (5, 7)
        ]

    def test_kind_picks_the_set_and_its_name(self):
        report = _report({5}, {7})
        got = overrot.verify._forced_periods(
            Pattern((2, 3, 1)), "no-division", {5, 7}, report, "nbs"
        )
        assert got == [
            {
                "pattern": "2 3 1",
                "claim": "no-division pattern forces a no-block-structure "
                "pattern of period 5",
                "witness": "nbs=[7]",
            }
        ]


def down_set(r, cap):
    """The periods of `verify._down_bits(r, cap)`."""
    bits = overrot.verify._down_bits(r, cap)
    return {s for s in range(cap + 1) if bits >> s & 1}


class TestClaimPeriodSets:
    """The down-sets the checkers ask of the row are the period sets the
    star-order loops they replaced used to scan."""

    @pytest.mark.parametrize("cap", [9, 16])
    def test_forcing_order_scans_the_strict_down_set(self, cap):
        for m in range(3, cap + 1):
            wanted = down_set(m, cap) - {m}
            assert wanted == {s for s in range(3, cap + 1) if star_precedes(m, s)}, m

    @pytest.mark.parametrize("cap", [9, 16])
    def test_refrem_keeps_its_own_period_unless_twice_odd(self, cap):
        for m in range(3, cap + 1):
            wanted = down_set(m, cap)
            if m % 4 == 2:
                wanted -= {m}
            assert wanted == {
                s
                for s in range(3, cap + 1)
                if star_precedes(m, s) or (m == s and m % 4 != 2)
            }, m
