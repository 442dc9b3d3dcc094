"""Pattern enumeration, forced-period scans, and the verification sweeps."""

import inspect
import itertools
import json

import pytest

import overrot.verify

from overrot import (
    NdNbsReport,
    Pattern,
    VerificationReport,
    canonical,
    enumerate_patterns,
    flip,
    nd_nbs,
    verify_forcing_order,
    verify_lemmas,
    verify_refrem,
    verify_stefan_only,
    verify_trichotomy,
)


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
