"""Acceptance gate: one test per shipping criterion, each printing a verdict.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  These tests exercise the library at its advertised scales; the
full module takes a few minutes of CPU time.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from overrot import (
    OrpPair,
    Pattern,
    TwistUpTo,
    block_structures,
    canonical,
    enumerate_patterns,
    eta,
    flip,
    forces,
    format_cycle,
    format_pattern,
    insert_rotation,
    is_convergent,
    is_doubling,
    is_twist_bounded,
    nd_nbs,
    orp_precedes,
    orp_spectrum,
    over_rotation_number,
    over_rotation_pair,
    parse_cycle,
    parse_pattern,
    pattern_of_orbit,
    stefan,
    verify_forcing_order,
    verify_lemmas,
    verify_refrem,
    verify_trichotomy,
)


def _verdict(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_criterion_1_spiral_patterns_by_formula_for_all_odd_periods_to_101():
    start = time.monotonic()
    for period in range(3, 102, 2):
        spiral = stefan(period)  # the constructor enforces a single cycle
        half = (period - 1) // 2
        assert spiral.image(1) == half + 1
        for i in range(2, half + 2):
            assert spiral.image(i) == 2 * half + 3 - i
        for i in range(half + 2, period + 1):
            assert spiral.image(i) == 2 * half + 2 - i
        assert canonical(spiral) == spiral
        assert block_structures(spiral) == []
        assert over_rotation_pair(spiral) == eta(period)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"spiral sweep took {elapsed:.2f}s"
    _verdict(
        "spiral patterns for odd periods 3..101 match the closed formulas, "
        "have no block structure, and attain the extremal over-rotation pair"
    )


def test_criterion_2_forcing_descends_the_doubled_order_for_periods_to_7():
    start = time.monotonic()
    report = verify_forcing_order(7, 9)
    elapsed = time.monotonic() - start
    assert report.passed, report.violations[:5]
    assert elapsed < 600.0, f"forcing-order sweep took {elapsed:.1f}s"
    _verdict(
        "no-division and no-block-structure forcing both descend the doubled "
        "order for all patterns of period <= 7 against periods <= 9"
    )


def test_criterion_3_forced_period_sets_always_take_one_of_three_shapes():
    report = verify_trichotomy(7, 9)
    assert report.passed, report.violations[:5]

    swap = nd_nbs(Pattern((2, 1)), 8)
    assert swap.nd == frozenset() and swap.nbs == frozenset()

    three = nd_nbs(Pattern((2, 3, 1)), 8)
    assert three.nd == frozenset({3, 5, 7, 8})
    assert three.nbs == frozenset({3, 5, 7, 8})

    doubled = nd_nbs(Pattern((4, 3, 5, 6, 1, 2)), 10)
    assert doubled.nd == frozenset({3, 5, 6, 7, 8, 9, 10})
    assert doubled.nbs == frozenset({3, 5, 7, 8, 9, 10})

    _verdict(
        "forced no-division/no-block-structure period sets form the "
        "trichotomy for all patterns of period <= 7, with the three witness "
        "patterns landing in the three cases"
    )


def test_criterion_4_rotation_insertion_realizes_the_bumped_pair():
    orbit = insert_rotation(Pattern((2, 3, 1)))
    assert orbit.points == (
        Fraction(19, 15),
        Fraction(31, 15),
        Fraction(34, 15),
        Fraction(37, 15),
        Fraction(43, 15),
    )
    got = pattern_of_orbit(orbit)
    assert got == Pattern((3, 5, 4, 2, 1))
    assert over_rotation_pair(got) == OrpPair(2, 5)

    for period in range(2, 8):
        for pattern in enumerate_patterns(period):
            if not is_convergent(pattern):
                continue
            if not isinstance(is_twist_bounded(pattern), TwistUpTo):
                continue
            if over_rotation_number(pattern) >= Fraction(1, 2):
                continue
            pair = over_rotation_pair(pattern)
            inserted = pattern_of_orbit(insert_rotation(pattern))
            assert inserted.period == period + 2, str(pattern)
            assert over_rotation_pair(inserted) == OrpPair(pair.p + 1, period + 2)
            assert not is_doubling(inserted), str(pattern)
    _verdict(
        "inserting a rotation into every twist-verified pattern of period "
        "<= 7 yields a period-(n+2) orbit with over-rotation pair (k+1, n+2) "
        "that is never a doubling"
    )


def test_criterion_5_structural_lemma_sweep_to_period_10_is_clean():
    report = verify_lemmas(10, 9)
    assert report.passed, report.violations[:5]
    _verdict(
        "block-size divisibility, the division/one-half equivalence, "
        "divergent forcing, twist loop structure, and pair stepping hold for "
        "all patterns up to period 10"
    )


def test_criterion_6_over_rotation_spectra_are_downward_closed():
    all_pairs = [OrpPair(p, q) for q in range(2, 10) for p in range(1, q // 2 + 1)]
    for period in range(2, 8):
        for pattern in enumerate_patterns(period):
            spectrum = orp_spectrum(pattern, 9)
            for pair in spectrum:
                for other in all_pairs:
                    if orp_precedes(pair, other):
                        assert other in spectrum, (str(pattern), pair, other)
    _verdict(
        "the over-rotation spectrum of every pattern of period <= 7 is "
        "downward closed in the pair order within periods <= 9"
    )


def test_criterion_7_every_odd_period_pattern_forces_its_spiral():
    for period in (3, 5, 7):
        spiral = stefan(period)
        for pattern in enumerate_patterns(period):
            assert forces(pattern, spiral), str(pattern)
    _verdict(
        "every pattern of period 3, 5, and 7 forces the spiral pattern of "
        "its own period"
    )


def test_criterion_8_no_division_forcing_includes_the_diagonal():
    report = verify_refrem(7, 9)
    assert report.passed, report.violations[:5]
    _verdict(
        "every no-division pattern of period <= 7 forces no-block-structure "
        "patterns down the doubled order, including at its own period except "
        "twice-odd periods"
    )


def test_criterion_9_reports_are_deterministic_and_notation_round_trips():
    serial = json.dumps(verify_trichotomy(6, 9, jobs=1).to_dict(), indent=2)
    again = json.dumps(verify_trichotomy(6, 9, jobs=1).to_dict(), indent=2)
    parallel = json.dumps(verify_trichotomy(6, 9, jobs=2).to_dict(), indent=2)
    assert serial == again == parallel

    command = [
        sys.executable,
        "-m",
        "overrot.cli",
        "verify",
        "trichotomy",
        "--max-period",
        "5",
        "--cap",
        "8",
    ]
    first = subprocess.run(command, capture_output=True, check=True)
    second = subprocess.run(
        command + ["--jobs", "2"], capture_output=True, check=True
    )
    assert first.stdout == second.stdout

    for period in range(2, 9):
        for pattern in enumerate_patterns(period):
            assert parse_pattern(format_pattern(pattern)) == pattern
            assert parse_cycle(format_cycle(pattern)) == pattern
            assert canonical(flip(pattern)) == pattern
    _verdict(
        "verification reports are byte-identical across runs, processes, and "
        "job counts, and pattern notation round-trips for all periods <= 8"
    )


def test_criterion_10_twist_verdicts_hold_at_four_periods_through_period_9():
    start = time.monotonic()
    twist_counts = {}
    for period in range(3, 10):
        twist = []
        for pattern in enumerate_patterns(period):
            if not is_convergent(pattern):
                continue
            verdict = is_twist_bounded(pattern, 4 * period)
            if period <= 8:
                # a competitor of period in (3n, 4n] would turn a twist
                # verdict at the default cap into a non-twist one
                assert type(verdict) is type(is_twist_bounded(pattern)), str(pattern)
            if isinstance(verdict, TwistUpTo):
                twist.append(pattern)
        twist_counts[period] = len(twist)
        for pattern in twist:
            if over_rotation_number(pattern) >= Fraction(1, 2):
                continue
            pair = over_rotation_pair(pattern)
            inserted = pattern_of_orbit(insert_rotation(pattern, 4 * period))
            bumped = OrpPair(pair.p + 1, period + 2)
            assert over_rotation_pair(inserted) == bumped, str(pattern)
            assert not is_doubling(inserted), str(pattern)
    elapsed = time.monotonic() - start
    assert twist_counts == {3: 1, 4: 2, 5: 3, 6: 3, 7: 9, 8: 8, 9: 19}
    assert elapsed < 60.0, f"twist sweep at cap 4n took {elapsed:.1f}s"
    _verdict(
        "twist verdicts at cap 4n for every convergent pattern of period <= 9 "
        "agree with the default cap 3n through period 8, and every twist "
        "pattern below one half inserts a rotation into a non-doubling orbit "
        "of pair (k+1, n+2)"
    )


def test_criterion_11_period_9_patterns_certify_the_nd_nbs_claims_to_period_11():
    # one process at one job, so the three suites share the nd/nbs scans
    start = time.monotonic()
    for sweep in (verify_forcing_order, verify_trichotomy, verify_refrem):
        report = sweep(9, 11, jobs=1)
        assert report.passed, (report.suite, report.violations[:5])
    elapsed = time.monotonic() - start
    assert elapsed < 45.0, f"period-9 nd/nbs sweeps took {elapsed:.1f}s"
    _verdict(
        "forcing descends the doubled order, the forced period sets form the "
        "trichotomy, and no-division patterns force no-block-structure ones, "
        "for all patterns of period <= 9 (20,160 of period 9) against "
        "periods <= 11"
    )
