"""The benchmark's own checks: inputs, metric names, workers, oracle."""

import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_twist_calls_are_ordered_by_their_seed():
    keys = {seed: [key for key, _ in workloads.twist_calls(seed)] for seed in (7, 8)}
    assert keys[7] == [key for key, _ in workloads.twist_calls(7)]
    assert keys[7] != keys[8]
    assert sorted(keys[7]) == sorted(keys[8])


def test_twist_spectrum_queries_follow_their_pattern():
    calls = workloads.twist_calls(1)
    spectra = [i for i, (key, _) in enumerate(calls) if key.startswith("spectrum")]
    assert spectra
    for i in spectra:
        argv = calls[i][1]
        assert calls[i - 1][0] == " ".join(argv[1:-2])
        assert len(argv) - 3 <= workloads.SPECTRUM_MAX_PERIOD
        assert argv[-2:] == ["--cap", str(workloads.SPECTRUM_CAP)]


def test_twist_inputs_are_the_192_convergent_patterns():
    patterns = workloads.twist_patterns()
    assert len(patterns) == 192
    assert all(oracle.is_canonical(p) and oracle.is_convergent(p) for p in patterns)


@pytest.mark.parametrize("suite", workloads.SWEEP_SUITES)
def test_sweep_reports_are_identical_across_jobs(suite):
    # the full --slow scale is compared with one recorded digest on every run,
    # at one job in traced runs and at two otherwise
    reports = {
        jobs: workloads.call_cli(["verify", suite, "--max-period", "6", "--jobs", str(jobs)])
        for jobs in (1, 2)
    }
    assert reports[1] == reports[2]
    assert reports[1].startswith("exit 0\n")


def test_workloads_never_ask_for_more_workers_than_cores(monkeypatch):
    for workload in workloads.WORKLOADS:
        for _, argv in workloads.inputs(workload, 1, workloads.JOBS):
            if isinstance(argv, list) and "--jobs" in argv:
                assert int(argv[argv.index("--jobs") + 1]) <= os.cpu_count()

    started = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    import overrot.verify

    monkeypatch.setattr(overrot.verify, "ProcessPoolExecutor", Recording)
    argv = workloads.sweep_argvs()[0][:2] + ["--max-period", "5", "--jobs", str(workloads.JOBS)]
    assert workloads.call_cli(argv).startswith("exit 0\n")
    assert started and all(n <= os.cpu_count() for n in started)


def test_metric_names_and_units():
    name = re.compile(r"[A-Za-z0-9_.-]+")
    unit = re.compile(r"[A-Za-z0-9_/%.-]+")
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()
    }
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert unit.fullmatch(metric["unit"]) and len(metric["unit"]) <= 16
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_every_traced_span_feeds_a_metric():
    for span in tracer.SPANS:
        assert f"{span}.self_s" in run.PER_LAYER


def test_oracle_pair_and_doubling():
    assert oracle.orp_pair((2, 3, 1)) == (1, 3)
    assert oracle.orp_pair((3, 5, 4, 2, 1)) == (2, 5)
    assert oracle.is_doubling((3, 4, 2, 1))
    assert not oracle.is_doubling((2, 3, 4, 1))


def test_self_times_subtract_child_spans():
    spans = tracer.Tracer()
    inner = spans.wrap("inner", lambda: sum(range(20000)))
    outer = spans.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    own = spans.self_times()
    total = (spans.end[0] - spans.start[0]) / 1e9
    assert own["outer"] > 0 and own["inner"] > 0
    assert own["outer"] + own["inner"] == pytest.approx(total)
    assert spans.counters["inner.calls"] == 3
    assert spans.overhead_s() > 0


def test_percentile_interpolates():
    assert run.percentile([5.0], 0.9) == 5.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert run.percentile([0.0, 10.0], 0.9) == pytest.approx(9.0)
