"""Cold-process benchmark of overrot.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src`.
Every pass of a workload runs in a fresh interpreter, so each pays the
import and the fill of the library's caches, as a CLI user does.

--trace 0 starts SETUP_SAMPLES set-up-only interpreters, then passes until
the next one would end after S seconds from the start (at least one), and
reports the end-to-end metrics.  --trace 1 makes one traced pass and the
fixed realization probe (for sweep also two untraced passes, at one job and
at two), and reports the per-module metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with the correctness tally and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

PASS_TIMEOUT_S = 150
SETUP_SAMPLES = 25

# name: unit; see README.md for what each measures
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name: (unit, workloads that exercise it, end-to-end metric it should move)
PER_LAYER = {
    "forcing.is_twist_bounded.self_s": ("s", "twist", "twist.wall_s"),
    "forcing.is_twist_bounded.calls": ("count", "twist", "twist.wall_s"),
    "forcing.is_twist_bounded.twist_verdicts": ("count", "twist", "twist.wall_s"),
    "forcing.insert_rotation.self_s": ("s", "twist", "twist.wall_s"),
    "forcing.insert_rotation.calls": ("count", "twist", "twist.wall_s"),
    "forcing.forced_patterns.self_s": ("s", "sweep", "sweep.wall_s, sweep.peak_rss_mb"),
    "forcing.forced_patterns.calls": ("count", "sweep", "sweep.wall_s"),
    "forcing.forced_patterns.patterns_returned": ("count", "sweep", "sweep.wall_s"),
    "forcing.orp_spectrum.self_s": ("s", "twist", "twist.wall_s"),
    "forcing.orp_spectrum.calls": ("count", "twist", "twist.wall_s"),
    "forcing.orp_spectrum.pairs_returned": ("count", "twist", "twist.wall_s"),
    "forcing.realize_loop.us_per_orbit": ("us", "probe", "sweep.wall_s"),
    "forcing.pattern_of_orbit.us_per_orbit": ("us", "probe", "sweep.wall_s"),
    "forcing.cache_hit_ratio": ("ratio", "sweep twist", "sweep.wall_s"),
    "verify.nd_nbs.self_s": ("s", "sweep", "sweep.wall_s"),
    "verify.nd_nbs.calls": ("count", "sweep", "sweep.wall_s"),
    "verify.cache_hit_ratio": ("ratio", "sweep", "sweep.wall_s"),
    "verify.suite.self_s": ("s", "sweep", "sweep.wall_s"),
    "verify.enumerate_patterns.self_s": ("s", "sweep", "sweep.wall_s"),
    "verify.enumerate_patterns.patterns": ("count", "sweep", "sweep.wall_s"),
    "verify.shard_speedup": ("ratio", "sweep", "sweep.wall_s"),
    "patterns.self_s": ("s", "sweep twist", "sweep.wall_s"),
    "patterns.calls": ("count", "sweep twist", "sweep.wall_s"),
    "markov.self_s": ("s", "twist sweep", "twist.wall_s"),
    "markov.calls": ("count", "twist sweep", "twist.wall_s"),
    "orders.self_s": ("s", "sweep", "sweep.wall_s"),
    "orders.calls": ("count", "sweep", "sweep.wall_s"),
    "cli.main.self_s": ("s", "sweep twist", "sweep.wall_s"),
    "bench.tracing_overhead_s": ("s", "sweep twist", "none"),
}


def spawn(*args: str) -> dict:
    """Run one fresh interpreter on workloads.py and return its JSON line."""
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()), PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "workloads.py"), *args]
    done = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"pass {args} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def run_pass(workload: str, seed: int, *options: str) -> dict:
    return spawn(workload, str(seed), repr(workloads.now()), *options)


def percentile(values: list[float], fraction: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = fraction * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(workload: str, seed: int, seconds: int):
    started = workloads.now()
    setups = [run_pass(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    passes = []
    while True:
        begun = workloads.now()
        passes.append(run_pass(workload, seed))
        ended = workloads.now()
        if ended + (ended - begun) > started + seconds:
            break
    latencies = [ms for p in passes for ms in p["latencies_ms"]]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = {
        "wall_s": f"{len(passes)} passes; call latency p50 {percentile(latencies, 0.5):.3f} ms,"
        f" p90 {percentile(latencies, 0.9):.3f} ms ({len(latencies)} calls)",
        "setup_s": f"{len(setups)} samples",
        "peak_rss_mb": f"{len(passes)} passes",
    }
    return passes, metrics, notes


def per_layer(workload: str, seed: int):
    """One traced pass, the probe and, for sweep, the shard speed-up.  The
    traced sweep runs with one job, since worker spans are not kept."""
    jobs = ["--jobs", "1"] if workload == "sweep" else []
    traced = run_pass(workload, seed, *jobs, "--trace")
    passes = [traced]
    speedup = 0.0
    if workload == "sweep":
        plain = run_pass(workload, seed, *jobs)
        sharded = run_pass(workload, seed, "--jobs", str(workloads.JOBS))
        passes += [plain, sharded]
        speedup = plain["wall_s"] / sharded["wall_s"]
    probe = spawn("probe")
    metrics = dict(traced["counters"])
    metrics.update({f"{span}.self_s": traced["self_s"].get(span, 0.0) for span in tracer.SPANS})
    metrics.update(
        {
            "forcing.realize_loop.us_per_orbit": probe["realize_loop_us"],
            "forcing.pattern_of_orbit.us_per_orbit": probe["pattern_of_orbit_us"],
            "forcing.cache_hit_ratio": traced["cache_hit_ratio"]["forcing"],
            "verify.cache_hit_ratio": traced["cache_hit_ratio"]["verify"],
            "verify.shard_speedup": speedup,
            "bench.tracing_overhead_s": traced["overhead_s"],
        }
    )
    metrics = {name: metrics.get(name, 0) for name in PER_LAYER}
    notes = {name: f"{PER_LAYER[name][1]} -> {PER_LAYER[name][2]}" for name in PER_LAYER}
    notes["forcing.realize_loop.us_per_orbit"] += f" ({probe['walks']} walks)"
    notes["forcing.pattern_of_orbit.us_per_orbit"] += f" ({probe['orbits']} orbits)"
    return passes, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not Path("src/overrot/__init__.py").is_file():
        print("error: run from the root of an overrot checkout (no src/overrot)", file=sys.stderr)
        return 2
    try:
        if args.trace:
            passes, metrics, notes = per_layer(args.workload, args.seed)
            units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        else:
            passes, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)
            units = END_TO_END
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failures = [msg for p in passes for msg in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        shown = f"{value:14.6f}" if isinstance(value, float) else f"{value:14d}"
        print(f"  {name:44} {shown} {units[name]:6} {notes[name]}")
    print(f"  outputs failing checks: {failed} of {attempted}")
    for msg in failures:
        print(f"  FAIL {msg}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
