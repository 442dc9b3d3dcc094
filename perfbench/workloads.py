"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py WORKLOAD SEED SPAWNED_AT [--jobs N]
        [--trace] [--setup-only]
    python3 perfbench/workloads.py probe

SPAWNED_AT is the CLOCK_MONOTONIC reading taken by the parent just before it
started this interpreter, so set-up time counts interpreter start.  A pass
prints one JSON object: set-up and wall seconds, per-call latencies, peak
RSS and the correctness tally.  `overrot` must be importable (the parent
puts the checkout's `src` on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

WORKLOADS = ("sweep", "twist")
SWEEP_SUITES = ("forcing-order", "trichotomy", "refrem", "stefan-only")
JOBS = min(2, os.cpu_count() or 1)
SPECTRUM_CAP = 9
SPECTRUM_MAX_PERIOD = 6
PROBE_PATTERN = (2, 7, 6, 3, 4, 1, 5)
PROBE_LENGTH = 12
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def now() -> float:
    """Seconds on the system-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fmt(images) -> str:
    return " ".join(map(str, images))


def sweep_argvs(jobs: int = JOBS) -> list[list[str]]:
    return [["verify", suite, "--slow", "--jobs", str(jobs)] for suite in SWEEP_SUITES]


def twist_patterns() -> list[tuple[int, ...]]:
    """Every convergent canonical pattern of periods 3 to 7."""
    return [
        images
        for n in range(3, 8)
        for images in oracle.canonical_patterns(n)
        if oracle.is_convergent(images)
    ]


def twist_calls(seed: int) -> list[tuple[str, object]]:
    """For each twist pattern, in an order set by the seed: its verdict (and
    insertion) and, up to period SPECTRUM_MAX_PERIOD, a CLI query
    `spectrum P --cap SPECTRUM_CAP`.  The seed changes only the order; every
    pattern's calls stay together, so the work is the same for every seed."""
    from overrot import Pattern

    patterns = twist_patterns()
    random.Random(seed).shuffle(patterns)
    calls = []
    for images in patterns:
        calls.append((fmt(images), Pattern(images)))
        if len(images) <= SPECTRUM_MAX_PERIOD:
            argv = ["spectrum", fmt(images), "--cap", str(SPECTRUM_CAP)]
            calls.append((" ".join(argv), argv))
    return calls


def inputs(workload: str, seed: int, jobs: int):
    """The workload's calls, as (key, CLI argv or pattern) pairs."""
    if workload == "sweep":
        return [(argv[1], argv) for argv in sweep_argvs(jobs)]
    return twist_calls(seed)


def call_cli(argv) -> str:
    """Run one CLI invocation; its exit code and stdout, as one text."""
    from overrot import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


def call_twist(pattern) -> str:
    """A twist verdict and, for a twist pattern with rho < 1/2, its insertion."""
    from overrot import TwistUpTo, insert_rotation, is_twist_bounded

    verdict = is_twist_bounded(pattern)
    line = repr(verdict)
    p, n = oracle.orp_pair(pattern.images)
    if isinstance(verdict, TwistUpTo) and 2 * p < n:
        orbit = insert_rotation(pattern)
        line += f"|{fmt(orbit.points)}|{fmt(orbit.itinerary)}"
    return line


def check(workload: str, key: str, text: str) -> list[str]:
    """Theory invariants of one output that do not come from overrot."""
    if workload == "sweep" or key.startswith("spectrum"):
        code, _, body = text.partition("\n")
        if code != "exit 0":
            return [f"{key}: {code}"]
    if workload == "sweep":
        return [] if json.loads(body)["pass"] is True else [f"{key}: report fails"]
    if key.startswith("spectrum"):
        argv = key.split()
        images = tuple(map(int, argv[1:-2]))
        q = int(argv[-1])
        pairs = {tuple(map(int, line.split())) for line in body.splitlines()}
        p, n = oracle.orp_pair(images)
        wanted = [(p, n)] + ([(p + 1, n + 2)] if 2 * p < n and n + 2 <= q else [])
        return [f"{key}: spectrum misses {pair}" for pair in wanted if pair not in pairs]
    _, *orbit = text.split("|")
    if not orbit:
        return []
    images = tuple(map(int, key.split()))
    points = [Fraction(x) for x in orbit[0].split()]
    carried = oracle.orbit_pattern(images, points)
    p, n = oracle.orp_pair(images)
    if carried is None or not oracle.is_cyclic(carried):
        return [f"{key}: insertion is not a periodic orbit"]
    problems = []
    if oracle.orp_pair(carried) != (p + 1, n + 2):
        problems.append(f"{key}: insertion pair {oracle.orp_pair(carried)}")
    if oracle.is_doubling(carried):
        problems.append(f"{key}: insertion is a doubling")
    return problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def execute(calls):
    """Make the calls back to back; their outputs, latencies and wall time."""
    outputs = []
    latencies = []
    first = time.perf_counter()
    for key, arg in calls:
        start = time.perf_counter()
        outputs.append((key, call_cli(arg) if isinstance(arg, list) else call_twist(arg)))
        latencies.append((time.perf_counter() - start) * 1e3)
    return outputs, latencies, time.perf_counter() - first


def failures(workload: str, outputs, expected: dict) -> list[str]:
    """One message per output that breaks an invariant or its digest."""
    out = []
    for key, text in outputs:
        problems = check(workload, key, text)
        if digest(text) != expected.get(key):
            problems.append(f"{key}: output differs from the recorded digest")
        out.extend(problems[:1])
    return out


def run_pass(workload: str, calls) -> dict:
    outputs, latencies, wall = execute(calls)
    failed = failures(workload, outputs, json.loads(EXPECTED.read_text())[workload])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": wall,
        "latencies_ms": latencies,
        # the pass process plus its largest worker (ru_maxrss is in KiB)
        "peak_rss_mb": (own + workers) / 1024,
        "attempted": len(outputs),
        "failed": len(failed),
        "failures": failed[:5],
    }


def cache_hit_ratio(module) -> float:
    """Hits over lookups, summed over the module's own lru caches."""
    hits = misses = 0
    for value in vars(module).values():
        if hasattr(value, "cache_info") and value.__module__ == module.__name__:
            info = value.cache_info()
            hits += info.hits
            misses += info.misses
    return hits / (hits + misses) if hits + misses else 0.0


def closed_walks(successors, count: int, length: int) -> list[tuple[int, ...]]:
    """One closed walk per rotation class: those least among their rotations."""
    walks = []
    for s in range(1, count + 1):
        stack = [(s,)]
        while stack:
            walk = stack.pop()
            if len(walk) == length:
                if s in successors[walk[-1]] and all(
                    walk[i:] + walk[:i] >= walk for i in range(1, length)
                ):
                    walks.append(walk)
                continue
            stack.extend(walk + (k,) for k in successors[walk[-1]] if k >= s)
    return sorted(walks)


def probe() -> dict:
    """Microseconds per orbit of realize_loop and pattern_of_orbit over the
    closed walks of a fixed length for a fixed pattern, median of three."""
    from overrot import Orbit, Pattern, markov_graph, pattern_of_orbit, realize_loop

    pattern = Pattern(PROBE_PATTERN)
    graph = markov_graph(pattern)
    successors = {i: graph.successors(i) for i in range(1, graph.num_vertices + 1)}
    walks = closed_walks(successors, graph.num_vertices, PROBE_LENGTH)
    realize = []
    rank = []
    for _ in range(3):
        start = time.perf_counter()
        results = [realize_loop(pattern, walk) for walk in walks]
        realize.append((time.perf_counter() - start) / len(walks))
        orbits = [r for r in results if isinstance(r, Orbit)]
        start = time.perf_counter()
        for orbit in orbits:
            pattern_of_orbit(orbit)
        rank.append((time.perf_counter() - start) / len(orbits))
    return {
        "walks": len(walks),
        "orbits": len(orbits),
        "realize_loop_us": sorted(realize)[1] * 1e6,
        "pattern_of_orbit_us": sorted(rank)[1] * 1e6,
    }


def main(argv: list[str]) -> int:
    if argv == ["probe"]:
        print(json.dumps(probe()))
        return 0
    workload, seed, spawned_at = argv[0], int(argv[1]), float(argv[2])
    options = argv[3:]
    jobs = int(options[options.index("--jobs") + 1]) if "--jobs" in options else JOBS
    import overrot.cli  # noqa: F401  (imports every overrot module)

    calls = inputs(workload, seed, jobs)
    setup = now() - spawned_at
    if "--setup-only" in options:
        print(json.dumps({"setup_s": setup}))
        return 0
    tracer = None
    if "--trace" in options:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = run_pass(workload, calls)
    result["setup_s"] = setup
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counters"] = dict(tracer.counters)
        result["overhead_s"] = tracer.overhead_s()
        result["cache_hit_ratio"] = {
            name: cache_hit_ratio(sys.modules[f"overrot.{name}"])
            for name in ("forcing", "verify")
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
