"""Run the benchmark over several seeds and record every run's raw values.

    python3 perfbench/baseline.py OUT.json

Run from the root of a checkout.  For each workload of BENCHMARK.json it
runs `perfbench/run.py` once per seed 1..SEEDS for `run_seconds` and
prints, per end-to-end metric, the median and the spread: the distance
between the first and third quartiles as a share of the median.  Then it makes one traced run.  OUT.json gets the machine,
every run's result line, the summaries and the traced result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    args = parser.parse_args()
    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "note": "timings act only on the benchmark's own processes; "
            "the machine is shared and was not isolated",
        },
        "seconds": spec["run_seconds"],
        "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, SEEDS + 1):
            runs.append({"seed": seed, **bench(workload, seed, spec["run_seconds"], 0)})
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values)}
            print(
                f"  {workload:8} {name:14} median {summary[name]['median']:12.4f}"
                f"  spread {summary[name]['spread']:.3f}  (bound {bounds[name]})",
                flush=True,
            )
        traced = bench(workload, 1, spec["run_seconds"], 1)
        record["workloads"][workload] = {"runs": runs, "summary": summary, "traced": traced}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
