"""Record the digests that every benchmark run compares its outputs with.

    PYTHONPATH=src python3 perfbench/record.py

Run it once, on the commit whose outputs are the reference; it refuses to
record an output that breaks one of the benchmark's theory checks.
"""

from __future__ import annotations

import json
import sys

import workloads


def main() -> int:
    expected = {}
    for workload in workloads.WORKLOADS:
        calls = workloads.inputs(workload, 0, workloads.JOBS)
        outputs, _, _ = workloads.execute(calls)
        broken = [p for key, text in outputs for p in workloads.check(workload, key, text)]
        if broken:
            print("\n".join(broken), file=sys.stderr)
            return 1
        expected[workload] = {key: workloads.digest(text) for key, text in outputs}
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
