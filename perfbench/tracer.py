"""Spans around the public functions of overrot, recorded from outside.

`install` rebinds every module-level reference to a traced function inside
the overrot package (module attributes and module-level dict values, such
as the CLI's suite table) to a wrapper that records one span per call:
name, start, end and parent span.  Spans stay in flat arrays in memory;
after the pass, `Tracer.self_times` reduces them to self time per span name.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter

# span name -> the (module, function) pairs it covers
SPANS = {
    "cli.main": [("cli", "main")],
    "verify.suite": [
        ("verify", name)
        for name in (
            "verify_forcing_order",
            "verify_trichotomy",
            "verify_refrem",
            "verify_stefan_only",
            "verify_lemmas",
        )
    ],
    "verify.nd_nbs": [("verify", "nd_nbs")],
    "verify.enumerate_patterns": [("verify", "enumerate_patterns")],
    "forcing.is_twist_bounded": [("forcing", "is_twist_bounded")],
    "forcing.insert_rotation": [("forcing", "insert_rotation")],
    "forcing.forced_patterns": [("forcing", "forced_patterns")],
    "forcing.orp_spectrum": [("forcing", "orp_spectrum")],
    "markov": [
        ("markov", name)
        for name in ("p_linear", "fixed_point", "fundamental_loop_pprime", "markov_graph")
    ],
    "orders": [("orders", "star_precedes"), ("orders", "n_r")],
    "patterns": [
        ("patterns", name)
        for name in (
            "canonical",
            "block_structures",
            "has_division",
            "is_convergent",
            "over_rotation_pair",
            "is_doubling",
        )
    ],
}

# span name -> (counter name, count taken from one call's result)
COUNTERS = {
    "forcing.is_twist_bounded": (
        "twist_verdicts",
        lambda verdict: int(type(verdict).__name__ == "TwistUpTo"),
    ),
    "forcing.forced_patterns": ("patterns_returned", len),
    "forcing.orp_spectrum": ("pairs_returned", len),
}


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _call(self, nid: int, fn, args, kwargs):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.stack.pop()

    def wrap(self, span: str, fn):
        """A traced stand-in for fn.  A generator function gets one span per
        step, so consumer code between steps is not charged to it."""
        nid = self._name_id(span)
        counters = self.counters
        counter = COUNTERS.get(span)
        if inspect.isgeneratorfunction(fn):
            yields = f"{span}.patterns"

            @functools.wraps(fn)
            def steps(*args, **kwargs):
                counters[f"{span}.calls"] += 1
                it = self._call(nid, fn, args, kwargs)
                while True:
                    try:
                        item = self._call(nid, next, (it,), {})
                    except StopIteration:
                        return
                    counters[yields] += 1
                    yield item

            return steps

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counters[f"{span}.calls"] += 1
            result = self._call(nid, fn, args, kwargs)
            if counter is not None:
                counters[f"{span}.{counter[0]}"] += counter[1](result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: a span's duration minus its
        child spans' durations (calls nest, so children never overlap)."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[i] - self.start[i]
        out = dict.fromkeys(self.names, 0.0)
        for nid, ns in zip(self.name, own):
            out[self.names[nid]] += ns / 1e9
        return out

    def overhead_s(self, calls: int = 20000) -> float:
        """Seconds the wrappers added, estimated: the spans recorded times the
        extra cost of a wrapped call of an empty function, timed here as the
        median of five rounds."""
        def empty():
            return None

        wrapped = Tracer().wrap("empty", empty)
        costs = []
        for _ in range(5):
            start = time.perf_counter_ns()
            for _ in range(calls):
                wrapped()
            middle = time.perf_counter_ns()
            for _ in range(calls):
                empty()
            end = time.perf_counter_ns()
            costs.append((middle - start) - (end - middle))
        return len(self.start) * statistics.median(costs) / calls / 1e9


def install(tracer: Tracer) -> None:
    """Route every overrot reference to a traced function through a wrapper."""
    modules = [m for n, m in sys.modules.items() if n == "overrot" or n.startswith("overrot.")]
    for span, targets in SPANS.items():
        for module_name, attr in targets:
            original = getattr(sys.modules[f"overrot.{module_name}"], attr)
            wrapper = tracer.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapper
