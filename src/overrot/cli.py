"""Command-line interface for classification, forcing queries, and sweeps.

Boolean queries print "true" or "false" and exit 0 or 1 respectively; usage
errors exit 2.  Verification suites print a JSON report to stdout and a short
summary to stderr, exiting 0 on a pass and 1 when violations were found.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .forcing import (
    LoopError,
    TwistUpTo,
    forced_patterns,
    forces,
    is_twist_bounded,
    orp_spectrum,
)
from .markov import DivergentPatternError, MarkovGraph, markov_graph
from .orders import eta, orp_precedes, sharkovsky_precedes, star_precedes
from .patterns import (
    OrpPair,
    Pattern,
    PatternError,
    block_structures,
    classify,
    format_pattern,
    has_division,
    is_convergent,
    is_doubling,
    over_rotation_pair,
    parse_cycle,
    parse_pattern,
    stefan,
)
from . import verify
from .verify import SUITES, enumerate_patterns


def _pattern_arg(text: str, cycles: bool) -> Pattern:
    return parse_cycle(text) if cycles else parse_pattern(text)


def _bool_result(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_classify(args) -> int:
    pattern = _pattern_arg(args.pattern, args.cycles)
    print(json.dumps(classify(pattern)))
    return 0


def _cmd_stefan(args) -> int:
    print(format_pattern(stefan(args.period)))
    return 0


def _cmd_forces(args) -> int:
    a = _pattern_arg(args.a, args.cycles)
    b = _pattern_arg(args.b, args.cycles)
    return _bool_result(forces(a, b))


def _cmd_forced(args) -> int:
    pattern = _pattern_arg(args.pattern, args.cycles)
    for forced in sorted(forced_patterns(pattern, args.period), key=lambda p: p.images):
        print(format_pattern(forced))
    return 0


def _cmd_spectrum(args) -> int:
    pattern = _pattern_arg(args.pattern, args.cycles)
    for pair in sorted(orp_spectrum(pattern, args.cap), key=lambda t: (t.q, t.p)):
        print(f"{pair.p} {pair.q}")
    return 0


def emit_dot(graph: MarkovGraph) -> str:
    """The covering graph in DOT form, vertices and edges in index order."""
    lines = ["digraph covering {"]
    for i in range(1, graph.num_vertices + 1):
        lines.append(f"  J{i};")
    for i in range(1, graph.num_vertices + 1):
        for k in graph.successors(i):
            lines.append(f"  J{i} -> J{k};")
    lines.append("}")
    return "\n".join(lines)


def _cmd_markov(args) -> int:
    pattern = _pattern_arg(args.pattern, args.cycles)
    graph = markov_graph(pattern)
    if args.dot:
        print(emit_dot(graph))
    else:
        for i in range(1, graph.num_vertices + 1):
            for k in graph.successors(i):
                print(f"J{i} J{k}")
    return 0


def _cmd_order(args) -> int:
    if args.relation == "orp":
        if len(args.values) != 4:
            raise ValueError("orp comparison needs four integers: P Q R S")
        p, q, r, s = args.values
        return _bool_result(orp_precedes(OrpPair(p, q), OrpPair(r, s)))
    if len(args.values) != 2:
        raise ValueError(f"{args.relation} comparison needs two integers: M S")
    m, s = args.values
    compare = star_precedes if args.relation == "star" else sharkovsky_precedes
    return _bool_result(compare(m, s))


def _cmd_eta(args) -> int:
    pair = eta(args.period)
    print(f"{pair.p} {pair.q}")
    return 0


def _cmd_twist(args) -> int:
    pattern = _pattern_arg(args.pattern, args.cycles)
    verdict = is_twist_bounded(pattern, args.cap)
    if isinstance(verdict, TwistUpTo):
        print(f"twist-up-to {verdict.cap}")
        return 0
    print("not-twist")
    return 1


def _cmd_enumerate(args) -> int:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        [
            "pattern",
            "orp_p",
            "orp_q",
            "convergent",
            "division",
            "doubling",
            "block_sizes",
        ]
    )
    for pattern in enumerate_patterns(args.period):
        if args.no_division and has_division(pattern):
            continue
        if args.no_block_structure and block_structures(pattern):
            continue
        if args.divergent and is_convergent(pattern):
            continue
        pair = over_rotation_pair(pattern)
        sizes = ";".join(str(d.block_size) for d in block_structures(pattern))
        writer.writerow(
            [
                format_pattern(pattern),
                pair.p,
                pair.q,
                str(is_convergent(pattern)).lower(),
                str(has_division(pattern)).lower(),
                str(is_doubling(pattern)).lower(),
                sizes,
            ]
        )
    return 0


def _cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    max_period, cap = suite.slow if args.slow else suite.defaults
    if args.max_period is not None:
        max_period = args.max_period
    if args.cap is not None:
        cap = args.cap
    # resolved per call, so a rebound public function (perfbench's tracer) runs
    runner = getattr(verify, "verify_" + args.suite.replace("-", "_"))
    if suite.defaults[1] is None:
        report = runner(max_period, jobs=args.jobs)
    else:
        report = runner(max_period, cap, jobs=args.jobs)
    print(json.dumps(report.to_dict(), indent=2))
    if report.passed:
        print(f"{args.suite}: pass", file=sys.stderr)
        return 0
    print(
        f"{args.suite}: {len(report.violations)} violation(s)",
        file=sys.stderr,
    )
    return 1


def _add_pattern_argument(parser, name="pattern") -> None:
    parser.add_argument(name, help="pattern in one-line notation, e.g. '2 3 1'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overrot",
        description="Over-rotation numbers and forcing for cyclic interval patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a pattern (JSON)")
    _add_pattern_argument(p)
    p.add_argument("--cycles", action="store_true", help="read cycle notation")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("stefan", help="the spiral pattern of an odd period")
    p.add_argument("period", type=int)
    p.set_defaults(func=_cmd_stefan)

    p = sub.add_parser("forces", help="does pattern A force pattern B?")
    p.add_argument("a", help="pattern A")
    p.add_argument("b", help="pattern B")
    p.add_argument("--cycles", action="store_true", help="read cycle notation")
    p.set_defaults(func=_cmd_forces)

    p = sub.add_parser("forced", help="canonical forced patterns of one period")
    _add_pattern_argument(p)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--cycles", action="store_true", help="read cycle notation")
    p.set_defaults(func=_cmd_forced)

    p = sub.add_parser("spectrum", help="over-rotation pairs forced up to a period")
    _add_pattern_argument(p)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--cycles", action="store_true", help="read cycle notation")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("markov", help="covering graph of the basic intervals")
    _add_pattern_argument(p)
    p.add_argument("--dot", action="store_true", help="emit DOT")
    p.add_argument("--cycles", action="store_true", help="read cycle notation")
    p.set_defaults(func=_cmd_markov)

    p = sub.add_parser("order", help="compare in an order (true/false)")
    p.add_argument("relation", choices=["sharkovsky", "star", "orp"])
    p.add_argument("values", type=int, nargs="+")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("eta", help="over-rotation pair forced by a period")
    p.add_argument("period", type=int)
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("twist", help="bounded twist verdict for a pattern")
    _add_pattern_argument(p)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--cycles", action="store_true", help="read cycle notation")
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("enumerate", help="all canonical patterns of a period (CSV)")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--no-division", action="store_true")
    p.add_argument("--no-block-structure", action="store_true")
    p.add_argument("--divergent", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification sweep (JSON report)")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--slow", action="store_true", help="wider default range")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PatternError, LoopError, DivergentPatternError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
