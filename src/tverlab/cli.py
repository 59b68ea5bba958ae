"""Command-line front end.

Every command prints one JSON report to stdout (schema 1) and exits 0 iff
all checks in the report passed.  Usage errors exit 2, degenerate input 3,
and a stdout closed before the report is written 141 (as after SIGPIPE).
Reports are byte-identical for identical (command, flags, seed);
wall-clock time is only included behind --timing.
"""

import argparse
import json
import os
import re
import sys
import time
from itertools import islice

from . import drivers
from .config_io import MIN_D, MIN_Q, format_scalar, parse_configuration
from .constraints import (
    CompleteK,
    ConstraintGraph,
    Cycle,
    DisjointUnion,
    Path,
    Star,
    constrained_records,
    instantiate,
)
from .errors import Degenerate, InvalidParameters, TverlabError
from .geometry import PointConfiguration
from .partitions import enumerate_candidate_partitions, point_count
from .svg import render_svg
from .tverberg import counting_report, tverberg_records

MAX_LISTED = 200  # `enumerate` lists the candidates only up to this many
DEFAULT_MAX = 6  # chessboard and identities size: `complex --max` when not given, and verify-all

GRAPH_COMPONENTS = {
    "k": CompleteK,
    "star": Star,
    "path": Path,
    "cycle": Cycle,
}


def parse_graph_spec(text):
    """Family spec strings: 'k2', 'star2', 'path3', 'cycle5', or unions
    joined with '+' ('k2+path2').  Every l is at least 1, and at least 3
    for a cycle."""
    parts = []
    for piece in text.lower().split("+"):
        m = re.fullmatch(r"(k|star|path|cycle)(\d+)", piece.strip())
        if m is None:
            raise InvalidParameters(
                f"bad graph spec {piece!r}; expected k<l>, star<l>, path<l>, or cycle<l>"
            )
        family, l = m.group(1), int(m.group(2))
        least = 3 if family == "cycle" else 1
        if l < least:
            raise InvalidParameters(f"bad graph spec {piece!r}; {family}<l> needs l >= {least}")
        parts.append(GRAPH_COMPONENTS[family](l))
    return parts[0] if len(parts) == 1 else DisjointUnion(tuple(parts))


def _graph_for(spec_text, n):
    """The graph a --graph value names on n points; no value, no edges."""
    if spec_text is None:
        return ConstraintGraph(n, frozenset())
    if spec_text.startswith("edges:"):
        edges = []
        for token in spec_text[len("edges:") :].split(","):
            m = re.fullmatch(r"(\d+)-(\d+)", token.strip())
            if m is None:
                raise InvalidParameters(f"bad edge {token!r}; expected <label>-<label>")
            edges.append((int(m.group(1)), int(m.group(2))))
        return ConstraintGraph(n, frozenset(edges))
    return instantiate(parse_graph_spec(spec_text), n)


def _point_strings(point):
    return [format_scalar(c) for c in point]


def _record_dict(record):
    return {
        "partition": [list(b) for b in record.partition],
        "type": record.describe(),
        "point": _point_strings(record.point),
    }


def _load_config(path) -> PointConfiguration:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidParameters(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidParameters(f"cannot read {path}: {exc}") from exc
    return parse_configuration(text)


# ---------------------------------------------------------------------------
# Command implementations; each returns its report, which lists the flags the
# command read.  A report with an "ok" key exits 1 when it is false.

def cmd_enumerate(args):
    n = point_count(args.d, args.q)
    candidates = enumerate_candidate_partitions(args.d, args.q)
    listed = list(islice(candidates, MAX_LISTED))
    count = len(listed) + sum(1 for _ in candidates)
    report = {
        "d": args.d,
        "q": args.q,
        "n": n,
        "candidates": count,
    }
    if count <= MAX_LISTED:
        report["partitions"] = [[list(b) for b in p] for p in listed]
    return report


def cmd_classify(args):
    """The counting report, then the records that avoid the graph.  `ok` is the
    counting checks' alone: an inadmissible graph may leave no record."""
    config = _load_config(args.input)
    graph = _graph_for(args.graph, len(config.points))
    records = tverberg_records(config)
    kept = constrained_records(records, graph)
    report = counting_report(config, records)
    report["edges"] = sorted(list(e) for e in graph.edges)
    report["avoiding"] = len(kept)
    report["records"] = [_record_dict(r) for r in kept]
    return report


def cmd_count(args):
    return drivers.counting_campaign(args.d, args.q, args.samples, args.seed)


def cmd_constrain(args):
    return drivers.single_edge_constraint_campaign(args.samples, args.seed, d=args.d, q=args.q)


def cmd_search(args):
    graph = _graph_for(args.graph, point_count(args.d, args.q))
    report = {
        "d": args.d, "q": args.q, "seed": args.seed, "budget": args.budget, "graph": args.graph,
    }
    report.update(drivers.witness_report(args.d, args.q, graph, args.seed, args.budget))
    return report


def cmd_complex(args):
    size = DEFAULT_MAX if args.max is None else args.max
    if args.check == "chessboard":
        report = drivers.chessboard_connectivity_campaign(size)
    elif args.check == "identities":
        report = drivers.structural_identities_campaign(max_q=size)
    elif args.max is not None:
        raise InvalidParameters(f"--check {args.check} reads no --max")
    elif args.check == "lemmas":
        report = drivers.lemma_connectivity_campaign()
    else:
        report = drivers.goodness_invariance_campaign()
    report["check"] = args.check
    return report


def cmd_verify_all(args):
    star = (drivers.STAR_WITNESS_D, drivers.STAR_WITNESS_Q, drivers.STAR_WITNESS_GRAPH)
    criteria = [
        ("radon_baseline", drivers.radon_baseline),
        ("counting_d1_q3", lambda: drivers.counting_campaign(1, 3, args.samples, args.seed)),
        ("counting_d2_q3", lambda: drivers.counting_campaign(2, 3, args.samples, args.seed)),
        (
            "single_edge_constraints",
            lambda: drivers.single_edge_constraint_campaign(args.samples, args.seed),
        ),
        ("star_witness_search", lambda: drivers.witness_report(*star, args.seed, args.budget)),
        ("birch_counts", lambda: drivers.birch_campaign(args.samples, args.seed)),
        ("chessboard_connectivity", lambda: drivers.chessboard_connectivity_campaign(DEFAULT_MAX)),
        ("lemma_connectivity", drivers.lemma_connectivity_campaign),
        ("structural_identities", lambda: drivers.structural_identities_campaign(DEFAULT_MAX)),
        ("goodness_invariance", drivers.goodness_invariance_campaign),
    ]
    results = [{"criterion": name, "ok": run()["ok"]} for name, run in criteria]
    flags = {"samples": args.samples, "seed": args.seed, "budget": args.budget}
    return {**flags, "ok": all(r["ok"] for r in results), "criteria": results}


def cmd_render(args):
    config = _load_config(args.input)
    records = tverberg_records(config)[: args.records]
    graph = _graph_for(args.graph, len(config.points))
    svg = render_svg(config, records=records, graph=graph)
    try:
        with open(args.out, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise InvalidParameters(f"cannot write {args.out}: {exc.strerror}") from exc
    return {
        "input": args.input,
        "out": args.out,
        "records_drawn": len(records),
        "edges_drawn": len(graph.edges),
    }


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(prog="tverlab")
    parser.add_argument("--timing", action="store_true", help="include wall-clock seconds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="candidate partitions for (d, q)")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--q", type=int, default=3)
    p.set_defaults(run=cmd_enumerate)

    p = sub.add_parser("classify", help="Tverberg records of a configuration that avoid a graph")
    p.add_argument("--input", required=True, help="configuration file")
    p.add_argument("--graph", help="family spec (star2, k2+path2, ...) or edges:0-1,2-3")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("count", help="seeded counting campaign")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_count)

    p = sub.add_parser("constrain", help="seeded single-edge constraint campaign")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_constrain)

    p = sub.add_parser("search", help="witness search for a constraint graph")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--budget",
        type=int,
        default=100_000,
        help="placements of the graph tried, across draws",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=cmd_search)

    p = sub.add_parser("complex", help="complex-side verification campaigns")
    p.add_argument(
        "--check",
        required=True,
        choices=["chessboard", "lemmas", "identities", "goodness"],
    )
    p.add_argument(
        "--max",
        type=int,
        help=f"largest m and n for chessboard, largest q for identities (default {DEFAULT_MAX}); "
        "lemmas and goodness refuse it",
    )
    p.set_defaults(run=cmd_complex)

    p = sub.add_parser("verify-all", help="run every acceptance campaign")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=100_000)
    p.set_defaults(run=cmd_verify_all)

    p = sub.add_parser("render", help="SVG of a planar configuration")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--records", type=int, default=1)
    p.add_argument("--graph")
    p.set_defaults(run=cmd_render)
    return parser


# Lower bounds on numeric flags, wherever a command has them.  A value below
# them would crash or give a report with no evidence behind it.
FLAG_MINIMUMS = {
    "d": MIN_D, "q": MIN_Q, "samples": 1, "max": 1, "budget": 1, "records": 0,
}


def _parse(argv):
    """The checked flags.  The parser, a web of reference cycles, is garbage
    once this returns: kept alive while a command runs, it would reach the
    oldest GC generation and stay in memory until a full collection."""
    parser = build_parser()
    args = parser.parse_args(argv)
    for key, low in FLAG_MINIMUMS.items():
        value = getattr(args, key, None)
        if value is not None and value < low:
            parser.error(f"--{key} must be >= {low}, got {value}")
    return args


def main(argv=None):
    args = _parse(argv)
    started = time.monotonic()
    try:
        body = args.run(args)
    except Degenerate as exc:
        return _emit({"schema": 1, "command": args.command, "error": str(exc)}, 3)
    except TverlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(2)
    report = {"schema": 1, "command": args.command, **body}
    if args.timing:
        report["wall_clock"] = round(time.monotonic() - started, 3)
    return _emit(report, 0 if report.get("ok", True) else 1)


def _emit(report, code):
    """Print the report and return the exit code; 141 if stdout was closed."""
    try:
        print(json.dumps(report, indent=2), flush=True)
    except BrokenPipeError:
        # Point stdout at /dev/null so the flush at interpreter exit is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
