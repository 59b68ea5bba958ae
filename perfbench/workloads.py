"""Workload definitions: the argv rounds each workload sends, and the check
every op's output must pass.

A workload is a closed loop with one client.  It sends rounds of ops; a
timed run starts another round only while one of average length would end
by its deadline, so every run of `complex` covers whole sets of its three
checks.  Op seeds come from
`random.Random(workload_seed)`, so the same workload seed gives the same
argv lists.
"""

import json
import random

CHESSBOARD_MAX = 7


def _count_rounds(seed):
    rng = random.Random(seed)
    while True:
        yield [["count", "--d", "3", "--q", "3", "--samples", "1", "--seed", str(rng.randrange(2**32))]]


def _search_rounds(seed):
    rng = random.Random(seed)
    while True:
        yield [["search", "--q", "3", "--d", "2", "--graph", "star2", "--seed", str(rng.randrange(2**32))]]


def _complex_rounds(_seed):
    while True:
        yield [
            ["complex", "--check", "chessboard", "--max", str(CHESSBOARD_MAX)],
            ["complex", "--check", "lemmas"],
            ["complex", "--check", "goodness"],
        ]


def _check_count(argv, report):
    sample = report["reports"][0]
    if report["seed"] != int(argv[-1]) or len(report["reports"]) != 1:
        return "report does not match the requested seed or sample count"
    if not sample["ok"] or sum(sample["histogram"].values()) != sample["T"]:
        return "sample failed its counting checks or its histogram does not sum to T"
    return None


def _check_search(argv, report):
    if report.get("verified") is not True:
        return "no exactly verified witness"
    witness = report["witness"]
    if len(witness) != 7 or any(len(p) != 2 for p in witness):
        return "witness is not 7 points in the plane"
    return None


_COMPLEX_RESULTS = {
    "chessboard": CHESSBOARD_MAX * (CHESSBOARD_MAX + 1) // 2,
    "lemmas": 14,
}


def _check_complex(argv, report):
    check = argv[2]
    if report["check"] != check or not report["ok"]:
        return "complex campaign failed"
    results = report["results"]
    if not results or not all(v for r in results for v in r.values() if isinstance(v, bool)):
        return "a campaign case failed"
    expected = _COMPLEX_RESULTS.get(check)
    if expected is not None and len(results) != expected:
        return f"expected {expected} cases, got {len(results)}"
    return None


class Workload:
    """`rounds(seed)` yields lists of argv; a traced run sends the first
    `trace_rounds` of them."""

    def __init__(self, name, rounds, check, trace_rounds):
        self.name = name
        self.rounds = rounds
        self._check = check
        self.trace_rounds = trace_rounds

    def check(self, argv, exit_code, output):
        """None when the op's output is correct, else the reason it is not."""
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            report = json.loads(output)
        except ValueError:
            return "output is not one JSON report"
        if report.get("schema") != 1 or report.get("command") != argv[0]:
            return "wrong schema or command in the report"
        if argv[0] != "search" and report.get("ok") is not True:
            return "report is not ok"
        try:
            return self._check(argv, report)
        except (KeyError, IndexError, TypeError) as exc:
            return f"report is missing a field: {exc!r}"


# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("count", _count_rounds, _check_count, trace_rounds=4),
        Workload("search", _search_rounds, _check_search, trace_rounds=40),
        Workload("complex", _complex_rounds, _check_complex, trace_rounds=1),
    )
}
