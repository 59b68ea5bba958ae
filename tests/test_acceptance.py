"""Acceptance suite: one check per headline claim, at desk scale.

Each test prints a single pass/fail line so the run reads as a checklist.
Seeds are fixed; every campaign is deterministic.
"""

import time

from tverlab import drivers

SEED = 7


def _report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_radon_baseline():
    start = time.monotonic()
    report = drivers.radon_baseline()
    elapsed = time.monotonic() - start
    _report(1, "radon baseline", report["ok"] and elapsed < 1.0)


def test_criterion_2_counting_d1_q3():
    start = time.monotonic()
    report = drivers.counting_campaign(1, 3, samples=50, seed=SEED)
    elapsed = time.monotonic() - start
    even = all(r["T"] % 2 == 0 for r in report["reports"])
    bounded = all(r["T"] >= 2 for r in report["reports"])
    _report(2, "counting at d=1 q=3", report["ok"] and even and bounded and elapsed < 10.0)


def test_criterion_3_counting_d2_q3():
    start = time.monotonic()
    report = drivers.counting_campaign(2, 3, samples=50, seed=SEED)
    elapsed = time.monotonic() - start
    bounded = all(r["T"] >= 4 for r in report["reports"])
    _report(3, "counting at d=2 q=3", report["ok"] and bounded and elapsed < 60.0)


def test_criterion_4_single_edge_constraints():
    # same seed as criterion 3, so the same 50 configurations are used
    report = drivers.single_edge_constraint_campaign(samples=50, seed=SEED)
    _report(4, "single-edge avoidance", report["ok"] and report["edges_per_sample"] == 21)


def test_criterion_5_witness_search_best_effort():
    d, q, graph = drivers.STAR_WITNESS_D, drivers.STAR_WITNESS_Q, drivers.STAR_WITNESS_GRAPH
    report = drivers.witness_report(d, q, graph, seed=1, budget=100_000)
    print(f"  witness search: found={report['found']} (budget 100000)")
    # best-effort: found/absent is logged; a found witness must verify exactly
    _report(5, "star witness search", report["ok"])


def test_criterion_6_birch_counts():
    start = time.monotonic()
    report = drivers.birch_campaign(samples=50, seed=SEED)
    elapsed = time.monotonic() - start
    pairs = {(r["d"], r["k"]) for r in report["results"]}
    _report(
        6,
        "Birch counts",
        report["ok"] and pairs == {(1, 2), (1, 3), (2, 2)} and elapsed < 30.0,
    )


def test_criterion_7_chessboard_connectivity():
    start = time.monotonic()
    report = drivers.chessboard_connectivity_campaign(max_mn=6)
    elapsed = time.monotonic() - start
    _report(7, "chessboard connectivity", report["ok"] and elapsed < 300.0)


def test_criterion_8_lemma_connectivity():
    start = time.monotonic()
    report = drivers.lemma_connectivity_campaign()
    elapsed = time.monotonic() - start
    families = {(r["family"], r["l"], r["q"]) for r in report["results"]}
    expected = (
        {("C", l, 5) for l in (1, 2, 3)}
        | {("D", l, q) for q in (4, 5) for l in (1, 2, 3, 4)}
        | {("E", l, 5) for l in (3, 4, 5)}
    )
    _report(8, "C/D/E connectivity", report["ok"] and families == expected and elapsed < 600.0)


def test_criterion_9_structural_identities():
    report = drivers.structural_identities_campaign(max_q=6)
    _report(9, "structural identities", report["ok"])


def test_criterion_10_goodness_invariance():
    report = drivers.goodness_invariance_campaign()
    qs = {r["q"] for r in report["results"]}
    ds = {r["d"] for r in report["results"]}
    _report(
        10,
        "goodness and invariance",
        report["ok"] and qs == {3, 4, 5} and ds == {1, 2},
    )
