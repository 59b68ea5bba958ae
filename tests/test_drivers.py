"""Each campaign row can say no: fed a case that breaks its claim, the row
reports false and so does the campaign's `ok`."""

import dataclasses
from itertools import combinations

import pytest

from tverlab import drivers, tverberg
from tverlab.complexes import SimplicialComplex
from tverlab.constraints import CompleteK, avoiding_candidates, instantiate
from tverlab.errors import InvalidParameters


def test_radon_baseline_says_no_to_a_type_ii_record(monkeypatch):
    assert drivers.radon_baseline()["ok"] is True
    real = drivers.tverberg_records

    def as_type_ii(config):
        return [dataclasses.replace(r, k=2) for r in real(config)]

    monkeypatch.setattr(drivers, "tverberg_records", as_type_ii)
    assert drivers.radon_baseline()["ok"] is False


def test_counting_campaign_says_no_when_its_second_sample_fails(monkeypatch):
    # The second report is made from no records, so T = 0 breaks (q-d)! >= 1.
    honest = drivers.counting_campaign(2, 3, samples=2, seed=3)
    real = drivers.counting_report
    calls = []

    def second_empty(config, records):
        calls.append(config)
        return real(config, [] if len(calls) == 2 else records)

    monkeypatch.setattr(drivers, "counting_report", second_empty)
    report = drivers.counting_campaign(2, 3, samples=2, seed=3)
    assert honest["ok"] is True
    assert report["reports"][0] == honest["reports"][0]
    assert report["reports"][1]["T"] == 0 and report["reports"][1]["ok"] is False
    assert report["ok"] is False


def test_lemma_campaign_says_no_when_one_case_is_not_connected(monkeypatch):
    real = drivers.homology_vanishes_through
    calls = []

    def fifth_fails(K, bound):
        calls.append(K)
        return real(K, bound) and len(calls) != 5

    monkeypatch.setattr(drivers, "homology_vanishes_through", fifth_fails)
    report = drivers.lemma_connectivity_campaign()
    assert len(report["results"]) == 14
    assert [row["ok"] for row in report["results"]] == [i != 4 for i in range(14)]
    assert report["ok"] is False


def test_single_edge_campaign_reports_every_edge_no_record_avoids(monkeypatch):
    # Keep one Tverberg record per sample: exactly the edges inside its
    # blocks are then left with no avoiding record.
    real = drivers.sample_classified_configuration
    kept = []

    def one_record(d, q, rng):
        config, records = real(d, q, rng)
        kept.append(records[0].partition)
        return config, records[:1]

    monkeypatch.setattr(drivers, "sample_classified_configuration", one_record)
    report = drivers.single_edge_constraint_campaign(samples=2, seed=3)
    expected = [
        {"sample": index, "edge": edge}
        for index, partition in enumerate(kept)
        for edge in combinations(range(7), 2)
        if any(set(edge) <= set(block) for block in partition)
    ]
    assert expected
    assert report["violations"] == expected
    assert report["ok"] is False


# (d, k) rows in BIRCH_PAIRS order; k! is 2, 6 and 2.
@pytest.mark.parametrize(
    "count, even, lower_ok",
    [(7, False, [True, True, True]), (4, True, [True, False, True])],
    ids=["odd", "below-k!"],
)
def test_birch_campaign_says_no(monkeypatch, count, even, lower_ok):
    assert drivers.BIRCH_PAIRS == ((1, 2), (1, 3), (2, 2))
    monkeypatch.setattr(drivers, "birch_records", lambda config: [None] * count)
    report = drivers.birch_campaign(samples=1, seed=5)
    assert [row["even"] for row in report["results"]] == [even] * 3
    assert [row["lower_ok"] for row in report["results"]] == lower_ok
    assert report["ok"] is False


def test_chessboard_campaign_says_no_on_a_disconnected_complex(monkeypatch):
    # Two isolated vertices have reduced H_0 = Z, so every row that needs
    # H_0 to vanish (nu >= 2) fails; the rows with nu = 1 only need a vertex.
    two_points = SimplicialComplex([{(0, 0)}, {(1, 1)}])
    monkeypatch.setattr(drivers, "chessboard", lambda m, n: two_points)
    report = drivers.chessboard_connectivity_campaign(3)
    assert {(row["m"], row["n"]) for row in report["results"] if not row["ok"]} == {(2, 3), (3, 3)}
    assert all(row["ok"] == (row["nu"] < 2) for row in report["results"])
    assert report["ok"] is False


def test_witness_check_runs_one_lp_per_avoiding_candidate(monkeypatch):
    # The oracle's verdict covers every avoiding candidate, none skipped.
    graph = drivers.STAR_WITNESS_GRAPH
    real = tverberg.common_point
    calls = []

    def counted(blocks, d=None):
        calls.append(blocks)
        return real(blocks, d)

    monkeypatch.setattr(tverberg, "common_point", counted)
    report = drivers.witness_report(2, 3, graph, 1, 100_000)
    assert report["found"] and report["verified"] and report["ok"]
    assert len(calls) == len(avoiding_candidates(graph, 2, 3)) == 92


def test_witness_report_refuses_a_graph_no_candidate_avoids():
    # Four mutually forbidden labels fit no three blocks: with no candidate
    # to check, any draw would be a witness on no evidence.
    graph = instantiate(CompleteK(4), 7)
    assert avoiding_candidates(graph, 2, 3) == []
    with pytest.raises(InvalidParameters, match=r"\(d, q\) = \(2, 3\)"):
        drivers.witness_report(2, 3, graph, 1, 100)


def test_witness_report_refuses_a_graph_no_candidate_avoids_before_any_draw(monkeypatch):
    # K_5 at (3, 4): five mutually forbidden labels fit no four blocks.
    def no_draw(*args):
        raise AssertionError("witness_search called")

    monkeypatch.setattr(drivers, "witness_search", no_draw)
    graph = instantiate(CompleteK(5), 10)
    with pytest.raises(InvalidParameters, match=r"\(d, q\) = \(3, 4\)"):
        drivers.witness_report(3, 4, graph, 1, 100_000)
