"""Each campaign row can say no: fed a case that breaks its claim, the row
reports false and so does the campaign's `ok`."""

from itertools import combinations

import pytest

from tverlab import drivers
from tverlab.complexes import SimplicialComplex


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
