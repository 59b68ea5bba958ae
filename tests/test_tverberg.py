import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tverlab.constraints import sample_configuration
from tverlab.errors import Degenerate, InvalidParameters
from tverlab.geometry import (
    PointConfiguration,
    barycentric_coordinates,
    det,
    effective_general_position,
)
from tverlab.partitions import enumerate_candidate_partitions
from tverlab.rng import SplitMix64
from tverlab.tverberg import (
    _cramer,
    birch_records,
    counting_report,
    is_prime_power,
    is_tverberg,
    tverberg_records,
    tverberg_records_oracle,
)

RADON = PointConfiguration(1, 2, ((0,), (1,), (2,)))


def test_radon_middle_partition():
    record = is_tverberg(((0, 2), (1,)), RADON)
    assert record is not None
    assert record.k == 1
    assert record.point == (1,)


def test_radon_wrong_partition_absent():
    assert is_tverberg(((0,), (1, 2)), RADON) is None


def test_type_one_planar_example():
    config = PointConfiguration(
        2, 3, ((0, 0), (4, 0), (2, 4), (0, 1), (1, 4), (4, 2), (2, 2))
    )
    record = is_tverberg(((0, 1, 2), (3, 4, 5), (6,)), config)
    assert record is not None
    assert record.k == 1
    assert record.point == (2, 2)


def test_is_tverberg_refuses_configuration_not_in_general_position():
    # (0,0), (3,3) and (2,2) are collinear; the partition itself is fine.
    config = PointConfiguration(
        2, 3, ((0, 0), (4, 0), (2, 4), (2, 1), (1, 3), (3, 3), (2, 2))
    )
    with pytest.raises(Degenerate) as exc:
        is_tverberg(((0, 1, 2), (3, 4, 5), (6,)), config)
    assert str(exc.value) == "configuration not in effective general position"


def test_radon_records_count():
    records = tverberg_records(RADON)
    assert len(records) == 1
    assert records[0].partition == ((0, 2), (1,))


# Every (d, q) with at most 20,000 candidate partitions.
SMALL_PAIRS = [
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (2, 4),
    (3, 2), (3, 3), (4, 2), (4, 3), (5, 2),
]


@pytest.mark.parametrize("d,q", SMALL_PAIRS)
def test_every_candidate_fits_a_type(d, q):
    for partition in enumerate_candidate_partitions(d, q):
        low = [len(b) for b in partition if len(b) <= d]
        full = len(partition) - len(low)
        type_one = low == [1] and full == q - 1
        type_two = 2 <= len(low) <= min(d, q) and full == q - len(low)
        assert type_one or type_two, partition


@pytest.mark.parametrize(
    "partition, config",
    [
        (((0,), (1,), (2,)), RADON),  # three blocks for q = 2
        (((0,), (1,)), RADON),  # labels missing
        (((0, 1, 2), (3,), (4,)), PointConfiguration(1, 3, ((0,), (1,), (2,), (3,), (4,)))),
        (((0, 0), (1,)), RADON),  # a label twice, another missing
    ],
    ids=["block-count", "size-sum", "oversized-block", "repeated-label"],
)
def test_is_tverberg_rejects_non_candidates(partition, config):
    with pytest.raises(InvalidParameters) as exc:
        is_tverberg(partition, config)
    assert str(exc.value) == "not a candidate partition"


def test_cramer_closed_form_at_three_columns():
    # The weights of a type II(3) family's point whose first block has 3
    # labels: det's 2x2 closed form gives the minors.
    rng = SplitMix64(13)
    for _ in range(200):
        rows = [[rng.randint(-99, 99) for _ in range(3)] for _ in range(2)]
        weights = _cramer(rows, 3)
        minors = [(-1) ** c * det([row[:c] + row[c + 1 :] for row in rows]) for c in range(3)]
        assert weights == minors
        assert all(sum(x * w for x, w in zip(row, weights)) == 0 for row in rows)


def test_degenerate_refused():
    config = PointConfiguration(1, 2, ((0,), (1,), (1,)))
    with pytest.raises(Degenerate):
        tverberg_records(config)


def test_d1_q3_even_count():
    config = PointConfiguration(1, 3, ((0,), (1,), (2,), (3,), (4,)))
    records = tverberg_records(config)
    assert len(records) % 2 == 0
    assert len(records) >= 2


def _seeds(*seeds):
    """Integer-coordinate samples keep their plain seed id; rational ones
    (every coordinate over its own denominator) are marked as such."""
    return [pytest.param(s, False, id=str(s)) for s in seeds] + [
        pytest.param(s, True, id=f"rational-{s}") for s in (1, 2, 3)
    ]


@pytest.mark.parametrize("seed, rational", _seeds(1, 2, 3, 4, 5))
def test_oracle_equivalence_d2_q3(seed, rational):
    config, records = _sample(2, 3, seed, rational)
    assert [r.partition for r in records] == tverberg_records_oracle(config)


@pytest.mark.parametrize("seed, rational", _seeds(1, 2, 3))
def test_oracle_equivalence_d1_q3(seed, rational):
    config, records = _sample(1, 3, seed, rational)
    assert [r.partition for r in records] == tverberg_records_oracle(config)


def _sample(d, q, seed, rational=False):
    rng = SplitMix64(seed)
    while True:
        config = sample_configuration(d, q, rng, coord_bound=1000)
        if rational:
            points = tuple(
                tuple(Fraction(c, rng.randint(1, 9)) for c in p) for p in config.points
            )
            config = PointConfiguration(d, q, points)
        try:
            return config, tverberg_records(config)
        except Degenerate:
            continue


def test_records_reverified_inside():
    config, records = _sample(2, 3, 9)
    for record in records:
        for block in record.partition:
            pts = [config.points[i] for i in block]
            assert all(c > 0 for c in barycentric_coordinates(record.point, pts, 2))


def test_counting_report_d1_q3():
    config, records = _sample(1, 3, 11)
    report = counting_report(config, records=records)
    assert report["checks"]["evenness"]["applies"]
    assert report["ok"]
    assert report["T"] == len(records)


def test_counting_report_d2_q3():
    config, records = _sample(2, 3, 12)
    report = counting_report(config, records=records)
    assert not report["checks"]["evenness"]["applies"]  # q = d+1
    assert report["checks"]["sierksma"]["bound"] == 4
    assert report["T"] >= 4
    assert report["ok"]


def test_counting_report_says_no_to_an_odd_count():
    # q > d+1, so T(X) is even; one record fewer makes it odd.
    config, records = _sample(1, 3, 11)
    report = counting_report(config, records=records[1:])
    assert report["checks"]["evenness"] == {"applies": True, "ok": False}
    assert not report["ok"]


def test_counting_report_says_no_below_sierksma():
    config, records = _sample(2, 3, 12)
    report = counting_report(config, records=records[:3])
    assert report["checks"]["sierksma"] == {"bound": 4, "ok": False}
    assert not report["ok"]


@given(st.permutations(range(7)))
@settings(max_examples=25, deadline=None)
def test_relabeling_permutes_records(perm):
    config, records = _sample(2, 3, 13)
    relabeled = PointConfiguration(
        2, 3, tuple(config.points[perm[i]] for i in range(7))
    )
    inverse = {perm[i]: i for i in range(7)}
    try:
        records2 = tverberg_records(relabeled)
    except Degenerate:
        pytest.skip("relabeling cannot introduce degeneracy")
    assert len(records2) == len(records)
    mapped = {
        tuple(sorted(tuple(sorted(inverse[i] for i in b)) for b in r.partition))
        for r in records
    }
    got = {tuple(sorted(r.partition)) for r in records2}
    assert got == mapped


def birch(d, k, points, p):
    """The Birch instance of k(d+1) points around p: p is the last label."""
    return PointConfiguration(d, k + 1, tuple(points) + (p,))


def test_birch_two_pairings():
    parts = birch_records(birch(1, 2, ((-2,), (-1,), (1,), (2,)), (0,)))
    assert len(parts) == 2
    assert ((0, 2), (1, 3)) in parts
    assert ((0, 3), (1, 2)) in parts


def test_birch_outside_hull():
    assert birch_records(birch(1, 2, ((1,), (2,), (3,), (4,)), (0,))) == []


def test_birch_general_position_gate():
    config = birch(1, 2, ((0,), (1,), (2,), (3,)), (0,))
    assert not effective_general_position(config)  # a point equals p
    with pytest.raises(Degenerate, match="relative to p"):
        birch_records(config)


@pytest.mark.parametrize("d,k", [(1, 2), (1, 3), (2, 2)])
def test_birch_counts_even_and_bounded(d, k):
    rng = SplitMix64(17)
    for _ in range(10):
        while True:
            pts = tuple(
                tuple(rng.randint(-1000, 1000) for _ in range(d))
                for _ in range(k * (d + 1))
            )
            config = birch(d, k, pts, tuple([0] * d))
            if effective_general_position(config):
                break
        count = len(birch_records(config))
        assert count % 2 == 0
        assert count == 0 or count >= math.factorial(k)


def test_is_prime_power():
    assert all(is_prime_power(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 27))
    assert not any(is_prime_power(q) for q in (1, 6, 10, 12, 15))
