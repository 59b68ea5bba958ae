from hypothesis import example, given, settings
from hypothesis import strategies as st

from tverlab.partitions import (
    canonical,
    enumerate_candidate_partitions,
    partitions_with_max_block,
    point_count,
)


def test_radon_candidates():
    parts = list(enumerate_candidate_partitions(1, 2))
    assert len(parts) == 3
    assert ((0, 1), (2,)) in parts
    assert ((0, 2), (1,)) in parts
    assert ((0,), (1, 2)) in parts


def test_candidate_count_7_3_2():
    parts = list(enumerate_candidate_partitions(2, 3))
    assert len(parts) == 175
    # shape census: {1,3,3} and {2,2,3}
    shapes = {}
    for p in parts:
        shape = tuple(sorted(len(b) for b in p))
        shapes[shape] = shapes.get(shape, 0) + 1
    assert shapes == {(1, 3, 3): 70, (2, 2, 3): 105}


def test_candidate_count_5_3_1():
    assert len(list(enumerate_candidate_partitions(1, 3))) == 15


def test_partitions_are_canonical_and_unique():
    parts = list(enumerate_candidate_partitions(2, 3))
    assert len(set(parts)) == len(parts)
    for p in parts:
        assert canonical(p) == p
        assert [b[0] for b in p] == sorted(b[0] for b in p)
        assert all(b == tuple(sorted(b)) for b in p)


def test_stream_deterministic():
    a = list(enumerate_candidate_partitions(2, 3))
    b = list(enumerate_candidate_partitions(2, 3))
    assert a == b


def test_blocks_cover_labels_with_size_cap():
    assert point_count(2, 3) == 7
    for p in enumerate_candidate_partitions(2, 3):
        labels = sorted(x for b in p for x in b)
        assert labels == list(range(7))
        assert all(1 <= len(b) <= 3 for b in p)


def test_equal_size_partitions_pairing():
    # the equal-size (Birch) partitions of 4 labels into 2 blocks of 2
    parts = list(partitions_with_max_block(range(4), 2, 2))
    assert len(parts) == 3
    assert all(len(b) == 2 for p in parts for b in p)


# (n, q, cap): the candidate shapes n = (d+1)(q-1)+1, cap = d+1 for
# (d, q) in (1, 2), (2, 2), (1, 3), (2, 3), (1, 4); and n = q * cap, where
# the partitions are the equal-size ones (Birch partitions), e.g. the 3
# pairings of 4 labels.
@given(st.sampled_from([(3, 2, 2), (4, 2, 3), (5, 3, 2), (7, 3, 3), (7, 4, 2), (4, 2, 2)]))
@example((4, 2, 2))
@settings(max_examples=10, deadline=None)
def test_counts_match_brute_force(params):
    n, q, cap = params
    got = list(partitions_with_max_block(range(n), q, cap))
    assert len(got) == _brute_force_count(n, q, cap)
    if n == q * cap:
        assert all(len(b) == cap for p in got for b in p)


def _brute_force_count(n, q, cap):
    # assign each label a block id; count set partitions into q blocks
    from itertools import product

    seen = set()
    for assign in product(range(q), repeat=n):
        blocks = [tuple(i for i in range(n) if assign[i] == b) for b in range(q)]
        if any(not b or len(b) > cap for b in blocks):
            continue
        seen.add(frozenset(blocks))
    return len(seen)
