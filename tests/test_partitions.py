from itertools import product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tverlab.partitions import canonical, enumerate_candidate_partitions, point_count


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


def _birch_partitions(d, k):
    """The equal-size (Birch) partitions of k(d+1) labels into k blocks:
    the candidates of (d, k+1) whose last label is a block on its own."""
    last = (point_count(d, k + 1) - 1,)
    return [p[:-1] for p in enumerate_candidate_partitions(d, k + 1) if p[-1] == last]


def test_equal_size_partitions_pairing():
    # the equal-size (Birch) partitions of 4 labels into 2 blocks of 2
    parts = _birch_partitions(1, 2)
    assert len(parts) == 3
    assert all(len(b) == 2 for p in parts for b in p)


CANDIDATE_SHAPES = [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (3, 2)]


@st.composite
def _shape_and_apart(draw):
    d, q = draw(st.sampled_from(CANDIDATE_SHAPES))
    label = st.integers(0, point_count(d, q) - 1)
    pairs = st.tuples(label, label).filter(lambda pair: pair[0] != pair[1])
    return d, q, draw(st.lists(pairs, max_size=6))


@given(_shape_and_apart())
@example((2, 3, []))
@settings(max_examples=25, deadline=None)
def test_candidates_match_brute_force(case):
    """The full list, its order and `apart` against every label->block
    assignment."""
    d, q, apart = case
    got = list(enumerate_candidate_partitions(d, q, apart))
    assert got == _brute_force(point_count(d, q), q, d + 1, apart)


# (d, k): the Birch partitions of k(d+1) labels, e.g. the 3 pairings of 4
# labels at (1, 2), against the brute force over k blocks of d+1 labels.
@given(st.sampled_from([(1, 2), (2, 2), (1, 3), (3, 2)]))
@example((1, 2))
@settings(max_examples=10, deadline=None)
def test_birch_partitions_match_brute_force(params):
    d, k = params
    got = _birch_partitions(d, k)
    assert got == _brute_force(k * (d + 1), k, d + 1)
    assert all(len(b) == d + 1 for p in got for b in p)


def _brute_force(n, q, cap, apart=()):
    """The partitions of range(n) into q non-empty blocks of at most `cap`
    labels that keep each `apart` pair in different blocks, from every
    label->block assignment, canonical and sorted by restricted-growth
    string."""
    seen = set()
    for assign in product(range(q), repeat=n):
        blocks = [[i for i in range(n) if assign[i] == b] for b in range(q)]
        if any(not b or len(b) > cap for b in blocks):
            continue
        if any(assign[a] == assign[b] for a, b in apart):
            continue
        seen.add(canonical(blocks))
    return sorted(seen, key=_growth_string)


def _growth_string(partition):
    index = {label: i for i, block in enumerate(partition) for label in block}
    return [index[label] for label in sorted(index)]
