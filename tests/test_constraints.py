import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tverlab.constraints import (
    CompleteK,
    ConstraintGraph,
    Cycle,
    DisjointUnion,
    Path,
    Star,
    avoids,
    constrained_records,
    family_admissible,
    instantiate,
    sample_configuration,
    witness_search,
)
from tverlab.errors import Degenerate, NotPrimePower
from tverlab.rng import SplitMix64
from tverlab.tverberg import tverberg_records


def test_avoids_edge_inside_block():
    g = ConstraintGraph(3, frozenset([(0, 1)]))
    assert not avoids(((0, 1), (2,)), g)


def test_avoids_edge_split():
    g = ConstraintGraph(3, frozenset([(0, 1)]))
    assert avoids(((0, 2), (1,)), g)


def test_avoids_multi_edge():
    g = ConstraintGraph(7, frozenset([(1, 2), (3, 5)]))
    assert not avoids(((0, 1, 2), (3, 4), (5, 6)), g)


@given(
    st.frozensets(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] < e[1]),
        max_size=8,
    ),
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda e: e[0] < e[1]),
)
@settings(max_examples=100)
def test_avoids_monotone(edges, extra):
    partition = ((0, 1, 2), (3, 4), (5, 6))
    small = ConstraintGraph(7, edges)
    big = ConstraintGraph(7, edges | {extra})
    if avoids(partition, big):
        assert avoids(partition, small)


def test_family_admissible_k2_q3():
    assert family_admissible(CompleteK(2), 3, 2)


def test_family_admissible_star2_q3_false():
    assert not family_admissible(Star(2), 3, 2)


def test_family_admissible_cycle4_q4_false():
    assert not family_admissible(Cycle(4), 4, 2)


def test_family_admissible_star_boundary():
    for q in (3, 4, 5, 7, 8, 9):
        for l in range(1, q + 1):
            assert family_admissible(Star(l), q, 2) == (l < q - 1)


def test_family_admissible_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        family_admissible(CompleteK(2), 6, 2)


def test_family_admissible_union():
    union = DisjointUnion((CompleteK(2), CompleteK(2)))
    assert family_admissible(union, 3, 2)


def test_instantiate_star():
    g = instantiate(Star(2), 7)
    assert g.edges == frozenset([(0, 1), (0, 2)])


def _sample(d, q, seed):
    rng = SplitMix64(seed)
    while True:
        config = sample_configuration(d, q, rng, coord_bound=1000)
        try:
            return config, tverberg_records(config)
        except Degenerate:
            continue


def test_empty_graph_is_identity_filter():
    config, records = _sample(2, 3, 4)
    g = ConstraintGraph(7, frozenset())
    assert constrained_records(config, g, records=records) == records


def test_single_edge_leaves_records():
    config, records = _sample(2, 3, 5)
    g = ConstraintGraph(7, frozenset([(0, 1)]))
    kept = constrained_records(config, g, records=records)
    assert kept
    assert all(avoids(r.partition, g) for r in kept)


def test_d1_q3_constraint_postcondition():
    from tverlab.geometry import PointConfiguration

    config = PointConfiguration(1, 3, ((0,), (1,), (2,), (3,), (4,)))
    g = ConstraintGraph(5, frozenset([(0, 1)]))
    for r in constrained_records(config, g):
        assert avoids(r.partition, g)


@pytest.mark.parametrize(
    "q,d", [(3, 1), (3, 2), (4, 1)]
)
def test_admissible_families_leave_records(q, d):
    n = (d + 1) * (q - 1) + 1
    specs = [CompleteK(2)]
    if q >= 4:
        specs += [Star(1), Star(2), Path(1), Path(2)]
    config, records = _sample(d, q, 8)
    for spec in specs:
        if not family_admissible(spec, q, d):
            continue
        g = instantiate(spec, n)
        assert constrained_records(config, g, records=records)


def test_witness_search_budget_zero():
    g = instantiate(Star(2), 7)
    assert witness_search(3, 2, g, seed=1, budget=0) is None


def test_witness_search_single_edge_absent():
    # K_2 is a constraint graph, so no witness can exist
    g = ConstraintGraph(7, frozenset([(0, 1)]))
    assert witness_search(3, 2, g, seed=1, budget=60) is None


def test_witness_search_star2_finds_and_verifies():
    g = instantiate(Star(2), 7)
    witness = witness_search(3, 2, g, seed=1, budget=5000)
    assert witness is not None
    assert constrained_records(witness, g) == []


def test_witness_search_deterministic():
    g = instantiate(Star(2), 7)
    a = witness_search(3, 2, g, seed=1, budget=5000)
    b = witness_search(3, 2, g, seed=1, budget=5000)
    assert a == b
