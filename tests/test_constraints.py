from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tverlab import constraints
from tverlab.constraints import (
    WITNESS_COORD_BOUND,
    CompleteK,
    ConstraintGraph,
    Cycle,
    DisjointUnion,
    Path,
    Star,
    avoids,
    constrained_records,
    family_admissible,
    hit_masks,
    instantiate,
    sample_configuration,
    witness_search,
)
from tverlab.drivers import _admissible_specs
from tverlab.errors import Degenerate, LabelMismatch, NotPrimePower
from tverlab.partitions import enumerate_candidate_partitions, point_count
from tverlab.rng import SplitMix64
from tverlab.tverberg import tverberg_records, tverberg_records_oracle


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
    assert family_admissible(CompleteK(2), 2, 3)


def test_family_admissible_star2_q3_false():
    assert not family_admissible(Star(2), 2, 3)


def test_family_admissible_cycle4_q4_false():
    assert not family_admissible(Cycle(4), 2, 4)


def test_family_admissible_star_boundary():
    for q in (3, 4, 5, 7, 8, 9):
        for l in range(1, q + 1):
            assert family_admissible(Star(l), 2, q) == (l < q - 1)


def test_family_admissible_rejects_non_prime_power():
    with pytest.raises(NotPrimePower):
        family_admissible(CompleteK(2), 2, 6)


def test_family_admissible_union():
    union = DisjointUnion((CompleteK(2), CompleteK(2)))
    assert family_admissible(union, 2, 3)


# The paper's admissible families for prime-power q > 2, written out apart
# from constraints.py: each family's vertex count and its rule on q.
PAPER_FAMILIES = {
    CompleteK: (lambda l: l, lambda l, q: l >= 2 and 2 * l < q + 2),
    Star: (lambda l: l + 1, lambda l, q: l < q - 1),
    Path: (lambda l: l + 1, lambda l, q: q > 3),
    Cycle: (lambda l: l, lambda l, q: l >= 3 and q > 4),
}


def _paper_specs(n):
    """Every family with l from 1 to n+1, then every two-part union of
    families with l <= 4, each as a list of (family, l)."""
    parts = [(family, l) for family in PAPER_FAMILIES for l in range(1, n + 2)]
    small = [(family, l) for family, l in parts if l <= 4]
    unions = [list(pair) for pair in combinations_with_replacement(small, 2)]
    return [[part] for part in parts] + unions


def _spec(parts):
    built = tuple(family(l) for family, l in parts)
    return built[0] if len(built) == 1 else DisjointUnion(built)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_family_admissible_matches_the_paper_list(d, q):
    # Admissible iff the spec fits on the (d+1)(q-1)+1 labels and every
    # part meets its family's rule on q.
    n = (d + 1) * (q - 1) + 1
    for parts in _paper_specs(n):
        fits = sum(PAPER_FAMILIES[family][0](l) for family, l in parts) <= n
        expected = fits and all(PAPER_FAMILIES[family][1](l, q) for family, l in parts)
        assert family_admissible(_spec(parts), d, q) == expected, (parts, d, q)


@pytest.mark.parametrize("q", [2, 6, 10])
def test_family_admissible_refuses_every_spec_when_q_is_not_a_prime_power_above_2(q):
    for d in (1, 2, 3):
        for parts in _paper_specs(4):
            with pytest.raises(NotPrimePower):
                family_admissible(_spec(parts), d, q)


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
    assert constrained_records(records, g) == records


def test_single_edge_leaves_records():
    config, records = _sample(2, 3, 5)
    g = ConstraintGraph(7, frozenset([(0, 1)]))
    kept = constrained_records(records, g)
    assert kept
    assert all(avoids(r.partition, g) for r in kept)


def test_d1_q3_constraint_postcondition():
    from tverlab.geometry import PointConfiguration

    config = PointConfiguration(1, 3, ((0,), (1,), (2,), (3,), (4,)))
    g = ConstraintGraph(5, frozenset([(0, 1)]))
    for r in constrained_records(tverberg_records(config), g):
        assert avoids(r.partition, g)


@pytest.mark.parametrize(
    "q,d", [(3, 1), (3, 2), (4, 1)]
)
def test_admissible_families_leave_records(q, d):
    n = point_count(d, q)
    specs = [CompleteK(2)]
    if q >= 4:
        specs += [Star(1), Star(2), Path(1), Path(2)]
    config, records = _sample(d, q, 8)
    for spec in specs:
        if not family_admissible(spec, d, q):
            continue
        g = instantiate(spec, n)
        assert constrained_records(records, g)


def test_hit_masks_are_the_records_each_edge_hits():
    config, records = _sample(2, 3, 4)
    masks = hit_masks(records, 7)
    for a, b in combinations(range(7), 2):
        g = ConstraintGraph(7, frozenset([(a, b)]))
        hit = sum(1 << i for i, r in enumerate(records) if not avoids(r.partition, g))
        assert masks[a][b] == masks[b][a] == hit
    assert all(masks[a][a] == 0 for a in range(7))


def test_witness_search_budget_zero():
    assert witness_search(2, 3, instantiate(Star(2), 7), seed=1, budget=0) is None


def test_witness_search_draws_again_after_a_refused_draw(monkeypatch):
    # Every placement of K_4 at q = 3 is a witness, so one placement of
    # budget is enough once a draw classifies; a refused draw spends none.
    real = constraints.tverberg_records
    calls = []

    def refuse_first(config):
        calls.append(config)
        if len(calls) == 1:
            raise Degenerate("refused on purpose")
        return real(config)

    monkeypatch.setattr(constraints, "tverberg_records", refuse_first)
    witness = witness_search(2, 3, instantiate(CompleteK(4), 7), seed=1, budget=1)
    assert witness is not None
    assert len(calls) == 2


def test_witness_search_single_edge_absent():
    # K_2 is a constraint graph, so no witness can exist; 60 draws of the
    # 7 * 6 placements of an edge
    g = ConstraintGraph(7, frozenset([(0, 1)]))
    assert witness_search(2, 3, g, seed=1, budget=60 * 7 * 6) is None


def test_witness_search_deterministic():
    g = instantiate(Star(2), 7)
    a = witness_search(2, 3, g, seed=1, budget=5000)
    b = witness_search(2, 3, g, seed=1, budget=5000)
    assert a == b


@pytest.mark.parametrize(
    "graph",
    [
        instantiate(Star(2), 7),
        instantiate(CompleteK(3), 7),
        ConstraintGraph(7, frozenset([(5, 2), (5, 6)])),  # K_{1,2} centred on label 5
    ],
    ids=["star2", "k3", "star2-on-2-5-6"],
)
@pytest.mark.parametrize("seed", range(1, 11))
def test_relabelled_witnesses_are_lp_verified(graph, seed):
    # The search returns its draw relabelled so that the covering placement
    # is the requested graph; no avoiding record or candidate is left.
    witness = witness_search(2, 3, graph, seed, budget=5000)
    assert witness is not None
    assert constrained_records(tverberg_records(witness), graph) == []
    assert tverberg_records_oracle(witness, graph.edges) == []


def test_witness_is_a_relabelled_draw():
    g = ConstraintGraph(7, frozenset([(5, 2), (5, 6)]))
    witness = witness_search(2, 3, g, seed=1, budget=5000)
    draw = sample_configuration(2, 3, SplitMix64(1), WITNESS_COORD_BOUND)
    assert sorted(witness.points) == sorted(draw.points)


def test_admissible_union_has_no_witness():
    # K_2 + K_2 is admissible at q = 3: some record avoids every placement
    spec = DisjointUnion((CompleteK(2), CompleteK(2)))
    assert family_admissible(spec, 2, 3)
    assert witness_search(2, 3, instantiate(spec, 7), seed=1, budget=5 * 7 * 6 * 5 * 4) is None


@pytest.mark.parametrize("d, q", [(1, 3), (2, 3), (1, 4), (2, 4), (3, 3)])
def test_avoiding_candidates_are_the_filtered_enumeration(d, q):
    n = point_count(d, q)
    everyone = list(enumerate_candidate_partitions(d, q))
    specs = _admissible_specs(d, q) + [CompleteK(3), CompleteK(4), Star(2), Path(2)]
    for spec in specs:
        graph = instantiate(spec, n)
        avoiding = list(enumerate_candidate_partitions(d, q, graph.edges))
        assert avoiding == [p for p in everyone if avoids(p, graph)], spec


def test_avoids_refuses_an_edge_outside_the_labels():
    graph = ConstraintGraph(9, frozenset([(0, 8)]))
    with pytest.raises(LabelMismatch):
        avoids(((0, 1, 2), (3, 4), (5, 6)), graph)
