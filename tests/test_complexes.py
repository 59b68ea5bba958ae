import functools
import math
import random
from itertools import product
from operator import ne

import pytest

from tverlab import complexes, drivers

from tverlab.complexes import (
    GroupAction,
    SimplicialComplex,
    assignment_complex,
    c_cones,
    chessboard,
    chessboard_on,
    coloring_complex,
    complex_C,
    complex_D,
    complex_D_tilde,
    complex_E,
    d_subcomplexes,
    deleted_join_of_simplex,
    e_subcomplexes,
    good_subcomplex,
    goodness_check,
    invariance_check,
    join,
    nerve,
    regular_prime_power_action,
    verify_intersection_identities,
    vertex_orbit_sizes,
)
from tverlab.constraints import CompleteK, Cycle, DisjointUnion, Path, Star, instantiate
from tverlab.errors import InvalidParameters, LabelCollision, LabelFormat
from tverlab.partitions import point_count


def test_facets_form_antichain():
    K = SimplicialComplex([{1, 2}, {1, 2, 3}, {4}])
    assert K.facets == frozenset({frozenset({1, 2, 3}), frozenset({4})})


@pytest.mark.parametrize("seed", range(40))
def test_facets_are_the_inputs_not_properly_inside_another(seed):
    # mixed sizes on a small ground set, with repeats and the empty set
    rng = random.Random(seed)
    sets = [frozenset(rng.sample(range(7), rng.randint(0, 5))) for _ in range(rng.randint(1, 30))]
    sets += rng.choices(sets, k=rng.randint(0, 5)) + [frozenset()]
    rng.shuffle(sets)
    maximal = {f for f in sets if f and not any(f < g for g in sets)}
    assert SimplicialComplex(sets).facets == maximal


def test_join_facet_count_multiplies():
    K1 = chessboard_on([0, 1], 3)
    K2 = assignment_complex([5, 6], 2)
    assert len(join(K1, K2).facets) == len(K1.facets) * len(K2.facets)


def test_join_label_collision():
    K = assignment_complex([0], 2)
    with pytest.raises(LabelCollision):
        join(K, K)


@pytest.mark.parametrize(
    "build",
    [
        lambda: coloring_complex([3, 1, 3], 3, [(3, 1)]),
        lambda: assignment_complex([5, 5], 2),
        lambda: coloring_complex([0, 1, 0], 3, Star(2).edges_on([0, 1, 0])),
        lambda: coloring_complex([0, 0, 1], 3, Path(2).edges_on([0, 0, 1])),
        lambda: coloring_complex([0, 1, 1], 3, Cycle(3).edges_on([0, 1, 1])),
        lambda: chessboard_on([0, 0], 3),
        lambda: coloring_complex([0, 1], 3, [(0, 5)]),
        lambda: coloring_complex([0, 1], 3, [(1, 1)]),
    ],
    ids=["coloring", "assignment", "C", "D", "E", "chessboard_on", "edge-outside", "loop"],
)
def test_builders_refuse_repeated_rows(build):
    # and edges that are loops or have an end outside the rows
    with pytest.raises(InvalidParameters):
        build()


def test_deleted_join_counts():
    K = deleted_join_of_simplex(2, 3)
    assert len(K.facets) == 27
    assert K.dim == 2
    assert len(deleted_join_of_simplex(0, 4).facets) == 4


def test_chessboard_facet_formula():
    assert len(chessboard(5, 3).facets) == 60
    assert len(chessboard(2, 2).facets) == 2
    assert len(chessboard(2, 3).facets) == 6


def test_c1_equals_chessboard():
    assert complex_C(1, 3) == chessboard_on([0, 1], 3)
    assert len(complex_C(1, 3).facets) == 6


def test_c_facet_count():
    assert len(complex_C(2, 4).facets) == 36


def test_d_facet_counts():
    assert len(complex_D(1, 5).facets) == 20
    assert complex_D(1, 5) == chessboard_on([0, 1], 5)
    assert len(complex_D(2, 4).facets) == 36


def test_e_facet_counts():
    assert len(complex_E(3, 5).facets) == 60
    assert len(complex_E(4, 5).facets) == 260


def test_e3_equals_three_row_chessboard():
    for q in (3, 4, 5):
        assert complex_E(3, q) == chessboard_on([0, 1, 2], q)


def test_e_requires_l_at_least_3():
    with pytest.raises(InvalidParameters):
        complex_E(2, 5)


def test_d_tilde_empty_set_is_dk():
    subs = d_subcomplexes(2, 5)
    for k in range(1, 6):
        assert complex_D_tilde(k, set(), 2, 5) == subs[k]


def test_d_tilde_singleton_is_e_subcomplex():
    # rows must line up: both live on rows 0..l
    for i in (1, 3):
        lhs = complex_D_tilde(i, {i}, 2, 5)
        rhs = e_subcomplexes(3, 5)[i]
        assert lhs == rhs


def test_d_tilde_full_deletion():
    K = complex_D_tilde(1, set(range(1, 6)), 2, 5)
    assert all(all(v[0] != 0 for v in f) for f in K.facets)


@pytest.mark.parametrize("i, S", [(0, set()), (6, set()), (-1, {1}), (1, {0}), (2, {6})])
def test_d_tilde_columns_out_of_range(i, S):
    with pytest.raises(InvalidParameters):
        complex_D_tilde(i, S, 2, 5)


def test_nerve_of_c_cones_is_boundary_simplex():
    for q, l in ((3, 1), (4, 2), (5, 3)):
        from itertools import combinations

        boundary = SimplicialComplex(
            frozenset(s) for s in combinations(range(q), q - 1)
        )
        assert nerve(c_cones(l, q)) == boundary


def test_nerve_common_vertex_full_simplex():
    K1 = SimplicialComplex([{1, 2}])
    K2 = SimplicialComplex([{2, 3}])
    K3 = SimplicialComplex([{2}])
    assert nerve([K1, K2, K3]) == SimplicialComplex([{0, 1, 2}])


def test_nerve_disjoint_pair():
    K1 = SimplicialComplex([{1}])
    K2 = SimplicialComplex([{2}])
    assert nerve([K1, K2]) == SimplicialComplex([{0}, {1}])


def test_invariance_of_named_complexes():
    action = regular_prime_power_action(5)
    for K in (chessboard(3, 5), complex_C(2, 5), complex_D(2, 5), complex_E(3, 5)):
        assert invariance_check(K, action)


def test_invariance_fails_for_broken_orbit():
    # deleted join minus a single vertical-edge facet set is not invariant
    K = assignment_complex([0, 1], 3)
    facets = [f for f in K.facets if f != frozenset({(0, 1), (1, 1)})]
    assert not invariance_check(SimplicialComplex(facets), regular_prime_power_action(3))


def test_invariance_needs_the_images_to_be_all_facets():
    # a generator that is not a permutation maps every facet to a facet,
    # but not the facet set onto itself
    K = SimplicialComplex([{(0, 1)}, {(0, 2)}, {(0, 3)}])
    assert not invariance_check(K, GroupAction(3, ((1, 1, 3),)))
    assert invariance_check(K, GroupAction(3, ((2, 3, 1),)))


def test_goodness_chessboard_rows():
    assert goodness_check(chessboard_on([0, 1], 4), [(0, 1)])


def test_goodness_fails_on_full_join():
    assert not goodness_check(assignment_complex([0, 1], 4), [(0, 1)])


def test_goodness_star_complex():
    K = complex_C(2, 5)
    assert goodness_check(K, [(0, 1), (0, 2)])


def test_good_subcomplex_k2_q3_d1():
    factors = good_subcomplex(CompleteK(2), 1, 3)
    assert [len(F.facets) for F in factors] == [6, 3, 3, 3]
    L = functools.reduce(join, factors)
    assert len(L.facets) == 162
    assert L.dim == 4
    assert goodness_check(L, [(0, 1)])


def test_goodness_fails_on_join_split_pair():
    # the pair's rows sit in two free factors, so some facet puts both in
    # one column
    L = join(assignment_complex([0], 3), assignment_complex([1], 3))
    assert not goodness_check(L, [(0, 1)])


def test_goodness_fails_on_join_inner_pair():
    L = join(assignment_complex([0, 1], 3), assignment_complex([2], 3))
    assert not goodness_check(L, [(0, 1)])
    M = join(chessboard_on([0, 1], 3), assignment_complex([2], 3))
    assert goodness_check(M, [(0, 1)])


def test_good_subcomplex_union():
    L = functools.reduce(join, good_subcomplex(DisjointUnion((CompleteK(2), CompleteK(2))), 2, 3))
    assert goodness_check(L, [(0, 1), (2, 3)])
    assert invariance_check(L, regular_prime_power_action(3))


def test_good_subcomplex_rejects_inadmissible():
    with pytest.raises(InvalidParameters):
        good_subcomplex(Star(2), 2, 3)


def test_vertex_orbits_size_q():
    L = functools.reduce(join, good_subcomplex(Star(1), 1, 4))
    assert vertex_orbit_sizes(L, regular_prime_power_action(4)) == [4] * len(
        set(v[0] for v in L.vertices)
    )


def test_regular_action_order():
    for q in (3, 4, 5, 8, 9):
        assert len(regular_prime_power_action(q).elements()) == q


def test_intersection_identities_3_5():
    report = verify_intersection_identities(3, 5)
    assert report["ok"]
    assert all(entry["ok"] for entry in report["identities"])


def test_intersection_identities_5_5():
    report = verify_intersection_identities(5, 5)
    assert report["ok"]


def test_intersection_identities_name_an_offending_face(monkeypatch):
    # A stray vertex in D^1_{l-2} lands on the right-hand sides of eq4 (k=1)
    # and eq5 only, and is then the one face they get wrong.
    real = complexes.d_subcomplexes

    def with_stray_vertex(l, q):
        subs = real(l, q)
        if l == 1:
            subs[1] = SimplicialComplex(subs[1].facets | {frozenset({(99, 1)})})
        return subs

    monkeypatch.setattr(complexes, "d_subcomplexes", with_stray_vertex)
    report = verify_intersection_identities(3, 5)
    failed = [entry for entry in report["identities"] if not entry["ok"]]
    assert [entry["name"] for entry in failed] == ["D eq4 k=1", "D eq5"]
    assert all(entry["offending_face"] == [(99, 1)] for entry in failed)
    assert report["ok"] is False


# ---------------------------------------------------------------------------
# Label errors of the three checks


@pytest.mark.parametrize("vertex", [7, ("a",), (0, 1, 2)])
def test_checks_refuse_non_pair_vertices(vertex):
    K = SimplicialComplex([{vertex, (1, 1)}])
    action = regular_prime_power_action(3)
    with pytest.raises(LabelFormat):
        goodness_check(K, [(0, 1)])
    with pytest.raises(LabelFormat):
        invariance_check(K, action)
    with pytest.raises(LabelFormat):
        vertex_orbit_sizes(K, action)


@pytest.mark.parametrize("col", [0, -1, 4, "1"])
def test_action_checks_refuse_columns_outside_1_to_q(col):
    # column 0 would otherwise wrap round to the generator's last entry
    K = SimplicialComplex([{(0, col), (1, 1)}])
    action = regular_prime_power_action(3)
    with pytest.raises(LabelFormat):
        invariance_check(K, action)
    with pytest.raises(LabelFormat):
        vertex_orbit_sizes(K, action)


# ---------------------------------------------------------------------------
# The goodness and invariance checks against plain references


def _goodness_reference(K, constrained_row_pairs):
    """Goodness by grouping each facet's rows by column, facet by facet."""
    for f in K.facets:
        rows_at = {}
        for row, col in f:
            rows_at.setdefault(col, set()).add(row)
        for rows in rows_at.values():
            if any(r1 in rows and r2 in rows for r1, r2 in constrained_row_pairs):
                return False
    return True


def _invariance_reference(K, action):
    """Invariance by moving each facet's vertices one at a time."""
    return all(
        frozenset(frozenset((row, g[col - 1]) for row, col in f) for f in K.facets) == K.facets
        for g in action.generators
    )


def _random_assignments(rng, rows, q):
    """Seeded facets on `rows`: partial assignments, a few with two
    columns in one row."""
    facets = []
    for _ in range(rng.randint(1, 6)):
        chosen = rng.sample(rows, rng.randint(1, len(rows)))
        facet = {(row, rng.randint(1, q)) for row in chosen}
        if rng.random() < 0.2:
            facet.add((chosen[0], rng.randint(1, q)))
        facets.append(facet)
    return facets


def _orbit_closure(facets, action):
    closed = {frozenset(f) for f in facets}
    for g in action.elements():
        closed |= {frozenset((row, g[col - 1]) for row, col in f) for f in facets}
    return closed


def _random_case(seed):
    """A seeded complex with q in 3..5, constrained pairs, and its action.

    Seeds cycle through: a plain random complex; one with a vertical edge
    planted on a constrained pair; an orbit closure (invariant); the same
    closure with one facet removed (a broken orbit); and the join of two
    complexes on disjoint rows with a constrained pair across them, half
    the time with both factors orbit closures."""
    rng = random.Random(seed)
    q = rng.choice((3, 4, 5))
    action = regular_prime_power_action(q)
    rows = list(range(rng.randint(2, 5)))
    pairs = [tuple(rng.sample(rows, 2)) for _ in range(rng.randint(1, 3))]
    facets = _random_assignments(rng, rows, q)
    kind = seed % 5
    if kind == 1:
        r1, r2 = pairs[0]
        c = rng.randint(1, q)
        facets.append({(r1, c), (r2, c)} | {(r, rng.randint(1, q)) for r in rows[:1]})
    elif kind in (2, 3):
        facets = _orbit_closure(facets, action)
        if kind == 3:
            facets = set(SimplicialComplex(facets).facets)
            facets.discard(rng.choice(sorted(facets, key=sorted)))
    if kind == 4:
        cut = rng.randint(1, len(rows) - 1)
        halves = [_random_assignments(rng, rows[:cut], q), _random_assignments(rng, rows[cut:], q)]
        if rng.random() < 0.5:
            halves = [_orbit_closure(half, action) for half in halves]
        pairs.append((rows[0], rows[-1]))
        return join(*map(SimplicialComplex, halves)), pairs, action
    return SimplicialComplex(facets), pairs, action


def _odd_actions(action):
    """Column maps made from each generator h of `action`, not all of them
    permutations of 1..q: h with an extra column q+1 sent where column 1
    goes (not one-to-one, yet h on every column a vertex uses); h with
    column 1 sent where column 2 goes (not one-to-one on 1..q); and h with
    column 1 sent to the unused column q+1 and q+1 sent where column 1 went
    (a permutation that sends vertices out of the complex)."""
    q, hs = action.q, action.generators
    return {
        "extra column": GroupAction(q + 1, tuple(h + (h[0],) for h in hs)),
        "merged": GroupAction(q, tuple((h[1],) + h[1:] for h in hs)),
        "escaping": GroupAction(q + 1, tuple((q + 1,) + h[1:] + (h[0],) for h in hs)),
    }


def test_goodness_and_invariance_match_the_references_on_random_complexes():
    seen = set()
    odd_seen = set()
    for seed in range(400):
        K, pairs, action = _random_case(seed)
        good = goodness_check(K, pairs)
        invariant = invariance_check(K, action)
        assert good == _goodness_reference(K, pairs), seed
        assert invariant == _invariance_reference(K, action), seed
        seen.add((seed % 5, good, invariant))
        for name, odd in _odd_actions(action).items():
            verdict = invariance_check(K, odd)
            assert verdict == _invariance_reference(K, odd), (seed, name)
            odd_seen.add((seed % 5 == 4, name, verdict))
    # these maps give both verdicts, on plain and on join complexes
    for join_case in (False, True):
        assert {v for j, _, v in odd_seen if j == join_case} == {True, False}, join_case
    # both verdicts occur wherever they can; a planted vertical edge is never good
    for kind in (0, 2, 3, 4):
        assert {good for k, good, _ in seen if k == kind} == {True, False}, kind
    assert {good for k, good, _ in seen if k == 1} == {False}
    assert {inv for k, _, inv in seen if k == 2} == {True}
    assert {inv for k, _, inv in seen if k == 3} == {False}


def test_goodness_finds_a_column_shared_across_join_factors():
    L = join(chessboard_on([0, 1], 3), SimplicialComplex([{(2, 3)}]))
    assert not goodness_check(L, [(1, 2)])
    assert goodness_check(L, [(0, 1)])
    M = join(chessboard_on([0, 1], 2), SimplicialComplex([{(2, 3)}]))
    assert goodness_check(M, [(0, 1), (1, 2), (0, 2)])


# ---------------------------------------------------------------------------
# The goodness campaign against the checks on each factor and on whole joins

WHOLE_JOIN_FACETS = 15_000  # largest good subcomplex built as one join


def _campaign_specs(d, q):
    return [
        spec
        for spec in drivers._admissible_specs(d, q)
        if all(p.facet_count(q) <= drivers.FACTOR_FACET_BUDGET for p in spec.parts)
    ]


def _row(q, d, spec, complexes, invariance=invariance_check):
    """A campaign row that passes a check iff each of `complexes` does."""
    action = regular_prime_power_action(q)
    edges = instantiate(spec, point_count(d, q)).edges
    return {
        "q": q,
        "d": d,
        "spec": repr(spec),
        "good": all(goodness_check(K, edges) for K in complexes),
        "invariant": all(invariance(K, action) for K in complexes),
        "orbits_ok": all(s == q for K in complexes for s in vertex_orbit_sizes(K, action)),
    }


def _rows_on_whole_complexes(q, invariance=invariance_check):
    """The goodness campaign's rows, built anew for each (spec, d), and how
    many of them come from whole joins: a row comes from the three checks
    on the join of its good subcomplex's factors when that join has at most
    WHOLE_JOIN_FACETS facets, and from the checks on each factor when it
    has more."""
    rows, joins = [], 0
    for d in (1, 2):
        for spec in _campaign_specs(d, q):
            complexes = good_subcomplex(spec, d, q)
            if math.prod(len(F.facets) for F in complexes) <= WHOLE_JOIN_FACETS:
                complexes = [functools.reduce(join, complexes)]
                joins += 1
            rows.append(_row(q, d, spec, complexes, invariance))
    return rows, joins


@pytest.mark.parametrize("q", [3, 4, 5])
def test_goodness_rows_match_the_checks_on_whole_complexes(q):
    rows, joins = _rows_on_whole_complexes(q)
    assert drivers._goodness_rows(q) == rows
    assert joins == {3: 6, 4: 11, 5: 0}[q]  # every row at q = 3, all of d = 1 at q = 4
    assert {r["good"] and r["invariant"] and r["orbits_ok"] for r in rows} == {True}


def test_goodness_rows_at_d1_read_only_their_own_rows(monkeypatch):
    # a check that fails on the first row d = 1 does not have: the d = 1
    # rows must still pass, and every d = 2 row must fail
    q = 3
    extra = 2 * (q - 1) + 1

    def invariance(K, action):
        return invariance_check(K, action) and all(row != extra for row, _ in K.vertices)

    monkeypatch.setattr(drivers, "invariance_check", invariance)
    rows = drivers._goodness_rows(q)
    assert rows == _rows_on_whole_complexes(q, invariance)[0]
    assert {r["invariant"] for r in rows if r["d"] == 1} == {True}
    assert {r["invariant"] for r in rows if r["d"] == 2} == {False}


def test_campaign_edges_lie_inside_exactly_one_factor():
    # the campaign reads goodness factor by factor, which is goodness of
    # the join only when no constraint edge joins two factors
    for q, d in product((3, 4, 5), (1, 2)):
        n = point_count(d, q)
        for spec in _campaign_specs(d, q):
            factor_rows = [{row for row, _ in F.vertices} for F in good_subcomplex(spec, d, q)]
            for edge in instantiate(spec, n).edges:
                assert sum(rows.issuperset(edge) for rows in factor_rows) == 1, (q, d, spec, edge)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_good_subcomplex_at_d1_is_its_d2_factors_on_the_lower_rows(q):
    # the campaign builds each spec once, at d = 2, and reads d = 1 from it
    n1 = 2 * (q - 1) + 1
    for spec in _campaign_specs(1, q):
        assert spec in drivers._admissible_specs(2, q)
        wide = good_subcomplex(spec, 2, q)
        lower = tuple(F for F in wide if max(row for row, _ in F.vertices) < n1)
        assert lower == good_subcomplex(spec, 1, q)


# ---------------------------------------------------------------------------
# coloring_complex against the whole-tuple rules it replaced


def _ruled(rows, q, keep):
    """Every column tuple of the rows (in order), kept if it passes `keep`."""
    rows = list(rows)
    return SimplicialComplex(
        frozenset(zip(rows, cols))
        for cols in product(range(1, q + 1), repeat=len(rows))
        if keep(cols)
    )


def _walk(cols):
    return all(map(ne, cols, cols[1:]))


RULES = {  # family -> (rows it takes for l, its rule on column tuples)
    Star: (lambda l: l + 1, lambda cols: cols[0] not in cols[1:]),
    Path: (lambda l: l + 1, _walk),
    Cycle: (lambda l: l, lambda cols: cols[0] != cols[-1] and _walk(cols)),
}


def _old_factor(part, rows, q):
    """The factor the family classes' complex() methods built."""
    if isinstance(part, CompleteK):
        return chessboard_on(rows, q)
    return _ruled(rows, q, RULES[type(part)][1])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_builders_match_the_whole_tuple_rules(q):
    rng = random.Random(q)
    for family, build, low in ((Star, complex_C, 1), (Path, complex_D, 1), (Cycle, complex_E, 3)):
        count, keep = RULES[family]
        for l in range(low, 6):
            assert build(l, q) == _ruled(range(count(l)), q, keep)
            rows = rng.sample(range(3, 60), count(l))  # shuffled, not contiguous
            assert coloring_complex(rows, q, family(l).edges_on(rows)) == _ruled(rows, q, keep)
    for n in range(1, 7):
        for rows in (range(n), rng.sample(range(3, 60), n)):
            assert assignment_complex(rows, q) == _ruled(rows, q, lambda cols: True)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_good_subcomplex_factors_match_the_old_family_builds(q):
    n = {d: point_count(d, q) for d in (1, 2)}
    for d in (1, 2):
        for spec in _campaign_specs(d, q):
            expected = []
            off = 0
            for part in spec.parts:
                rows = list(range(off, off + part.vertex_count()))
                expected.append(_old_factor(part, rows, q))
                off += len(rows)
            expected += [_ruled([row], q, lambda cols: True) for row in range(off, n[d])]
            assert good_subcomplex(spec, d, q) == tuple(expected)
