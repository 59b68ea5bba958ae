import functools
import math

import pytest

from tverlab.complexes import (
    JoinComplex,
    SimplicialComplex,
    assignment_complex,
    c_cones,
    chessboard,
    chessboard_on,
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
from tverlab.constraints import CompleteK, DisjointUnion, Star
from tverlab.errors import InvalidParameters, LabelCollision


def test_facets_form_antichain():
    K = SimplicialComplex([{1, 2}, {1, 2, 3}, {4}])
    assert K.facets == frozenset({frozenset({1, 2, 3}), frozenset({4})})


def test_join_facet_count_multiplies():
    K1 = chessboard_on([0, 1], 3)
    K2 = assignment_complex([5, 6], 2)
    assert len(join(K1, K2).facets) == len(K1.facets) * len(K2.facets)


def test_join_label_collision():
    K = assignment_complex([0], 2)
    with pytest.raises(LabelCollision):
        join(K, K)


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


def test_goodness_chessboard_rows():
    assert goodness_check(chessboard_on([0, 1], 4), [(0, 1)])


def test_goodness_fails_on_full_join():
    assert not goodness_check(assignment_complex([0, 1], 4), [(0, 1)])


def test_goodness_star_complex():
    K = complex_C(2, 5, rows=[0, 1, 2])
    assert goodness_check(K, [(0, 1), (0, 2)])


def test_good_subcomplex_k2_q3_d1():
    L = good_subcomplex(CompleteK(2), 3, 1)
    assert math.prod(len(f.facets) for f in L.factors) == 6 * 27
    assert L.dim == 4
    assert goodness_check(L, [(0, 1)])
    M = functools.reduce(join, L.factors)
    assert len(M.facets) == 162


def test_goodness_fails_on_join_split_pair():
    # the pair's rows sit in two free factors, so some facet puts both in
    # one column
    L = JoinComplex([assignment_complex([0], 3), assignment_complex([1], 3)])
    assert not goodness_check(L, [(0, 1)])


def test_goodness_fails_on_join_inner_pair():
    L = JoinComplex([assignment_complex([0, 1], 3), assignment_complex([2], 3)])
    assert not goodness_check(L, [(0, 1)])
    M = JoinComplex([chessboard_on([0, 1], 3), assignment_complex([2], 3)])
    assert goodness_check(M, [(0, 1)])


def test_good_subcomplex_union():
    L = good_subcomplex(DisjointUnion((CompleteK(2), CompleteK(2))), 3, 2)
    assert goodness_check(L, [(0, 1), (2, 3)])
    assert invariance_check(L, regular_prime_power_action(3))


def test_good_subcomplex_rejects_inadmissible():
    with pytest.raises(InvalidParameters):
        good_subcomplex(Star(2), 3, 2)


def test_vertex_orbits_size_q():
    L = good_subcomplex(Star(1), 4, 1)
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
