from itertools import combinations

import pytest

from tverlab.complexes import (
    SimplicialComplex,
    chessboard,
    complex_C,
    complex_D,
    complex_E,
    deleted_join_of_simplex,
    join,
)
from tverlab.errors import BudgetExceeded
from tverlab.homology import (
    homological_connectivity,
    homology_vanishes_through,
    reduced_homology,
    smith_invariants,
)


def sphere(n):
    """Boundary of the (n+1)-simplex, an n-sphere."""
    return SimplicialComplex(
        frozenset(s) for s in combinations(range(n + 2), n + 1)
    )


def test_smith_invariants_identity():
    cols = {0: {0: 1}, 1: {1: 1}}
    assert smith_invariants(cols) == (2, [])


def test_smith_invariants_torsion():
    cols = {0: {0: 2}}
    assert smith_invariants(cols) == (1, [2])


def test_point_has_trivial_reduced_homology():
    profile = reduced_homology(SimplicialComplex([{0}]))
    assert all(profile.is_trivial(i) for i in profile.betti)


def test_sphere_homology():
    profile = reduced_homology(sphere(2))
    assert profile.betti == {0: 0, 1: 0, 2: 1}
    assert all(not t for t in profile.torsion.values())


def test_sphere_connectivity():
    assert homological_connectivity(sphere(2)) == 1


def test_empty_complex_convention():
    assert homological_connectivity(SimplicialComplex([])) == -2


def test_two_points_disconnected():
    K = SimplicialComplex([{0}, {1}])
    assert homological_connectivity(K) == -1
    assert reduced_homology(K).betti[0] == 1


def test_chessboard_2_3_is_6_cycle():
    profile = reduced_homology(chessboard(2, 3))
    assert profile.betti == {0: 0, 1: 1}


def test_chessboard_2_2_two_edges():
    profile = reduced_homology(chessboard(2, 2))
    assert profile.betti[0] == 1


def test_chessboard_5_3_connectivity():
    # nu = min(5, 3, 3) = 3
    assert homological_connectivity(chessboard(5, 3)) >= 1


def test_cone_is_contractible():
    K = chessboard(2, 3)
    cone = join(SimplicialComplex([{(9, 9)}]), K)
    assert homological_connectivity(cone) >= K.dim


def test_join_of_two_pairs_is_4_cycle():
    K1 = SimplicialComplex([{0}, {1}])
    K2 = SimplicialComplex([{2}, {3}])
    profile = reduced_homology(join(K1, K2))
    assert profile.betti == {0: 0, 1: 1}


@pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_deleted_join_connectivity(n, p):
    assert homology_vanishes_through(deleted_join_of_simplex(n, p), n - 1)


def test_join_connectivity_inequality():
    samples = [sphere(0), sphere(1), chessboard(2, 2), chessboard(2, 3)]
    for i, K1 in enumerate(samples):
        for K2 in samples[i:]:
            A = _relabel(K1, 0)
            B = _relabel(K2, 1000)
            lhs = homological_connectivity(join(A, B))
            rhs = homological_connectivity(A) + homological_connectivity(B) + 2
            assert lhs >= rhs


def _relabel(K, offset):
    # flatten vertex labels to disjoint integer ranges
    mapping = {v: offset + i for i, v in enumerate(sorted(K.vertices))}
    return SimplicialComplex(
        frozenset(mapping[v] for v in f) for f in K.facets
    )


def test_c_d_e_connectivity_spot_checks():
    assert homology_vanishes_through(complex_C(2, 5), 1)
    assert homology_vanishes_through(complex_D(3, 5), 2)
    assert homology_vanishes_through(complex_E(4, 5), 2)


def test_projective_plane_distinguishes_coefficients():
    # minimal 6-vertex triangulation of RP^2; over the integers its H_1 is
    # pure torsion Z_2
    facets = [
        {0, 1, 2}, {0, 2, 3}, {0, 1, 5}, {0, 3, 4}, {0, 4, 5},
        {1, 2, 4}, {1, 3, 4}, {1, 3, 5}, {2, 3, 5}, {2, 4, 5},
    ]
    K = SimplicialComplex(facets)
    integral = reduced_homology(K)
    assert integral.betti == {0: 0, 1: 0, 2: 0}
    assert integral.torsion[1] == [2]


def test_face_budget_enforced(monkeypatch):
    monkeypatch.setenv("TVERBERG_FACE_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        reduced_homology(chessboard(4, 4))


def test_face_budget_env_override(monkeypatch):
    monkeypatch.setenv("TVERBERG_FACE_BUDGET", "1000000")
    from tverlab.homology import face_budget

    assert face_budget() == 1000000
