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
    boundary_matrices,
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
    assert homology_vanishes_through(sphere(2), 1)
    assert not homology_vanishes_through(sphere(2), 2)


def test_empty_complex_convention():
    # the empty complex is not even (-1)-connected (non-empty)
    K = SimplicialComplex([])
    assert not homology_vanishes_through(K, -1)
    assert not homology_vanishes_through(K, 0)
    assert reduced_homology(K).betti == {}


def test_two_points_disconnected():
    K = SimplicialComplex([{0}, {1}])
    assert homology_vanishes_through(K, -1)
    assert not homology_vanishes_through(K, 0)
    assert reduced_homology(K).betti[0] == 1


def test_chessboard_2_3_is_6_cycle():
    profile = reduced_homology(chessboard(2, 3))
    assert profile.betti == {0: 0, 1: 1}


def test_chessboard_2_2_two_edges():
    profile = reduced_homology(chessboard(2, 2))
    assert profile.betti[0] == 1


def test_chessboard_5_3_connectivity():
    # nu = min(5, 3, 3) = 3
    assert homology_vanishes_through(chessboard(5, 3), 1)


def test_cone_is_contractible():
    K = chessboard(2, 3)
    cone = join(SimplicialComplex([{(9, 9)}]), K)
    assert homology_vanishes_through(cone, cone.dim)


def test_join_of_two_pairs_is_4_cycle():
    K1 = SimplicialComplex([{0}, {1}])
    K2 = SimplicialComplex([{2}, {3}])
    profile = reduced_homology(join(K1, K2))
    assert profile.betti == {0: 0, 1: 1}


@pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_deleted_join_connectivity(n, p):
    assert homology_vanishes_through(deleted_join_of_simplex(n, p), n - 1)


def test_join_connectivity_inequality():
    # (complex, its homological connectivity): S^0 and two disjoint edges
    # are disconnected, S^1 and the 6-cycle are connected with H_1 != 0
    samples = [(sphere(0), -1), (sphere(1), 0), (chessboard(2, 2), -1), (chessboard(2, 3), 0)]
    for K, conn in samples:
        assert homology_vanishes_through(K, conn)
        assert not homology_vanishes_through(K, conn + 1)
    for i, (K1, c1) in enumerate(samples):
        for K2, c2 in samples[i:]:
            A = _relabel(K1, 0)
            B = _relabel(K2, 1000)
            assert homology_vanishes_through(join(A, B), c1 + c2 + 2)


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


def test_face_budget_counts_the_skeleton_read(monkeypatch):
    # chessboard(5,5) has 1,545 faces, 825 of them in dimensions 0..2;
    # nu = 3, so its connectivity claim (through dimension 1) reads only those
    monkeypatch.setenv("TVERBERG_FACE_BUDGET", "1000")
    K = chessboard(5, 5)
    assert homology_vanishes_through(K, 1)
    with pytest.raises(BudgetExceeded):
        reduced_homology(K)


def test_boundary_matrices_build_only_the_skeleton():
    triangle = SimplicialComplex([{0, 1, 2}])
    by_dim, matrices = boundary_matrices(triangle, 1)
    assert by_dim == {0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)]}
    assert matrices[0] == {0: {0: 1}, 1: {0: 1}, 2: {0: 1}}
    # d(a, b) = b - a, rows indexed by the vertices' positions
    assert matrices[1] == {0: {1: 1, 0: -1}, 1: {2: 1, 0: -1}, 2: {2: 1, 1: -1}}
    assert boundary_matrices(triangle, 5)[0].keys() == {0, 1, 2}


def test_face_budget_env_override(monkeypatch):
    monkeypatch.setenv("TVERBERG_FACE_BUDGET", "1000000")
    from tverlab.homology import face_budget

    assert face_budget() == 1000000
