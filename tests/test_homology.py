import random
from itertools import combinations

import pytest

from tverlab import homology
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
    _coreduce,
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


# minimal 6-vertex triangulation of RP^2; over the integers its H_1 is
# pure torsion Z_2
RP2 = SimplicialComplex([
    {0, 1, 2}, {0, 2, 3}, {0, 1, 5}, {0, 3, 4}, {0, 4, 5},
    {1, 2, 4}, {1, 3, 4}, {1, 3, 5}, {2, 3, 5}, {2, 4, 5},
])


def test_projective_plane_distinguishes_coefficients():
    K = RP2
    integral = reduced_homology(K)
    assert integral.betti == {0: 0, 1: 0, 2: 0}
    assert integral.torsion[1] == [2]


def test_face_budget_enforced(monkeypatch):
    monkeypatch.setattr(homology, "FACE_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        reduced_homology(chessboard(4, 4))


def test_face_budget_counts_the_skeleton_read(monkeypatch):
    # chessboard(5,5) has 1,545 faces, 825 of them in dimensions 0..2;
    # nu = 3, so its connectivity claim (through dimension 1) reads only those
    monkeypatch.setattr(homology, "FACE_BUDGET", 1000)
    K = chessboard(5, 5)
    assert homology_vanishes_through(K, 1)
    with pytest.raises(BudgetExceeded):
        reduced_homology(K)


def _signed_columns(boundaries):
    """The boundaries as signed columns: col -> {row: (-1)^(dim-j)}, entry
    j of a face's boundary tuple being row j."""
    return {
        dim: {b: {a: (-1) ** (dim - j) for j, a in enumerate(faces)} for b, faces in enumerate(cells)}
        for dim, cells in boundaries.items()
    }


def _live_columns(boundaries, live):
    """The signed columns of the cells coreduction leaves, each with its live faces."""
    return {
        dim: {
            b: {a: v for a, v in col.items() if live[dim - 1][a]}
            for b, col in cols.items()
            if live[dim][b]
        }
        for dim, cols in _signed_columns(boundaries).items()
    }


def test_boundary_matrices_build_only_the_skeleton():
    triangle = SimplicialComplex([{0, 1, 2}])
    by_dim, boundaries = boundary_matrices(triangle, 1)
    assert by_dim == {0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)]}
    assert boundaries == {0: [(0,), (0,), (0,)], 1: [(0, 1), (0, 2), (1, 2)]}
    matrices = _signed_columns(boundaries)
    assert matrices[0] == {0: {0: 1}, 1: {0: 1}, 2: {0: 1}}
    # d(a, b) = b - a, rows indexed by the vertices' positions
    assert matrices[1] == {0: {1: 1, 0: -1}, 1: {2: 1, 0: -1}, 2: {2: 1, 1: -1}}
    assert boundary_matrices(triangle, 5)[0].keys() == {0, 1, 2}


def test_boundary_matrices_list_faces_as_vertex_ranks():
    # chessboard(2, 2) is two disjoint edges on tuple labels; the ranks are
    # the positions in sorted order: (0,1) -> 0, (0,2) -> 1, (1,1) -> 2, (1,2) -> 3
    by_dim, boundaries = boundary_matrices(chessboard(2, 2), 1)
    assert by_dim == {0: [(0,), (1,), (2,), (3,)], 1: [(0, 3), (1, 2)]}
    assert boundaries == {0: [(0,)] * 4, 1: [(0, 3), (1, 2)]}
    matrices = _signed_columns(boundaries)
    assert matrices[0] == {0: {0: 1}, 1: {0: 1}, 2: {0: 1}, 3: {0: 1}}
    assert matrices[1] == {0: {0: -1, 3: 1}, 1: {1: -1, 2: 1}}


def _vertex_tuple_boundaries(K, top):
    """Faces as sorted vertex tuples, built bottom-up from the facets, each
    face's boundary by slicing, as signed columns."""
    facets = [tuple(sorted(f)) for f in K.facets]
    by_dim, matrices, index = {}, {}, {(): 0}
    for dim in range(min(top, K.dim) + 1):
        faces = sorted({s for f in facets for s in combinations(f, dim + 1)})
        matrices[dim] = {
            pos: {index[f[:j] + f[j + 1 :]]: (-1) ** j for j in range(dim + 1)}
            for pos, f in enumerate(faces)
        }
        by_dim[dim] = faces
        index = {f: pos for pos, f in enumerate(faces)}
    return by_dim, matrices


# a non-pure complex: a tetrahedron, triangles, an edge and a lone vertex,
# so facets enter the top-down build below its top dimension
NON_PURE = SimplicialComplex([{0, 1, 2, 3}, {2, 3, 4}, {4, 5, 6}, {1, 5}, {7}, {3, 6}])


def test_boundary_matrices_on_ranks_match_vertex_tuples():
    for K in (chessboard(4, 5), NON_PURE, RP2):
        by_dim, boundaries = boundary_matrices(K, 3)
        ref_by_dim, ref_matrices = _vertex_tuple_boundaries(K, 3)
        assert _signed_columns(boundaries) == ref_matrices
        # faces are sorted rank tuples, each dimension in sorted order
        assert all(list(face) == sorted(face) for faces in by_dim.values() for face in faces)
        assert all(faces == sorted(faces) for faces in by_dim.values())
        vertices = sorted(K.vertices)
        assert {
            dim: [tuple(vertices[i] for i in face) for face in faces] for dim, faces in by_dim.items()
        } == ref_by_dim


# ---------------------------------------------------------------------------
# Coreduction against the full-matrix reference


def _reference_homology(K):
    """(betti, torsion) from `smith_invariants` straight on every full
    signed boundary matrix, built bottom-up by `_vertex_tuple_boundaries`,
    with no coreduction."""
    by_dim, matrices = _vertex_tuple_boundaries(K, K.dim)
    invariants = {dim: smith_invariants(cols) for dim, cols in matrices.items()}
    none = (0, [])
    betti = {
        i: len(by_dim[i]) - invariants[i][0] - invariants.get(i + 1, none)[0]
        for i in range(K.dim + 1)
    }
    torsion = {i: invariants.get(i + 1, none)[1] for i in range(K.dim + 1)}
    return betti, torsion


def _lemma_complexes():
    return (
        [complex_C(l, 5) for l in (1, 2, 3)]
        + [complex_D(l, q) for q in (4, 5) for l in range(1, 5)]
        + [complex_E(l, 5) for l in (3, 4, 5)]
    )


def _random_complex(seed):
    """A small seeded complex; every third one is joined with RP^2 or
    coned and every third one gets a disjoint RP^2, so torsion, cones and
    several components all occur."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    facets = [
        frozenset(rng.sample(range(n), rng.randint(1, 4))) for _ in range(rng.randint(1, 9))
    ]
    K = SimplicialComplex(facets)
    if seed % 3 == 1:
        extra = RP2 if seed % 2 else SimplicialComplex([{-1}])
        K = join(K, _relabel(extra, 100))
    elif seed % 3 == 2:
        K = SimplicialComplex(set(K.facets) | set(_relabel(RP2, 100).facets))
    return K


CHESSBOARDS = [(m, n) for m in range(1, 6) for n in range(m, 6)]


@pytest.mark.parametrize("m,n", CHESSBOARDS)
def test_coreduction_matches_reference_on_chessboards(m, n):
    K = chessboard(m, n)
    profile = reduced_homology(K)
    assert (profile.betti, profile.torsion) == _reference_homology(K)


def test_coreduction_matches_reference_on_lemma_complexes_and_rp2():
    for K in _lemma_complexes() + [RP2]:
        profile = reduced_homology(K)
        assert (profile.betti, profile.torsion) == _reference_homology(K)


def test_coreduction_matches_reference_on_random_complexes():
    with_torsion = 0
    for seed in range(50):
        K = _random_complex(seed)
        profile = reduced_homology(K)
        assert (profile.betti, profile.torsion) == _reference_homology(K), seed
        with_torsion += any(profile.torsion.values())
    assert with_torsion >= 10


def test_chessboard_torsion_shareshian_wachs():
    # 3-torsion in H_{nu-1} of the chessboard complex (Shareshian and
    # Wachs, Adv. Math. 2007)
    five = reduced_homology(chessboard(5, 5))
    assert five.betti == {0: 0, 1: 0, 2: 0, 3: 56, 4: 0}
    assert five.torsion == {0: [], 1: [], 2: [3], 3: [], 4: []}
    six = reduced_homology(chessboard(6, 6))
    assert six.betti == {0: 0, 1: 0, 2: 0, 3: 25, 4: 210, 5: 0}
    assert six.torsion == {0: [], 1: [], 2: [], 3: [3] * 10, 4: [], 5: []}


@pytest.mark.parametrize("K,dim,factor", [(RP2, 1, 2), (chessboard(5, 5), 2, 3)])
def test_coreduction_leaves_torsion_to_smith(K, dim, factor):
    _by_dim, boundaries = boundary_matrices(K, K.dim)
    matrices = _live_columns(boundaries, _coreduce(boundaries))
    # coreduction keeps every entry +-1, so it cannot finish a torsion case
    assert any(matrices[dim + 1].values())
    assert all(v in (1, -1) for cols in matrices.values() for col in cols.values() for v in col.values())
    assert reduced_homology(K).torsion[dim] == [factor]


def test_coreduction_clears_the_chessboard_below_its_top():
    # chessboard(6, 6): nu = 4, so the campaign reads dimensions 0..3; every
    # cell below dimension 3 is paired off before the Smith form
    by_dim, boundaries = boundary_matrices(chessboard(6, 6), 3)
    live = _coreduce(boundaries)
    assert [live[dim].count(1) for dim in range(3)] == [0, 0, 0]
    assert live[3].count(1) < len(by_dim[3])


def _non_pure_complex(seed, k):
    """A seeded complex with facets larger than, equal to and smaller than
    k + 2 labels (a disjoint RP^2 on every third seed, for torsion)."""
    rng = random.Random(seed)
    n = rng.randint(k + 4, k + 6)
    sizes = [rng.randint(k + 3, k + 4), k + 2, k + 2, rng.randint(1, k + 1), rng.randint(1, k + 1)]
    sizes += [rng.randint(1, k + 4) for _ in range(rng.randint(0, 4))]
    facets = {frozenset(rng.sample(range(n), size)) for size in sizes}
    if seed % 3 == 0:
        facets |= set(_relabel(RP2, 100).facets)
    return SimplicialComplex(facets)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_truncated_homology_matches_reference_on_non_pure_complexes(k):
    sizes = set()
    for seed in range(25):
        K = _non_pure_complex(1000 * k + seed, k)
        sizes |= {(len(f) > k + 2) - (len(f) < k + 2) for f in K.facets}
        betti, torsion = _reference_homology(K)
        top = min(k, K.dim)
        profile = reduced_homology(K, up_to=k)
        assert profile.betti == {i: betti[i] for i in range(top + 1)}, seed
        assert profile.torsion == {i: torsion[i] for i in range(top + 1)}, seed
        vanishes = all(betti[i] == 0 and not torsion[i] for i in range(top + 1))
        assert homology_vanishes_through(K, k) == vanishes, seed
    # facets above, at and below k + 2 labels all occur
    assert sizes == {1, 0, -1}


def test_coreduction_pairing_order_pins_the_residual(monkeypatch):
    # chessboard(5, 5) in full: coreduction (vertex 0 with the empty face,
    # then first in, first out) leaves 166, 288 and 66 cells in dimensions
    # 2, 3 and 4 and none below; the Smith form's input and residual follow
    seen, units = [], []
    smith, eliminate = homology.smith_invariants, homology._eliminate_units

    def spy_smith(cols):
        seen.append((len(cols), sum(map(len, cols.values()))))
        return smith(cols)

    def spy_eliminate(cols):
        unit_rank, residual = eliminate(cols)
        units.append((unit_rank, len(residual) * (len(residual[0]) if residual else 0)))
        return unit_rank, residual

    monkeypatch.setattr(homology, "smith_invariants", spy_smith)
    monkeypatch.setattr(homology, "_eliminate_units", spy_eliminate)
    reduced_homology(chessboard(5, 5))
    # (live cells, live entries) per dimension; (unit rank, residual entries)
    assert sorted(seen) == [(0, 0), (0, 0), (66, 288), (166, 0), (288, 664)]
    assert sorted(units) == [(0, 0), (0, 0), (0, 0), (66, 0), (165, 43)]


def test_face_budget_is_exact_and_checked_before_coreduction(monkeypatch):
    # chessboard(5, 5) through dimension 1 builds 25 + 200 + 600 = 825 faces
    calls = []
    coreduce = homology._coreduce
    monkeypatch.setattr(homology, "_coreduce", lambda m: calls.append(1) or coreduce(m))
    K = chessboard(5, 5)
    monkeypatch.setattr(homology, "FACE_BUDGET", 825)
    assert homology_vanishes_through(K, 1)
    assert calls == [1]
    monkeypatch.setattr(homology, "FACE_BUDGET", 824)
    with pytest.raises(BudgetExceeded):
        homology_vanishes_through(K, 1)
    assert calls == [1]
