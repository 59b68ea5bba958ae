import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from membership import BOUNDARY, INSIDE, OUTSIDE, hull_membership
from tverlab.errors import Degenerate, DimensionMismatch, NoUniquePoint
from tverlab.geometry import (
    PointConfiguration,
    affine_intersection_point,
    barycentric_coordinates,
    common_point,
    effective_general_position,
    orientation,
    points_in_general_position,
)

F = Fraction


def test_orientation_ccw_triangle():
    assert orientation([(0, 0), (1, 0), (0, 1)], 2) == 1


def test_orientation_collinear():
    assert orientation([(0, 0), (1, 1), (2, 2)], 2) == 0


def test_orientation_swap_negates():
    assert orientation([(0, 0), (0, 1), (1, 0)], 2) == -1


def test_orientation_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        orientation([(0, 0), (1, 0, 0), (0, 1)], 2)


coord = st.integers(min_value=-50, max_value=50)
rational = st.one_of(coord, st.fractions(min_value=-50, max_value=50, max_denominator=9))


def _laplace_det(rows):
    """Cofactor expansion along the first row: a slow, independent reference."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * v * _laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, v in enumerate(rows[0])
    )


# d=3 takes det's 3x3 closed form; d=4 with Fraction coordinates takes the
# elimination kernel, including rows whose denominators must be cleared.
simplices = st.one_of(
    st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=4),
    st.lists(st.tuples(*[rational] * 4), min_size=5, max_size=5),
)


@given(simplices, st.data())
@settings(max_examples=100)
def test_orientation_alternating(points, data):
    d = len(points) - 1
    perm = data.draw(st.permutations(range(d + 1)))
    base = orientation(points, d)
    p0 = points[0]
    reference = _laplace_det([[p[j] - p0[j] for j in range(d)] for p in points[1:]])
    assert base == (reference > 0) - (reference < 0)
    permuted = orientation([points[i] for i in perm], d)
    # sign of the permutation
    sign = 1
    seen = [False] * (d + 1)
    for i in range(d + 1):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    assert permuted == sign * base


def test_general_position_collinear_triple():
    pts = [(0, 0), (1, 1), (2, 2), (5, 0), (0, 5), (7, 1), (1, 7)]
    assert not points_in_general_position(pts, 2)


def test_general_position_d1_repeat():
    assert not points_in_general_position([(0,), (3,), (3,)], 1)


def test_general_position_holds():
    pts = [(0, 0), (10, 1), (5, 9), (4, 3), (6, 5), (3, 7), (9, 6)]
    assert points_in_general_position(pts, 2)
    config = PointConfiguration(2, 3, tuple(pts))
    assert effective_general_position(config)


@given(st.data(), st.integers(1, 3), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_determinant_table_signs_are_orientations(data, d, q):
    # Small rational coordinates, so that dependent subsets occur too.
    scalar = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
    n = (d + 1) * (q - 1) + 1
    points = tuple(tuple(data.draw(scalar) for _ in range(d)) for _ in range(n))
    config = PointConfiguration(d, q, points)
    table = config.determinants
    assert len(table) == math.comb(n, d + 1)
    for labels, value in table.items():
        assert type(value) is int
        assert (value > 0) - (value < 0) == orientation([points[i] for i in labels], d)
    assert effective_general_position(config) == points_in_general_position(points, d)


TRIANGLE = [(-1, 0), (1, 0), (0, 1)]


def test_hull_membership_inside():
    assert hull_membership((0, F(1, 4)), TRIANGLE) == INSIDE


def test_hull_membership_outside():
    assert hull_membership((2, 0), TRIANGLE) == OUTSIDE


def test_hull_membership_boundary():
    # on the edge x+y=1
    assert hull_membership((F(1, 2), F(1, 2)), TRIANGLE) == BOUNDARY


def test_hull_membership_vertex_is_boundary():
    assert hull_membership((1, 0), TRIANGLE) == BOUNDARY


@pytest.mark.parametrize(
    "p, simplex, expected",
    [
        ((0, 0), [(-1, 0), (1, 0)], INSIDE),
        ((1, 0), [(-1, 0), (1, 0)], BOUNDARY),
        ((0, 1), [(-1, 0), (1, 0)], OUTSIDE),
        ((2, 0), [(-1, 0), (1, 0)], OUTSIDE),
        ((3, 4), [(3, 4)], INSIDE),
        ((3, 5), [(3, 4)], OUTSIDE),
    ],
)
def test_hull_membership_low_simplex(p, simplex, expected):
    assert hull_membership(p, simplex) == expected


@pytest.mark.parametrize(
    "p, simplex",
    [
        ((0, 0), TRIANGLE + [(0, -1)]),  # d+2 points
        ((0, 0), []),
        ((0, 0, 0), TRIANGLE),
        ((0, 0), [(0, 0, 0), (1, 0, 0)]),
    ],
)
def test_hull_membership_dimension_mismatch(p, simplex):
    with pytest.raises(DimensionMismatch):
        hull_membership(p, simplex, 2)


def test_hull_membership_dependent_full_simplex():
    with pytest.raises(Degenerate) as exc:
        hull_membership((1, 1), [(0, 0), (1, 1), (2, 2)])
    assert str(exc.value) == "affinely dependent block"


def test_common_point_crossing_segments():
    p = common_point([[(-1, 0), (1, 0)], [(0, -1), (0, 1)]])
    assert p == (0, 0)


def test_common_point_disjoint_segments():
    assert common_point([[(0, 0), (1, 0)], [(2, 0), (3, 0)]]) is None


@pytest.mark.parametrize(
    "blocks",
    [[[(0, 0)]], [[(0, 0)], []], [[(0, 0), (1, 0)], [(0, 1, 0)]]],
    ids=["one-block", "empty-block", "arity"],
)
def test_common_point_dimension_mismatch(blocks):
    with pytest.raises(DimensionMismatch):
        common_point(blocks)


def test_common_point_point_in_triangle():
    p = common_point([[(0, 0), (2, 0), (1, 2)], [(1, 1)]])
    assert p == (1, 1)
    assert all(
        orientation([a, b, (1, 1)], 2) == 1
        for a, b in [((0, 0), (2, 0)), ((2, 0), (1, 2)), ((1, 2), (0, 0))]
    )


@pytest.mark.parametrize(
    "blocks, expected",
    [
        (
            [[(F(-1, 2), F(1, 3)), (F(3, 2), F(1, 3))], [(F(1, 5), -1), (F(1, 5), F(7, 3))]],
            (F(1, 5), F(1, 3)),
        ),
        ([[(0, 0), (F(5, 2), 0), (0, F(5, 3))], [(F(1, 3), F(1, 7))]], (F(1, 3), F(1, 7))),
        (
            [
                [(0, 0, F(-1, 3)), (0, 0, F(2, 3))],
                [(F(1, 2), 0, 0), (F(-1, 4), F(1, 2), 0), (F(-1, 4), F(-1, 2), 0)],
            ],
            (0, 0, 0),
        ),
        ([[(F(1, 3), 0), (F(2, 3), 0)], [(F(3, 4), 0), (1, F(1, 2))]], None),
    ],
)
def test_common_point_rational(blocks, expected):
    assert common_point(blocks) == expected


def test_affine_intersection_segments():
    assert affine_intersection_point([[(-1, 0), (1, 0)], [(0, -1), (0, 1)]]) == (0, 0)


def test_affine_intersection_parallel():
    with pytest.raises(NoUniquePoint) as exc:
        affine_intersection_point([[(0, 0), (1, 0)], [(0, 1), (1, 1)]])
    assert exc.value.reason == "infeasible"


@pytest.mark.parametrize(
    "blocks, expected",
    [
        # coincident lines meet in a whole line
        ([[(0, 0), (1, 1)], [(2, 2), (F(-1, 2), F(-1, 2))]], "underdetermined"),
        # skew lines in R^3
        ([[(0, 0, 0), (1, 0, 0)], [(0, 1, 1), (0, 2, 1)]], "infeasible"),
        # a plane containing a line
        ([[(0, 0, 0), (1, 0, 0), (0, 1, 0)], [(1, 1, 0), (2, 3, 0)]], "underdetermined"),
        # a repeated point leaves a parameter free that does not move x
        ([[(F(1, 3), 0), (F(1, 3), 0)], [(0, -1), (F(2, 3), 1)]], (F(1, 3), 0)),
        # a collinear triple spans only a line, which the segment crosses
        ([[(0, 0), (1, 1), (2, 2)], [(0, 2), (2, 0)]], (1, 1)),
        ([[(F(1, 2), 0, 0), (F(1, 2), 1, 0)], [(0, F(1, 3), 0), (1, F(1, 3), 0)]],
         (F(1, 2), F(1, 3), 0)),
    ],
)
def test_affine_intersection_degenerate_blocks(blocks, expected):
    if isinstance(expected, str):
        with pytest.raises(NoUniquePoint) as exc:
            affine_intersection_point(blocks)
        assert exc.value.reason == expected
    else:
        point = affine_intersection_point(blocks)
        assert point == expected
        assert all(isinstance(c, Fraction) for c in point)


@pytest.mark.parametrize(
    "p, simplex, expected",
    [
        ((F(1, 2), F(1, 4)), [(0, 0), (1, 0), (0, 1)], [F(1, 4), F(1, 2), F(1, 4)]),
        ((F(1, 3), F(2, 3)), [(0, 0), (1, 2)], [F(2, 3), F(1, 3)]),
        ((1, 0), [(0, 0), (1, 2)], None),  # off the segment's line
        ((3, 3), [(1, 1)], None),
        ((1, 1), [(1, 1)], [1]),
        ((5, 5), [(0, 0), (1, 1), (2, 2)], "underdetermined"),  # dependent simplex
        ((5, 0), [(0, 0), (1, 1), (2, 2)], None),
        ((0, 0), [(0, 0), (0, 0)], "underdetermined"),
    ],
)
def test_barycentric_coordinates(p, simplex, expected):
    if expected == "underdetermined":
        with pytest.raises(NoUniquePoint) as exc:
            barycentric_coordinates(p, simplex, 2)
        assert exc.value.reason == expected
    else:
        assert barycentric_coordinates(p, simplex, 2) == expected


def test_affine_intersection_d3():
    blocks = [[(0, 0, -1), (0, 0, 1)], [(1, 0, 0), (-1, 1, 0), (-1, -1, 0)]]
    assert affine_intersection_point(blocks) == (0, 0, 0)


def _assume_independent(points):
    assume(len(set(points)) == len(points))
    if len(points) == 3:
        assume(orientation(points, 2) != 0)


@given(
    st.lists(st.tuples(coord, coord), min_size=1, max_size=3),
    st.tuples(coord, coord),
)
@settings(max_examples=150)
def test_membership_vs_common_point(hull_points, p):
    _assume_independent(hull_points)
    verdict = hull_membership(p, hull_points)
    joint = common_point([[p], hull_points])
    if verdict == OUTSIDE:
        assert joint is None
    else:
        assert joint == p


@given(
    st.lists(
        st.lists(st.tuples(rational, rational), min_size=1, max_size=3), min_size=2, max_size=3
    )
)
@settings(max_examples=100, deadline=None)
def test_common_point_rational_in_every_hull(blocks):
    for blk in blocks:
        _assume_independent(blk)
    p = common_point(blocks)
    if p is not None:
        assert all(hull_membership(p, blk) != OUTSIDE for blk in blocks)
    else:
        for blk in blocks:
            if len(blk) == 1:
                others = [o for o in blocks if o is not blk]
                assert any(hull_membership(blk[0], o) == OUTSIDE for o in others)


@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=3), st.tuples(coord, coord))
@settings(max_examples=100)
def test_exactness_reruns_identical(tri, p):
    _assume_independent(tri)
    assert hull_membership(p, tri) == hull_membership(p, tri)
