"""Exact ground truth at sizes the LP oracle cannot reach, and the
`Degenerate` contract: a count only if no decision it makes touches a boundary.

Sierksma's configuration (d+1 tight clusters of q-1 points at the vertices
of a simplex, plus one point near its centroid) has exactly ((q-1)!)^d
Tverberg partitions, all of Type I at the centre point: the centre is a
singleton and every other block takes one point from each cluster.

The d=5 Type II(4) case and the (3, 5) Sierksma count carry the `slow`
marker and are deselected by default; `pytest -m slow` runs them.
"""

import math
from fractions import Fraction

import pytest

from tverlab.errors import Degenerate
from tverlab.geometry import PointConfiguration, common_point, effective_general_position
from tverlab.rng import SplitMix64
from tverlab.tverberg import (
    _low_point,
    _point,
    birch_records,
    counting_report,
    is_tverberg,
    tverberg_records,
    tverberg_records_oracle,
)

SCALE = 10**6  # order of the simplex coordinates
CLUSTER_JITTER = 1000  # per-coordinate offset of a cluster point from its vertex
CENTRE_JITTER = 3  # per-coordinate offset of the centre point from the centroid


def sierksma_configuration(d, q, seed):
    """Clusters at the simplex vertices 0 and (d+1) * SCALE * e_i (labels
    0..(d+1)(q-1)-1, cluster by cluster), then the centre point near the
    centroid SCALE * (1, ..., 1) as the last label."""
    rng = SplitMix64(seed)
    vertices = [(0,) * d] + [
        tuple((d + 1) * SCALE if j == i else 0 for j in range(d)) for i in range(d)
    ]
    points = [
        tuple(c + rng.randint(-CLUSTER_JITTER, CLUSTER_JITTER) for c in v)
        for v in vertices
        for _ in range(q - 1)
    ]
    points.append(tuple(SCALE + rng.randint(-CENTRE_JITTER, CENTRE_JITTER) for _ in range(d)))
    return PointConfiguration(d, q, tuple(points))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "d,q",
    [(2, 3), (2, 4), (3, 3), (2, 5), (2, 6), (3, 4), pytest.param(3, 5, marks=pytest.mark.slow)],
)
def test_sierksma_count(d, q, seed):
    config = sierksma_configuration(d, q, seed)
    records = tverberg_records(config)
    t = math.factorial(q - 1) ** d
    report = counting_report(config, records=records)
    assert report["T"] == t
    assert report["histogram"] == {"I": t}
    centre = config.n - 1
    assert all((centre,) in r.partition and r.point == config.points[centre] for r in records)


def _crossing_segments_on_triangle_edge():
    """d=2 q=3: segments 0-1 and 2-3 cross at (2, 2), the midpoint of the
    triangle 4-5-6's edge 4-5."""
    points = ((0, 0), (4, 4), (0, 4), (4, 0), (-3, 1), (7, 3), (2, -7))
    return PointConfiguration(2, 3, points), ((0, 1), (2, 3), (4, 5, 6))


def _three_planes_on_an_edge():
    """d=3 q=3: the planes of triangles 0-1-2, 3-4-5 and 6-7-8 meet at x,
    the midpoint of edge 0-1 and the centroid of the other two triangles;
    the last point of each of those is solved for with Fractions."""
    p0, p1, p2 = (0, 0, 0), (5, 1, 3), (1, 6, -2)
    x = [Fraction(a + b, 2) for a, b in zip(p0, p1)]

    def third(u, v):  # the w with x = (u + v + w) / 3
        return tuple(3 * xi - ui - vi for xi, ui, vi in zip(x, u, v))

    u1, v1 = (7, -4, 9), (-6, 2, 5)
    u2, v2 = (3, 8, 8), (-2, -5, 1)
    points = (p0, p1, p2, u1, v1, third(u1, v1), u2, v2, third(u2, v2))
    return PointConfiguration(3, 3, points), ((0, 1, 2), (3, 4, 5), (6, 7, 8))


@pytest.mark.parametrize(
    "build", [_crossing_segments_on_triangle_edge, _three_planes_on_an_edge], ids=["d2q3", "d3q3"]
)
def test_boundary_type_ii_point_is_refused(build):
    config, partition = build()
    assert effective_general_position(config)
    with pytest.raises(Degenerate, match="boundary"):
        is_tverberg(partition, config)
    with pytest.raises(Degenerate):
        tverberg_records(config)


def test_birch_point_on_block_facet_is_refused():
    # p = (2, 0) is the midpoint of the first block's edge (0,0)-(4,0)
    points = ((0, 0), (4, 0), (1, 5), (9, 9), (12, 7), (8, 13))
    with pytest.raises(Degenerate):
        birch_records(PointConfiguration(2, 3, points + ((2, 0),)))


# d=3 q=3: triangles 0-1-2, 3-4-5 and 6-7-8 in the parallel planes z = 0, 1, 2
PARALLEL_TRIANGLES = (
    (1, 5, 0), (-9, -2, 0), (-4, 8, 0),
    (9, -4, 1), (-7, 8, 1), (-1, -8, 1),
    (-7, -7, 2), (-9, 5, 2), (-9, -1, 2),
)
# d=3 q=3: the same triangles in the planes y = 0, x = 0 and x = y, which
# share the z-axis; no point lies on it
AXIS_TRIANGLES = (
    (7, 0, -9), (2, 0, 3), (1, 0, -9),
    (0, -4, -3), (0, 2, 9), (0, -5, 1),
    (5, 5, -3), (-1, -1, -6), (4, 4, 8),
)
TRIANGLES = ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_parallel_planes_do_not_meet():
    # The three planes' equations are rank deficient and inconsistent: the
    # candidate is no Tverberg partition, and the count goes on.
    config = PointConfiguration(3, 3, PARALLEL_TRIANGLES)
    assert effective_general_position(config)
    assert is_tverberg(TRIANGLES, config) is None
    records = tverberg_records(config)
    assert len(records) == 11
    assert all(r.partition != TRIANGLES for r in records)


def test_planes_through_a_line_are_refused():
    # Classified on its own, the candidate's planes share a line and are
    # refused; looked up among the records, it gets the LP's verdict.
    from test_differential import _classify  # the reference, which imports this module

    config = PointConfiguration(3, 3, AXIS_TRIANGLES)
    assert effective_general_position(config)
    with pytest.raises(Degenerate, match="affine hulls meet in more than a point"):
        _classify(TRIANGLES, config)
    assert common_point([[config.points[i] for i in b] for b in TRIANGLES]) is None
    assert is_tverberg(TRIANGLES, config) is None


def test_planes_through_a_line_do_not_stop_the_count():
    # No two of the triangles meet, so the count never tries their planes'
    # common line, and it is the LP oracle's.
    config = PointConfiguration(3, 3, AXIS_TRIANGLES)
    records = tverberg_records(config)
    assert len(records) == 9
    assert [r.partition for r in records] == tverberg_records_oracle(config)


def _blocks_around_origin(d, sizes, seed):
    """Blocks of the given sizes on consecutive labels, each with the origin
    strictly inside its hull: the last point is minus a positive integer
    combination of the others, so a low block's affine hull is a linear
    subspace.  Generic subspaces whose codimensions sum to d meet only at the
    origin."""
    rng = SplitMix64(seed)
    points, partition = [], []
    for size in sizes:
        spokes = [tuple(rng.randint(-99, 99) for _ in range(d)) for _ in range(size - 1)]
        weights = [rng.randint(1, 3) for _ in spokes]
        last = tuple(-sum(w * p[t] for w, p in zip(weights, spokes)) for t in range(d))
        partition.append(tuple(range(len(points), len(points) + size)))
        points += spokes + [last]
    return PointConfiguration(d, len(sizes), tuple(points)), tuple(partition)


@pytest.mark.parametrize(
    "d,sizes",
    [
        (4, (4, 4, 4, 4)),  # four hyperplanes; 3x3 minors
        pytest.param(5, (5, 5, 5, 4, 6), marks=pytest.mark.slow),  # 4x4 minors
    ],
    ids=["d4q4", "d5q5"],
)
def test_four_low_blocks_meet_at_the_origin(d, sizes):
    config, partition = _blocks_around_origin(d, sizes, seed=1)
    assert effective_general_position(config)
    low = [b for b in partition if len(b) <= d]
    assert len(low) == 4
    weights, total = _low_point(low, config.determinants, d)
    assert min(weights) > 0
    assert _point(low[0], weights, total, config) == (0,) * d
    assert common_point([[config.points[i] for i in b] for b in partition]) is not None
