"""Exact ground truth at sizes the LP oracle cannot reach, and the
`Degenerate` contract: a count only if no decision touched a boundary.

Sierksma's configuration (d+1 tight clusters of q-1 points at the vertices
of a simplex, plus one point near its centroid) has exactly ((q-1)!)^d
Tverberg partitions, all of Type I at the centre point: the centre is a
singleton and every other block takes one point from each cluster.

The (2, 5) and (3, 4) cases carry the `slow` marker and are deselected by
default; `pytest -m slow` runs them.
"""

import math
from fractions import Fraction

import pytest

from tverlab.errors import Degenerate
from tverlab.geometry import PointConfiguration, effective_general_position
from tverlab.rng import SplitMix64
from tverlab.tverberg import (
    BirchInstance,
    birch_records,
    counting_report,
    is_tverberg,
    tverberg_records,
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


def _slow(d, q):
    return pytest.param(d, q, marks=pytest.mark.slow)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("d,q", [(2, 3), (2, 4), (3, 3), _slow(2, 5), _slow(3, 4)])
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
        birch_records(BirchInstance(2, 2, points, (2, 0)))
