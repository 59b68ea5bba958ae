"""Exact rational predicates and solvers.

Points are tuples of exact scalars (`int` or `fractions.Fraction`); every
operation here is a pure function of its inputs and bit-reproducible.

Every linear system (determinants above 3x3, barycentric coordinates,
affine-hull intersections) goes through one kernel, `_reduce`: it clears
each row's denominators and runs fraction-free Gauss-Jordan elimination on
plain integers, with the two integer steps of `lp`.  A result that needs
division becomes a Fraction only when it is returned.  `det` has closed
forms up to 3x3, and 1 for the empty matrix: these serve the determinant
table up to d = 3 and the Cramer minors of a type II(k >= 3) family's
point up to d = 4, so `_reduce` is off the Tverberg enumeration's hot path
there; the enumeration calls it directly only when every Cramer minor of a
family vanishes.

`common_point` goes through the exact LP (the same integer steps, other
pivot choices) and serves as the independent check.

The Tverberg and Birch classifier reads the determinant table below, not
these explicit-point predicates: `orientation` serves `render`, and
`common_point` the LP oracle, which also checks a search's witness.
`barycentric_coordinates`, `affine_intersection_point` and
`points_in_general_position` are the tests' references (the tests build
their point-in-simplex predicate on them), and the traced
benchmark (`perfbench/spans.py`) patches them by name.

A `PointConfiguration` computes one table, once, and caches it: the integer
determinant of the homogeneous coordinates (1, L*p) of every sorted
(d+1)-subset of labels, L clearing every denominator of the configuration.
Its signs are the orientations (the chirotope); effective general position
means no entry is zero, and the Tverberg classifier reads every sign it
needs from the table.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from dataclasses import dataclass

from .errors import DimensionMismatch, NoUniquePoint
from .lp import clear_denominators, fraction_free_pivot, lp_feasible
from .partitions import point_count


def _reduce(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of exact rows.

    Each row is first multiplied by the positive LCM of its entries'
    denominators (`clear_denominators`).  That keeps the solution set, the
    rank and the sign of the determinant, and leaves only integers to
    eliminate.  The first `ncols` columns are then reduced left to right by
    `fraction_free_pivot`, each on the first remaining row that is non-zero
    there; later columns (a right-hand side) are carried along.

    Returns (m, pivots, den, scale):
    - `pivots`: the pivot columns, increasing; their number is the rank.
    - `m`: the reduced integer rows.  Row i < len(pivots) holds `den` in
      column pivots[i] and 0 in every other pivot column; the remaining
      rows are 0 in the first `ncols` columns.  So m / den is the reduced
      row echelon form of `rows`.
    - `den`: the one common denominator, the last pivot (1 if none).  It
      may be negative.
    - `scale`: the product of the row multipliers, negated once per row
      swap; a square matrix of full rank has determinant den / scale.
    """
    m = []
    scale = 1
    for row in rows:
        cleared, lcm = clear_denominators(row)
        m.append(cleared)
        scale *= lcm
    pivots = []
    den = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            scale = -scale
        den = fraction_free_pivot(m, r, col, den)
        pivots.append(col)
    return m, pivots, den, scale


def det(matrix):
    """Exact determinant: closed forms up to 3x3 (1 for the empty
    matrix), `_reduce` beyond.

    An all-int matrix gives an int; otherwise n >= 4 gives a Fraction.
    """
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    if n == 2:
        (a, b), (c, d) = matrix
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = matrix
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    _, pivots, den, scale = _reduce(matrix, n)
    value = den if len(pivots) == n else 0
    if all(isinstance(v, int) for row in matrix for v in row):
        return value * scale  # no denominators to clear, so scale is +-1
    return Fraction(value, scale)


def _sign(x):
    return (x > 0) - (x < 0)


def orientation(simplex_points, d):
    """Sign of det of the rows p_i - p_0; positive = counterclockwise in d=2.

    Zero iff the d+1 points are affinely dependent.
    """
    if len(simplex_points) != d + 1:
        raise DimensionMismatch(f"need {d + 1} points, got {len(simplex_points)}")
    for p in simplex_points:
        if len(p) != d:
            raise DimensionMismatch(f"point {p} has {len(p)} coords, expected {d}")
    p0 = simplex_points[0]
    rows = [[p[j] - p0[j] for j in range(d)] for p in simplex_points[1:]]
    return _sign(det(rows))


@dataclass(frozen=True)
class PointConfiguration:
    """(d+1)(q-1)+1 labeled points in R^d for q-block partition experiments."""

    d: int
    q: int
    points: tuple

    def __post_init__(self):
        expected = point_count(self.d, self.q)
        if len(self.points) != expected:
            raise DimensionMismatch(
                f"d={self.d}, q={self.q} needs {expected} points, got {len(self.points)}"
            )
        for p in self.points:
            if len(p) != self.d:
                raise DimensionMismatch(f"point {p} has wrong dimension")

    @property
    def n(self):
        return len(self.points)

    @cached_property
    def cleared(self):
        """(L, points): L is the positive LCM of every coordinate's
        denominator and the points are the configuration times L, as ints."""
        d = self.d
        flat, lcm = clear_denominators([c for p in self.points for c in p])
        return lcm, tuple(tuple(flat[i : i + d]) for i in range(0, len(flat), d))

    @cached_property
    def determinants(self):
        """Every sorted (d+1)-tuple of labels -> the int determinant of its
        homogeneous coordinates (1, L*p); its sign is the orientation.

        D(x_0, ..., x_d) is linear in each point's homogeneous row, so a
        point given as a positive combination of labels is tested against a
        simplex with sums of these entries (see `tverberg`).
        """
        d = self.d
        pts = self.cleared[1]
        table = {}
        for labels in combinations(range(self.n), d + 1):
            p0, *rest = (pts[i] for i in labels)
            table[labels] = det([[p[j] - p0[j] for j in range(d)] for p in rest])
        return table


def effective_general_position(config: PointConfiguration) -> bool:
    """True iff every (d+1)-subset of the points is affinely independent,
    read off the configuration's determinant table."""
    return all(config.determinants.values())


def points_in_general_position(points, d) -> bool:
    for subset in combinations(points, d + 1):
        if orientation(list(subset), d) == 0:
            return False
    return True


def barycentric_coordinates(p, simplex, d):
    """Barycentric coordinates of p w.r.t. an affinely independent simplex.

    Returns a list of Fractions summing to 1, or None when p is not in the
    affine hull of the simplex.  Raises NoUniquePoint("underdetermined") when
    the simplex is affinely dependent and p is in its affine hull.
    """
    k = len(simplex)
    # Equations: sum(l) = 1 and sum(l_i * s_i[t]) = p[t] for each coordinate t.
    rows = [[1] * (k + 1)] + [[s[t] for s in simplex] + [p[t]] for t in range(d)]
    m, pivots, den, _ = _reduce(rows, k)
    if any(row[-1] for row in m[len(pivots):]):
        return None
    if len(pivots) < k:
        raise NoUniquePoint("underdetermined")
    return [Fraction(row[-1], den) for row in m[:k]]


def common_point(blocks):
    """Some exact point in the intersection of the blocks' convex hulls.

    Returns a tuple of Fractions, or None when the intersection is empty.
    Implemented as exact phase-1 simplex feasibility over the barycentric
    variables of every block, with the blocks' combinations equated.
    """
    if len(blocks) < 2 or any(not blk for blk in blocks):
        raise DimensionMismatch("need at least two non-empty blocks")
    d = len(blocks[0][0])
    for blk in blocks:
        for s in blk:
            if len(s) != d:
                raise DimensionMismatch("coordinate arity mismatch")

    sizes = [len(blk) for blk in blocks]
    offsets = [sum(sizes[:j]) for j in range(len(blocks))]
    nvars = sum(sizes)
    A, b = [], []
    for j, blk in enumerate(blocks):
        row = [0] * nvars
        for i in range(len(blk)):
            row[offsets[j] + i] = 1
        A.append(row)
        b.append(1)
    for j in range(1, len(blocks)):
        for t in range(d):
            row = [0] * nvars
            for i, s in enumerate(blocks[0]):
                row[offsets[0] + i] = -s[t]
            for i, s in enumerate(blocks[j]):
                row[offsets[j] + i] = s[t]
            A.append(row)
            b.append(0)
    x = lp_feasible(A, b)
    if x is None:
        return None
    lam = x[: sizes[0]]
    return tuple(
        sum(lam[i] * Fraction(blocks[0][i][t]) for i in range(sizes[0])) for t in range(d)
    )


def affine_intersection_point(blocks, d=None):
    """The unique common point of the blocks' affine hulls.

    Raises NoUniquePoint("infeasible") when the affine hulls do not meet and
    NoUniquePoint("underdetermined") when they meet in more than a point.
    The caller still has to verify convex-hull (not affine-hull) membership.
    """
    if d is None:
        d = len(blocks[0][0])
    # Unknowns: x (d coords), then per block the affine parameters t_i.
    nparams = sum(len(blk) - 1 for blk in blocks)
    nvars = d + nparams
    rows = []
    off = d
    for blk in blocks:
        b0 = blk[0]
        for t in range(d):
            row = [0] * (nvars + 1)
            row[t] = 1
            for i, s in enumerate(blk[1:]):
                row[off + i] = b0[t] - s[t]
            row[-1] = b0[t]
            rows.append(row)
        off += len(blk) - 1

    m, pivots, den, _ = _reduce(rows, nvars)
    if any(row[-1] for row in m[len(pivots):]):
        raise NoUniquePoint("infeasible")
    # x is unique iff x_0..x_{d-1} are the first d pivots (so row t solves
    # for x_t) and no free parameter enters those rows.
    free = [c for c in range(nvars) if c not in pivots]
    if pivots[:d] != list(range(d)) or any(m[t][c] for t in range(d) for c in free):
        raise NoUniquePoint("underdetermined")
    return tuple(Fraction(m[t][-1], den) for t in range(d))
