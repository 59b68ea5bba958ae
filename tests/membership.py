"""`hull_membership`, the tests' exact point-in-simplex predicate.

It decides a point against the hull of 1 to d+1 explicit points with the
`geometry` predicates (`orientation`, `barycentric_coordinates`).  The
package itself classifies on the determinant table and never calls it.
"""

from tverlab.errors import Degenerate, DimensionMismatch
from tverlab.geometry import barycentric_coordinates, orientation

INSIDE = "Inside"
BOUNDARY = "Boundary"
OUTSIDE = "Outside"


def hull_membership(p, simplex, d=None):
    """Exact Inside/Boundary/Outside of p versus the hull of a simplex.

    The simplex has 1 to d+1 points.  A full one (d+1 points) is decided by
    d+1 orientation signs, with no division, and raises Degenerate when its
    points are affinely dependent.  A lower-dimensional one is decided by
    barycentric coordinates, which raise NoUniquePoint("underdetermined")
    when its points are dependent and p is in their affine hull.
    """
    if d is None:
        d = len(p)
    if not simplex or len(simplex) > d + 1:
        raise DimensionMismatch(f"need 1 to {d + 1} points, got {len(simplex)}")

    if len(simplex) <= d:
        if len(p) != d or set(map(len, simplex)) != {d}:
            raise DimensionMismatch("coordinate arity mismatch")
        coords = barycentric_coordinates(p, simplex, d)
        if coords is None or any(c < 0 for c in coords):
            return OUTSIDE
        return INSIDE if all(c > 0 for c in coords) else BOUNDARY

    simplex = list(simplex)
    base = orientation(simplex, d)  # checks every point's arity, p's below
    if base == 0:
        raise Degenerate("affinely dependent block")
    verdict = INSIDE
    for i in range(d + 1):
        replaced = simplex.copy()
        replaced[i] = p
        s = orientation(replaced, d)
        if s == 0:
            verdict = BOUNDARY
        elif s != base:
            return OUTSIDE
    return verdict
