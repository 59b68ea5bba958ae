"""Tverberg partition detection, classification, and counting.

Under effective general position a Tverberg partition is either

  * type I:  one singleton {v} plus q-1 full d-simplices all containing v, or
  * type II(k): k blocks of dimension < d whose affine hulls meet in a
    single point that lies strictly inside every block hull, plus q-k full
    d-simplices containing that point, for 2 <= k <= min(d, q).

The canonical Tverberg point of a record is the singleton vertex (type I)
or the affine-hull intersection point of the low-dimensional blocks
(type II).
"""

import math
from dataclasses import dataclass

from .errors import Degenerate, DimensionMismatch, InvalidParameters, NoUniquePoint
from .geometry import (
    BOUNDARY,
    OUTSIDE,
    PointConfiguration,
    common_point,
    affine_intersection_point,
    effective_general_position,
    hull_membership,
    orientation,
    points_in_general_position,
)
from .partitions import canonical, enumerate_candidate_partitions, partitions_with_max_block

TYPE_I = "I"
TYPE_II = "II"


@dataclass(frozen=True)
class TverbergRecord:
    partition: tuple  # canonical tuple of blocks (tuples of labels)
    ptype: str  # TYPE_I or TYPE_II
    k: int | None  # number of low-dimensional blocks for type II
    point: tuple  # the Tverberg point

    def describe(self):
        return TYPE_I if self.ptype == TYPE_I else f"II({self.k})"


@dataclass(frozen=True)
class BirchInstance:
    d: int
    k: int
    points: tuple
    p: tuple

    def __post_init__(self):
        if len(self.points) != self.k * (self.d + 1):
            raise DimensionMismatch(
                f"Birch instance needs k(d+1) = {self.k * (self.d + 1)} points"
            )


def _segments_cross(a, b, c, d_pt):
    """Strict proper crossing test for planar segments; None means a
    boundary-degenerate contact."""
    s1 = orientation([a, b, c], 2)
    s2 = orientation([a, b, d_pt], 2)
    s3 = orientation([c, d_pt, a], 2)
    s4 = orientation([c, d_pt, b], 2)
    if 0 in (s1, s2, s3, s4):
        return None
    return s1 != s2 and s3 != s4


def is_tverberg(partition, config: PointConfiguration):
    """Classify a candidate partition; returns a TverbergRecord or None.

    A candidate has q blocks of at most d+1 labels each, n labels in all, so
    its blocks fall short of d+1 points by d in total.  A lone low block is
    therefore a singleton (type I); otherwise there are 2 <= k <= min(d, q)
    low blocks (type II(k)).  Raises InvalidParameters for any other
    partition, and Degenerate whenever an exact verdict lands on a boundary,
    so a non-generic input is surfaced rather than silently resolved.
    """
    d, q = config.d, config.q
    sizes = list(map(len, partition))
    if len(sizes) != q or max(sizes) > d + 1 or sum(sizes) != config.n:
        raise InvalidParameters("not a candidate partition")
    pts = config.points
    blocks = [tuple(pts[i] for i in blk) for blk in partition]
    full = [b for b in blocks if len(b) == d + 1]
    low = [b for b in blocks if len(b) <= d]

    if len(low) == 1:  # type I: the lone low block is a singleton
        ptype, k, point = TYPE_I, None, low[0][0]
        on_boundary = "singleton on a block-hull boundary"
    else:  # type II(k): intersect the low-dimensional affine hulls
        ptype, k = TYPE_II, len(low)
        on_boundary = "intersection point on a block-hull boundary"
        if d == 2 and k == 2 and all(len(b) == 2 for b in low):
            crossing = _segments_cross(low[0][0], low[0][1], low[1][0], low[1][1])
            if crossing is None:
                raise Degenerate("segment contact on a boundary")
            if not crossing:
                return None
        try:
            point = affine_intersection_point([list(b) for b in low], d)
        except NoUniquePoint as exc:
            if exc.reason == "infeasible":
                return None
            raise Degenerate("affine hulls meet in more than a point") from exc
        for b in low:
            verdict = hull_membership(point, b, d)
            if verdict == OUTSIDE:
                return None
            if verdict == BOUNDARY:
                raise Degenerate("intersection point on a low-block boundary")
    for simplex in full:
        verdict = hull_membership(point, simplex, d)
        if verdict == OUTSIDE:
            return None
        if verdict == BOUNDARY:
            raise Degenerate(on_boundary)
    return TverbergRecord(canonical(partition), ptype, k, tuple(point))


def tverberg_records(config: PointConfiguration):
    """All Tverberg records of the configuration; their count is T(X)."""
    if not effective_general_position(config):
        raise Degenerate("configuration not in effective general position")
    records = []
    for partition in enumerate_candidate_partitions(config.n, config.q, config.d):
        rec = is_tverberg(partition, config)
        if rec is not None:
            records.append(rec)
    return records


def tverberg_records_oracle(config: PointConfiguration):
    """Independent brute force: exact LP hull-intersection test on every
    candidate, no type-classification shortcut."""
    hits = []
    for partition in enumerate_candidate_partitions(config.n, config.q, config.d):
        blocks = [[config.points[i] for i in blk] for blk in partition]
        if common_point(blocks, config.d) is not None:
            hits.append(canonical(partition))
    return hits


SIERKSMA = "sierksma"
C_TABLE = {(2, 3): 4}  # only c_{2,3} = 4 is known


def prime_power(q):
    """(p, r) with q = p^r and p prime, or None; trial division
    (sufficient for q <= 10^6)."""
    if q < 2:
        return None
    n = q
    f = 2
    while f * f <= n:
        if n % f == 0:
            r = 0
            while n % f == 0:
                n //= f
                r += 1
            return (f, r) if n == 1 else None
        f += 1
    return q, 1  # q itself prime


def is_prime_power(q):
    return prime_power(q) is not None


def counting_report(config: PointConfiguration, records=None):
    """T(X), type histogram, and the counting-theorem checks that apply."""
    if records is None:
        records = tverberg_records(config)
    d, q = config.d, config.q
    t = len(records)
    histogram = {}
    for rec in records:
        histogram[rec.describe()] = histogram.get(rec.describe(), 0) + 1

    report = {
        "d": d,
        "q": q,
        "T": t,
        "histogram": dict(sorted(histogram.items())),
        "checks": {},
    }
    checks = report["checks"]
    if q > d + 1:
        checks["evenness"] = {"applies": True, "ok": t % 2 == 0}
    else:
        checks["evenness"] = {"applies": False}
    lower = math.factorial(q - d) if q >= d else 1
    checks["lower_bound_(q-d)!"] = {"bound": lower, "ok": t >= lower}
    if d >= 2 and q > 2 and is_prime_power(q):
        c = C_TABLE.get((d, q))
        if c is None:
            checks["prime_power_bound"] = {"constant": "unknown"}
        else:
            bound = min(math.factorial(q - 1), c * math.factorial(q - d))
            checks["prime_power_bound"] = {"bound": bound, "ok": t >= bound}
    if (d, q) == (2, 3):
        # Sierksma bound ((q-1)!)^d, settled for this pair.
        checks[SIERKSMA] = {"bound": 4, "ok": t >= 4}
    report["ok"] = all(c.get("ok", True) for c in checks.values())
    return report


def birch_general_position(instance: BirchInstance) -> bool:
    """No point equals p, and every (d+1)-subset of points-plus-p is
    affinely independent (rules out all Boundary verdicts)."""
    if any(tuple(pt) == tuple(instance.p) for pt in instance.points):
        return False
    return points_in_general_position(list(instance.points) + [instance.p], instance.d)


def birch_records(instance: BirchInstance):
    """All Birch partitions for p: k blocks of size d+1, each with p
    strictly inside its hull.  The count is B_p(X)."""
    d, k = instance.d, instance.k
    if not birch_general_position(instance):
        raise Degenerate("Birch instance not in general position relative to p")
    labels = range(len(instance.points))
    out = []
    # k blocks of at most d+1 labels cover all k(d+1) labels only at size d+1.
    for partition in partitions_with_max_block(labels, k, d + 1):
        ok = True
        for blk in partition:
            simplex = [instance.points[i] for i in blk]
            verdict = hull_membership(instance.p, simplex, d)
            if verdict == BOUNDARY:
                raise Degenerate("query point on a block-hull boundary")
            if verdict == OUTSIDE:
                ok = False
                break
        if ok:
            out.append(partition)
    return out
