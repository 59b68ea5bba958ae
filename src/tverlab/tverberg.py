"""Tverberg partition detection, classification, and counting.

Under effective general position a Tverberg partition is either

  * type I:  one singleton {v} plus q-1 full d-simplices all containing v, or
  * type II(k): k blocks of dimension < d whose affine hulls meet in a
    single point that lies strictly inside every block hull, plus q-k full
    d-simplices containing that point, for 2 <= k <= min(d, q).

The canonical Tverberg point of a record is the singleton vertex (type I)
or the affine-hull intersection point of the low-dimensional blocks
(type II).

`is_tverberg`, `tverberg_records` and `constraints.witness_search` share
one classifier, which works on the configuration's determinant table D
(see `geometry`) and integers:
  * a point v lies in a full simplex S iff every D(S with s_i -> v) has
    the sign of D(S);
  * two low blocks A, B hold d+2 labels, and their hulls meet iff the Radon
    coefficients lambda_x = +-D(A u B minus x) have one sign on A and the
    other on B; taking lambda positive on A, the point is
    sum_A lambda_a a / sum_A lambda_a, and since D is linear in each row, S
    contains it iff sum_A lambda_a D(S_i -> a) has the sign of D(S) for
    every i;
  * k >= 3 low blocks take one fraction-free elimination for their affine
    parameters, whose numerators are every low block's barycentric
    coordinates, and the same table sums for the full blocks.
A `Fraction` is built only for an accepted type II record's point.

A Birch partition of k(d+1) points around p (Birch 1959) is the same thing
as a type I partition of the points plus p whose singleton is p, so
`birch_records` takes a configuration with q = k+1 and p as its last point
and asks the same classifier.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import Degenerate, InvalidParameters
from .geometry import PointConfiguration, _reduce, common_point, effective_general_position
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


def _swapped(table, simplex, i, a):
    """D(simplex with its i-th label replaced by a), read off the
    determinant table.  `simplex` is a sorted label tuple without a; sorting
    the replaced tuple moves a past |i - j| labels, j being a's sorted place."""
    r = sum(s < a for s in simplex)
    if i < r:
        key, moves = simplex[:i] + simplex[i + 1 : r] + (a,) + simplex[r:], r - 1 - i
    else:
        key, moves = simplex[:r] + (a,) + simplex[r:i] + simplex[i + 1 :], i - r
    return -table[key] if moves % 2 else table[key]


def _radon_weights(a_block, b_block, table):
    """Positive weights w on the labels of A with sum(w_a * a) / sum(w) the
    one point where conv A meets conv B, or None when the hulls miss.

    A and B hold d+2 labels z_0 < ... < z_{d+1}, whose one affine dependence
    is lambda_j = (-1)^j D(z without z_j) (Cramer), every lambda non-zero in
    general position.  The hulls meet iff lambda has one sign on A and the
    other on B (Radon), and then the point is sum_A lambda_a a / sum_A lambda_a.
    """
    z = tuple(sorted(a_block + b_block))
    lam = {}
    for j, x in enumerate(z):
        value = table[z[:j] + z[j + 1 :]]
        lam[x] = -value if j % 2 else value
    positive = lam[a_block[0]] > 0
    if any((lam[a] > 0) != positive for a in a_block) or any(
        (lam[b] > 0) == positive for b in b_block
    ):
        return None
    return [lam[a] if positive else -lam[a] for a in a_block]


def _meet_weights(low, config):
    """Positive weights on the first low block's labels for the one point
    where the k >= 3 low blocks' affine hulls meet, or None when they miss
    or that point is outside some block's hull.

    One integer elimination solves for the blocks' affine parameters: block
    j's point is b_j0 + sum_i t_ji (b_ji - b_j0), and the first block's point
    equals every other's, (k-1)d equations in as many unknowns.  The
    barycentric coordinates of every block are its parameters' numerators
    over the one denominator.  Raises Degenerate when the hulls meet in more
    than a point or the point is on a low block's relative boundary.
    """
    pts = config.cleared[1]
    first = low[0]
    offsets = [0]
    for blk in low:
        offsets.append(offsets[-1] + len(blk) - 1)
    nvars = offsets[-1]
    rows = []
    for j in range(1, len(low)):
        blk = low[j]
        for t in range(config.d):
            row = [0] * (nvars + 1)
            b0 = pts[first[0]][t]
            for i, label in enumerate(first[1:]):
                row[i] = pts[label][t] - b0
            c0 = pts[blk[0]][t]
            for i, label in enumerate(blk[1:]):
                row[offsets[j] + i] = c0 - pts[label][t]
            row[-1] = c0 - b0
            rows.append(row)
    m, pivots, den, _ = _reduce(rows, nvars)
    if len(pivots) < nvars:
        if any(row[-1] for row in m[len(pivots) :]):
            return None
        raise Degenerate("affine hulls meet in more than a point")
    params = [row[-1] if den > 0 else -row[-1] for row in m]
    den = abs(den)
    weights = []
    for start, stop in zip(offsets, offsets[1:]):
        coords = [den - sum(params[start:stop]), *params[start:stop]]
        if any(c < 0 for c in coords):
            return None
        if 0 in coords:
            raise Degenerate("intersection point on a low-block boundary")
        weights.append(coords)
    return weights[0]


def _classify(partition, config):
    """The record of a candidate whose blocks are sorted label tuples, or
    None; the configuration is in effective general position.

    The Tverberg point is sum(w_a * a) / sum(w) over the labels a of one
    low block, with weights w > 0: the singleton itself (Type I), the Radon
    point of two low blocks, or one elimination's solution for k >= 3.  A
    full simplex S contains it iff sum_a w_a D(S with s_i -> a) has the sign
    of D(S) for every i, D being multilinear in the rows.
    """
    d = config.d
    table = config.determinants
    full = [b for b in partition if len(b) == d + 1]
    low = [b for b in partition if len(b) <= d]

    labels = low[0]
    if len(low) == 1:  # type I: the lone low block is a singleton
        ptype, k, weights = TYPE_I, None, [1]
        on_boundary = "singleton on a block-hull boundary"
    else:  # type II(k): the point where the low blocks' affine hulls meet
        ptype, k = TYPE_II, len(low)
        on_boundary = "intersection point on a block-hull boundary"
        if k == 2:
            weights = _radon_weights(low[0], low[1], table)
        else:
            weights = _meet_weights(low, config)
        if weights is None:
            return None
    for simplex in full:
        positive = table[simplex] > 0
        boundary = False
        for i in range(d + 1):
            value = sum(w * _swapped(table, simplex, i, a) for w, a in zip(weights, labels))
            if value == 0:
                boundary = True
            elif (value > 0) != positive:
                return None
        if boundary:
            raise Degenerate(on_boundary)
    if ptype == TYPE_I:
        point = config.points[labels[0]]
    else:
        lcm, pts = config.cleared
        total = sum(weights) * lcm
        point = tuple(
            Fraction(sum(w * pts[a][t] for w, a in zip(weights, labels)), total)
            for t in range(d)
        )
    return TverbergRecord(canonical(partition), ptype, k, tuple(point))


def is_tverberg(partition, config: PointConfiguration):
    """Classify a candidate partition; returns a TverbergRecord or None.

    A candidate has q blocks of at most d+1 labels each, the labels 0..n-1
    once each, so its blocks fall short of d+1 points by d in total.  A lone
    low block is therefore a singleton (type I); otherwise there are
    2 <= k <= min(d, q) low blocks (type II(k)).  Raises InvalidParameters
    for any other partition, Degenerate for a configuration not in effective
    general position, and Degenerate whenever an exact verdict lands on a
    boundary, so a non-generic input is surfaced rather than silently
    resolved.
    """
    d, q = config.d, config.q
    sizes = list(map(len, partition))
    if (
        len(sizes) != q
        or max(sizes) > d + 1
        or sorted(x for blk in partition for x in blk) != list(range(config.n))
    ):
        raise InvalidParameters("not a candidate partition")
    if not effective_general_position(config):
        raise Degenerate("configuration not in effective general position")
    return _classify([tuple(sorted(blk)) for blk in partition], config)


def tverberg_records(config: PointConfiguration):
    """All Tverberg records of the configuration; their count is T(X)."""
    if not effective_general_position(config):
        raise Degenerate("configuration not in effective general position")
    records = []
    for partition in enumerate_candidate_partitions(config.n, config.q, config.d):
        rec = _classify(partition, config)
        if rec is not None:
            records.append(rec)
    return records


def tverberg_records_oracle(config: PointConfiguration, candidates=None):
    """Independent brute force: the canonical partitions, among the given
    candidates (by default every candidate partition of the configuration),
    whose blocks' hulls meet, by one exact LP each and no type-classification
    shortcut."""
    if candidates is None:
        candidates = enumerate_candidate_partitions(config.n, config.q, config.d)
    hits = []
    for partition in candidates:
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


def birch_records(config: PointConfiguration):
    """All Birch partitions of the first n-1 points around p, the last one:
    q-1 blocks of size d+1, each with p strictly inside its hull.  The count
    is B_p(X).  Effective general position rules out p equal to a point and
    p on a block's boundary, where p and d of its labels are dependent."""
    if not effective_general_position(config):
        raise Degenerate("Birch instance not in general position relative to p")
    p = config.n - 1
    # q-1 blocks of at most d+1 labels cover all (d+1)(q-1) labels only at size d+1.
    return [
        partition
        for partition in partitions_with_max_block(range(p), config.q - 1, config.d + 1)
        if _classify(((p,),) + partition, config) is not None
    ]
