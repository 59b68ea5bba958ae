"""Tverberg partition detection, classification, and counting.

Under effective general position a Tverberg partition is either

  * type I:  one singleton {v} plus q-1 full d-simplices all containing v, or
  * type II(k): k blocks of dimension < d whose affine hulls meet in a
    single point that lies strictly inside every block hull, plus q-k full
    d-simplices containing that point, for 2 <= k <= min(d, q).

The canonical Tverberg point of a record is the singleton vertex (type I)
or the affine-hull intersection point of the low-dimensional blocks
(type II).

Everything reads the configuration's determinant table D (see `geometry`)
and computes with integers.  A type II point is x = sum_F w_a a / sum_F w_a
over the labels of the first low block F.  Each other low block B is
completed to the simplex S_B = B u Y_B, Y_B the first d+1-|B| labels of F,
and x lies in aff(B) iff for every y in Y_B

    sum_F w_a D(S_B with y -> a) = 0,

|F|-1 equations in |F| unknowns.  Cramer's rule solves them (`_low_point`):
w_c = (-1)^c times the minor without column c.  With sum(w) > 0, D being
linear in each homogeneous row, a simplex S (a full block, or S_B at B's
places) has x strictly inside iff every sum_F w_a D(S with s_i -> a) has
the sign of D(S) (`_inside`).  A zero sum(w) with some w_c != 0 means the
hulls meet only at infinity.  If every w_c is 0, the equations are rank
deficient, and the hulls meet in more than a point (Degenerate) or not at
all (None) as the equations plus sum(w) = 1 are consistent or not, which
one `_reduce` decides on this cold path.  A `Fraction` is built only for a
type II point.

`tverberg_records` enumerates points first.  Each (d+2)-subset U has one
affine dependency, lambda_i = (-1)^i D(U minus u_i), nonzero in effective
general position; its positive and negative labels are U's Radon
partition.  A side with one label v is a type I fact (v lies inside the
other d+1 labels' simplex), and two sides of at least 2 labels each are
the only low pair on U whose hulls meet (type II(2)).  These Radon pairs
also say which low blocks meet: disjoint low blocks A and B meet iff some
pair (F, G) has F in A and G in B, up to order.  A vertex x of
conv A n conv B lies in the relative interiors of faces F of A and G of B
whose hulls meet only at x, so |F| + |G| <= d+2; no d+1 labels are
dependent, so |F| + |G| = d+2, and then (F, G) is the Radon pair of
F u G.  Three or more low blocks meet only if every two of them do, so the
type II(k >= 3) families tried are the pairwise meeting ones whose sizes
fit a candidate (`_meeting_families`), each through `_low_point`.  A
point's full blocks are then every exact cover of the remaining labels by
the (d+1)-subsets that contain it (`_exact_covers`), and the records are
sorted by the restricted-growth string of their partition, which is the
order of `enumerate_candidate_partitions`.

The Degenerate contract is "refuse, never guess": a count refuses only
when a decision it makes lands on a boundary.  It tests each type II point
against every (d+1)-subset of the labels outside its low blocks, so such a
point on any of their boundaries stops it, and it tries a k >= 3 family
only if its blocks pairwise meet.  `is_tverberg` looks its candidate up in
`tverberg_records`, so it refuses exactly the draws a count refuses.

A Birch partition of k(d+1) points around p (Birch 1959) is the same thing
as a type I partition of the points plus p whose singleton is p, so
`birch_records` takes a configuration with q = k+1 and p as its last point,
runs the same Radon pass (`_radon_pass`) and takes the exact covers of the
other labels by the simplices that contain p.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import Degenerate, InvalidParameters
from .geometry import PointConfiguration, _reduce, common_point, det, effective_general_position
from .partitions import canonical, enumerate_candidate_partitions

LOW_BOUNDARY = "intersection point on a low-block boundary"
FULL_BOUNDARY = "intersection point on a block-hull boundary"


@dataclass(frozen=True)
class TverbergRecord:
    partition: tuple  # canonical tuple of blocks (tuples of labels)
    k: int  # number of low-dimensional blocks; 1, the singleton, for type I
    point: tuple  # the Tverberg point

    def describe(self):
        return "I" if self.k == 1 else f"II({self.k})"


def _swapped(table, simplex, i, a):
    """D(simplex with its i-th label replaced by a), read off the
    determinant table.  `simplex` is a sorted label tuple.  If a is one of
    its labels the result is D(simplex) at a's own place and 0 elsewhere;
    otherwise sorting the replaced tuple moves a past |i - j| labels, j
    being a's sorted place."""
    r = bisect_left(simplex, a)
    if r < len(simplex) and simplex[r] == a:
        return table[simplex] if r == i else 0
    if i < r:
        key, moves = simplex[:i] + simplex[i + 1 : r] + (a,) + simplex[r:], r - 1 - i
    else:
        key, moves = simplex[:r] + (a,) + simplex[r:i] + simplex[i + 1 :], i - r
    return -table[key] if moves % 2 else table[key]


def _inside(table, simplex, positions, weights, labels, message):
    """Whether the point sum(w_a * a) / sum(w), sum(w) > 0, has positive
    barycentric coordinates at the given positions of `simplex`: False if
    one is negative, else Degenerate(message) if one is 0, else True.

    Coordinate i is sum_a w_a D(simplex with s_i -> a) / D(simplex), D
    being linear in each homogeneous row."""
    positive = table[simplex] > 0
    boundary = False
    for i in positions:
        value = 0
        for w, a in zip(weights, labels):
            value += w * _swapped(table, simplex, i, a)
        if value == 0:
            boundary = True
        elif (value > 0) != positive:
            return False
    if boundary:
        raise Degenerate(message)
    return True


def _cramer(rows, m):
    """The w with sum_c row[c] * w_c = 0 for each of the m-1 rows: w_c is
    (-1)^c times the minor without column c."""
    return [(-1) ** c * det([row[:c] + row[c + 1 :] for row in rows]) for c in range(m)]


def _low_point(low, table, d):
    """(weights, total) of the point where the low blocks' hulls meet, on
    the labels of the first low block, with total = sum(weights) > 0; or
    None if the hulls do not meet.  The blocks are sorted label tuples in
    canonical order.

    The weights solve the table's equations by Cramer's rule (see the module
    docstring); then F and each other low block, at its own places in its
    completed simplex, must contain the point, in that order.
    """
    first = low[0]
    completed = []  # (B, S_B, |Y_B|) for the other low blocks
    rows = []
    for b in low[1:]:
        gap = d + 1 - len(b)
        s = tuple(sorted(b + first[:gap]))
        completed.append((b, s, gap))
        rows += ([_swapped(table, s, s.index(y), a) for a in first] for y in first[:gap])
    weights = _cramer(rows, len(first))
    total = sum(weights)
    if total == 0:  # the hulls meet at infinity, in more than a point, or not at all
        if any(weights):
            return None
        rows = [row + [0] for row in rows] + [[1] * (len(first) + 1)]
        m, pivots, _, _ = _reduce(rows, len(first))
        if any(row[-1] for row in m[len(pivots) :]):
            return None
        raise Degenerate("affine hulls meet in more than a point")
    if total < 0:
        weights, total = [-w for w in weights], -total
    lowest = min(weights)
    if lowest < 0:
        return None
    if lowest == 0:
        raise Degenerate(LOW_BOUNDARY)
    for b, s, gap in completed:  # Y_B's labels add 0 at B's places
        places = [s.index(x) for x in b]
        if not _inside(table, s, places, weights[gap:], first[gap:], LOW_BOUNDARY):
            return None
    return weights, total


def _point(first, weights, total, config):
    """The point sum(w_a * a) / total over the labels `first`, a tuple of
    Fractions."""
    lcm, pts = config.cleared
    return tuple(
        Fraction(sum(w * pts[a][t] for w, a in zip(weights, first)), total * lcm)
        for t in range(config.d)
    )


def is_tverberg(partition, config: PointConfiguration):
    """The record of a candidate partition in `tverberg_records(config)`,
    or None.

    A candidate has q blocks of at most d+1 labels each, the labels 0..n-1
    once each; any other partition raises InvalidParameters.  The lookup
    lists every record of the configuration, so it raises Degenerate
    exactly when a count does (see the module docstring).
    """
    d, q = config.d, config.q
    sizes = list(map(len, partition))
    if (
        len(sizes) != q
        or max(sizes) > d + 1
        or sorted(x for blk in partition for x in blk) != list(range(config.n))
    ):
        raise InvalidParameters("not a candidate partition")
    target = canonical(partition)
    return next((r for r in tverberg_records(config) if r.partition == target), None)


def _dependency(table, u):
    """The affine dependency of the d+2 sorted labels u:
    lambda_i = (-1)^i D(u without u_i), so sum_i lambda_i (1, u_i) = 0."""
    return [
        -table[u[:i] + u[i + 1 :]] if i % 2 else table[u[:i] + u[i + 1 :]]
        for i in range(len(u))
    ]


def _exact_covers(labels, simplices):
    """Every partition of `labels` into members of `simplices` (sorted
    label tuples), each as its blocks in canonical order.

    Algorithm X (Knuth, "Dancing Links", 2000) on bitmasks, always
    branching on the smallest uncovered label: the block that covers it
    is one of the simplices whose smallest label it is."""
    starting = {}
    for s in simplices:
        starting.setdefault(s[0], []).append((sum(1 << a for a in s), s))
    covers = []
    stack = [(sum(1 << a for a in labels), ())]  # (uncovered labels, blocks so far)
    while stack:
        free, chosen = stack.pop()
        if not free:
            covers.append(chosen)
            continue
        for mask, s in starting.get((free & -free).bit_length() - 1, ()):
            if mask & free == mask:
                stack.append((free ^ mask, chosen + (s,)))
    return covers


def _growth_string(partition):
    """The block index of each label, blocks in canonical order: candidate
    partitions are enumerated in increasing order of this string."""
    rgs = [0] * sum(map(len, partition))
    for j, block in enumerate(partition):
        for a in block:
            rgs[a] = j
    return rgs


def _meeting_families(pairs, n, d):
    """Every family of k >= 3 disjoint low blocks that pairwise meet and
    fall short of d+1 labels by d in total, blocks in canonical order.
    `pairs` are the Radon pairs (F, G) with both sides of at least 2 labels.
    Such a family has (d+1)(k-1)+1 of the n labels, so k <= q.

    Two blocks of such a family fall short by at most d-1 together, so they
    hold at least d+3 labels, each at least 3 and at most d.  A and B meet
    iff F is in A and G in B for some pair, up to order (see the module
    docstring), so each pair's supersets of those sizes are the meeting
    blocks, and
    `later[A]` holds the blocks that meet A and start after it."""
    later = {}
    for f, g in pairs:
        rest = [a for a in range(n) if a not in f and a not in g]
        for size_a in range(max(3, len(f)), d + 1):
            for more_a in combinations(rest, size_a - len(f)):
                a = tuple(sorted(f + more_a))
                free = [x for x in rest if x not in more_a]
                for size_b in range(max(3, len(g), d + 3 - size_a), d + 1):
                    for more_b in combinations(free, size_b - len(g)):
                        b = tuple(sorted(g + more_b))
                        first, second = (a, b) if a < b else (b, a)
                        later.setdefault(first, set()).add(second)
    stack = [((a,), meets, len(a) - 1) for a, meets in later.items()]
    while stack:  # (blocks so far, blocks meeting all of them, labels short)
        chosen, common, short = stack.pop()
        for c in common:
            gap = d + 1 - len(c)
            if gap == short:
                yield chosen + (c,)
            elif gap < short:
                stack.append((chosen + (c,), common & later.get(c, set()), short - gap))


def _radon_pass(config):
    """The Radon partition of every (d+2)-subset of the labels, from its
    affine dependency: (inside, points), with inside[v] the simplices that
    contain label v (type I) and points the type II(2) points as (low
    blocks, weights, total) on the first block."""
    table = config.determinants
    inside = {v: [] for v in range(config.n)}
    points = []
    for u in combinations(range(config.n), config.d + 2):
        lam = _dependency(table, u)
        positive = tuple(a for a, x in zip(u, lam) if x > 0)
        negative = tuple(a for a, x in zip(u, lam) if x < 0)
        if len(positive) == 1 or len(negative) == 1:
            (v,) = positive if len(positive) == 1 else negative
            inside[v].append(tuple(a for a in u if a != v))
        else:
            low = tuple(sorted((positive, negative)))
            weights = [abs(x) for a, x in zip(u, lam) if a in low[0]]
            points.append((low, weights, sum(weights)))
    return inside, points


def tverberg_records(config: PointConfiguration):
    """All Tverberg records of the configuration, in candidate order; their
    count is T(X).  Points first, then the full blocks as exact covers (see
    the module docstring)."""
    if not effective_general_position(config):
        raise Degenerate("configuration not in effective general position")
    d, n = config.d, config.n
    table = config.determinants
    labels = range(n)
    inside, points = _radon_pass(config)
    pairs = [low for low, _, _ in points]  # the Radon pairs behind the type II(2) points
    for low in _meeting_families(pairs, n, d):
        found = _low_point(low, table, d)
        if found is not None:
            points.append((low, *found))

    records = []
    for v in labels:
        rest = [a for a in labels if a != v]
        point = config.points[v]
        for cover in _exact_covers(rest, inside[v]):
            records.append(TverbergRecord(canonical(((v,),) + cover), 1, point))
    for low, weights, total in points:
        used = {a for b in low for a in b}
        rest = [a for a in labels if a not in used]
        first = low[0]
        simplices = [
            s
            for s in combinations(rest, d + 1)
            if _inside(table, s, range(d + 1), weights, first, FULL_BOUNDARY)
        ]
        covers = _exact_covers(rest, simplices)
        if covers:
            point = _point(first, weights, total, config)
            records += (
                TverbergRecord(canonical(low + cover), len(low), point) for cover in covers
            )
    records.sort(key=lambda r: _growth_string(r.partition))
    return records


def _boxes_apart(xs, ys):
    """Whether the axis-aligned bounding boxes of two point lists are apart:
    in some coordinate one list's maximum is strictly below the other's
    minimum, so their hulls are disjoint."""
    return any(max(u) < min(v) or max(v) < min(u) for u, v in zip(zip(*xs), zip(*ys)))


def tverberg_records_oracle(config: PointConfiguration, apart=()):
    """Independent check by exact LPs and box comparisons alone: the
    candidate partitions whose blocks' hulls meet, in candidate order, with
    no type-classification shortcut; with `apart`, only the candidates that
    keep each of its label pairs in different blocks.

    Hulls with a common point meet pairwise, so each candidate of
    `enumerate_candidate_partitions` first has its block pairs tested, each
    pair decided once.  Two blocks whose axis-aligned bounding boxes are
    apart (in some coordinate one block's maximum is strictly below the
    other's minimum) have disjoint hulls, and that decides the pair with no
    LP; otherwise, touching boxes included, a two-block `common_point` LP
    decides it.  The comparisons are exact and assume no general position.
    A candidate whose blocks meet pairwise is a hit iff the full
    `common_point` LP on its q blocks is feasible."""
    points = config.points
    meets = {}

    def meet(a, b):
        if (a, b) not in meets:
            hulls = [[points[i] for i in a], [points[i] for i in b]]
            meets[a, b] = not _boxes_apart(*hulls) and common_point(hulls) is not None
        return meets[a, b]

    return [
        partition
        for partition in enumerate_candidate_partitions(config.d, config.q, apart)
        if all(meet(a, b) for a, b in combinations(partition, 2))
        and common_point([[points[i] for i in b] for b in partition]) is not None
    ]


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


def counting_report(config: PointConfiguration, records):
    """T(X), type histogram, and the counting-theorem checks that apply, for
    the configuration's Tverberg records."""
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
    q-1 blocks of size d+1, each with p strictly inside its hull, in
    candidate order.  The count is B_p(X).  Effective general position rules
    out p equal to a point and p on a block's boundary, where p and d of its
    labels are dependent."""
    if not effective_general_position(config):
        raise Degenerate("Birch instance not in general position relative to p")
    p = config.n - 1
    inside, _ = _radon_pass(config)
    return sorted(_exact_covers(range(p), inside[p]), key=_growth_string)
