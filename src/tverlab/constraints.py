"""Constraint graphs: avoidance, admissible families, witness search.

A constraint graph forbids same-block pairs; a partition avoids it when no
block contains both endpoints of any edge.  The admissible families (for
prime-power q > 2) are complete graphs K_l with 2l < q+2, stars K_{1,l}
with l < q-1, paths P_l (l+1 vertices) with l <= (d+1)(q-1) and q > 3,
cycles C_l with l <= (d+1)(q-1)+1 and q > 4, and vertex-disjoint unions of
those.
"""

import math
from dataclasses import dataclass, field

from .complexes import chessboard_on, complex_C, complex_D, complex_E
from .errors import Degenerate, InvalidParameters, LabelMismatch, NotPrimePower
from .geometry import PointConfiguration, common_point, points_in_general_position
from .partitions import enumerate_candidate_partitions
from .rng import SplitMix64
from .tverberg import is_prime_power, is_tverberg

WITNESS_COORD_BOUND = 1 << 10
SAMPLE_COORD_BOUND = 1 << 20


@dataclass(frozen=True)
class ConstraintGraph:
    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        norm = frozenset(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", norm)
        for a, b in norm:
            if a == b:
                raise InvalidParameters(f"loop edge ({a},{b})")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise InvalidParameters(f"edge ({a},{b}) outside 0..{self.n - 1}")


def avoids(partition, graph: ConstraintGraph) -> bool:
    """True iff no block contains both endpoints of any edge."""
    labels = {x for blk in partition for x in blk}
    if any(a not in labels or b not in labels for a, b in graph.edges):
        raise LabelMismatch("graph edge endpoints outside the partition labels")
    for blk in partition:
        s = set(blk)
        for a, b in graph.edges:
            if a in s and b in s:
                return False
    return True


# ---------------------------------------------------------------------------
# Family specs: constructive descriptions of the admissible families.  Each
# connected family states its own facts: its edges, when it is admissible
# (for prime-power q > 2 and n_labels = (d+1)(q-1)+1), its good complex on
# given rows with columns 1..q, and that complex's facet count.
# family_admissible has already refused l <= 0.

class _Connected:
    @property
    def parts(self):
        return (self,)


@dataclass(frozen=True)
class CompleteK(_Connected):
    l: int  # noqa: E741 - parameter name mirrors K_l

    def vertex_count(self):
        return self.l

    def edges_on(self, vertices):
        return [(vertices[i], vertices[j]) for i in range(self.l) for j in range(i + 1, self.l)]

    def admissible(self, q, n_labels):
        return self.l >= 2 and 2 * self.l < q + 2

    def complex(self, q, rows):
        return chessboard_on(rows, q)

    def facet_count(self, q):
        return math.comb(max(self.l, q), min(self.l, q)) * math.factorial(min(self.l, q))


@dataclass(frozen=True)
class Star(_Connected):
    l: int  # noqa: E741 - K_{1,l}, center plus l leaves

    def vertex_count(self):
        return self.l + 1

    def edges_on(self, vertices):
        return [(vertices[0], v) for v in vertices[1:]]

    def admissible(self, q, n_labels):
        return self.l < q - 1

    def complex(self, q, rows):
        return complex_C(self.l, q, rows)

    def facet_count(self, q):
        return q * (q - 1) ** self.l


@dataclass(frozen=True)
class Path(_Connected):
    l: int  # noqa: E741 - P_l on l+1 vertices

    def vertex_count(self):
        return self.l + 1

    def edges_on(self, vertices):
        return list(zip(vertices, vertices[1:]))

    def admissible(self, q, n_labels):
        return self.l <= n_labels - 1 and q > 3

    def complex(self, q, rows):
        return complex_D(self.l, q, rows)

    def facet_count(self, q):
        return q * (q - 1) ** self.l


@dataclass(frozen=True)
class Cycle(_Connected):
    l: int  # noqa: E741 - C_l on l vertices

    def vertex_count(self):
        return self.l

    def edges_on(self, vertices):
        return list(zip(vertices, vertices[1:])) + [(vertices[-1], vertices[0])]

    def admissible(self, q, n_labels):
        return self.l >= 3 and self.l <= n_labels and q > 4

    def complex(self, q, rows):
        return complex_E(self.l, q, rows)

    def facet_count(self, q):
        return (q - 1) ** self.l + (-1) ** self.l * (q - 1)


@dataclass(frozen=True)
class DisjointUnion:
    parts: tuple

    def vertex_count(self):
        return sum(p.vertex_count() for p in self.parts)

    def edges_on(self, vertices):
        edges = []
        off = 0
        for p in self.parts:
            edges.extend(p.edges_on(vertices[off : off + p.vertex_count()]))
            off += p.vertex_count()
        return edges


def family_admissible(spec, q, d) -> bool:
    """Is this family instance a known constraint graph for (q, d)?

    Requires q > 2 and q a prime power (the hypothesis of the family list);
    raises NotPrimePower otherwise.
    """
    if q <= 2 or not is_prime_power(q):
        raise NotPrimePower(f"q={q} is not a prime power > 2")
    if not all(isinstance(p, _Connected) for p in spec.parts):
        raise InvalidParameters(f"not a family component: {spec!r}")
    if any(p.l <= 0 for p in spec.parts):
        raise InvalidParameters("family parameters must be positive")
    n_labels = (d + 1) * (q - 1) + 1
    if spec.vertex_count() > n_labels:
        return False
    return all(p.admissible(q, n_labels) for p in spec.parts)


def instantiate(spec, n, vertices=None) -> ConstraintGraph:
    """Constraint graph of a family spec on explicit vertex labels
    (defaults to 0, 1, 2, ...)."""
    count = spec.vertex_count()
    if vertices is None:
        vertices = list(range(count))
    if len(vertices) != count or len(set(vertices)) != count:
        raise InvalidParameters("need distinct vertices, one per family slot")
    return ConstraintGraph(n, frozenset(spec.edges_on(list(vertices))))


# ---------------------------------------------------------------------------

def constrained_records(config: PointConfiguration, graph: ConstraintGraph, records=None):
    """Tverberg records whose partitions avoid the constraint graph."""
    from .tverberg import tverberg_records

    if records is None:
        records = tverberg_records(config)
    return [r for r in records if avoids(r.partition, graph)]


def sample_configuration(d, q, rng: SplitMix64, coord_bound=SAMPLE_COORD_BOUND):
    """Draw integer-coordinate points until effective general position holds."""
    n = (d + 1) * (q - 1) + 1
    while True:
        pts = tuple(
            tuple(rng.randint(-coord_bound, coord_bound) for _ in range(d)) for _ in range(n)
        )
        if points_in_general_position(pts, d):
            return PointConfiguration(d, q, pts)


def witness_search(q, d, graph: ConstraintGraph, seed, budget):
    """Search for a configuration with no avoiding Tverberg partition.

    Deterministic given the seed.  A returned witness has been re-verified
    by an independent full enumeration with exact LP hull-intersection
    tests.  Samples whose classification hits a degeneracy are skipped
    (they still consume budget).
    """
    if budget < 1:
        return None
    rng = SplitMix64(seed)
    n = (d + 1) * (q - 1) + 1
    candidates = [
        p for p in enumerate_candidate_partitions(n, q, d) if avoids(p, graph)
    ]
    for _ in range(budget):
        config = sample_configuration(d, q, rng, WITNESS_COORD_BOUND)
        try:
            if any(is_tverberg(p, config) is not None for p in candidates):
                continue
        except Degenerate:
            continue
        if _verify_witness(config, candidates):
            return config
    return None


def _verify_witness(config, avoiding_candidates):
    """Independent re-check: no avoiding candidate has intersecting hulls."""
    for partition in avoiding_candidates:
        blocks = [[config.points[i] for i in blk] for blk in partition]
        if common_point(blocks, config.d) is not None:
            return False
    return True
