"""Constraint graphs: avoidance, admissible families, witness search.

A constraint graph forbids same-block pairs; a partition avoids it when no
block contains both endpoints of any edge.  The admissible families (for
prime-power q > 2) are complete graphs K_l with 2l < q+2, stars K_{1,l}
with l < q-1, paths P_l (l+1 vertices) with q > 3, cycles C_l with l >= 3
and q > 4, and vertex-disjoint unions of those, each on at most the
(d+1)(q-1)+1 labels.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations, islice, permutations

from .errors import Degenerate, InvalidParameters, LabelMismatch, NotPrimePower
from .geometry import PointConfiguration, effective_general_position
from .partitions import enumerate_candidate_partitions, point_count
from .rng import SplitMix64
from .tverberg import is_prime_power, tverberg_records

WITNESS_COORD_BOUND = 1 << 10
SAMPLE_COORD_BOUND = 1 << 20  # sampled coordinates, Birch's too, lie in [-bound, bound]


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
# connected family states its own facts: its edges, the paper's rule on q
# for its admissibility (`admissible(q)`, for prime-power q > 2), and the
# facet count of its good complex.  family_admissible adds the check that
# the spec fits on the point_count(d, q) labels, and has already refused
# l <= 0.  The good complex is no family's own: for every graph it is the
# proper q-colorings of its edges (complexes.coloring_complex).

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

    def admissible(self, q):
        return self.l >= 2 and 2 * self.l < q + 2

    def facet_count(self, q):
        return math.comb(max(self.l, q), min(self.l, q)) * math.factorial(min(self.l, q))


@dataclass(frozen=True)
class Star(_Connected):
    l: int  # noqa: E741 - K_{1,l}, center plus l leaves

    def vertex_count(self):
        return self.l + 1

    def edges_on(self, vertices):
        return [(vertices[0], v) for v in vertices[1:]]

    def admissible(self, q):
        return self.l < q - 1

    def facet_count(self, q):
        return q * (q - 1) ** self.l


@dataclass(frozen=True)
class Path(_Connected):
    l: int  # noqa: E741 - P_l on l+1 vertices

    def vertex_count(self):
        return self.l + 1

    def edges_on(self, vertices):
        return list(zip(vertices, vertices[1:]))

    def admissible(self, q):
        return q > 3

    def facet_count(self, q):
        return q * (q - 1) ** self.l


@dataclass(frozen=True)
class Cycle(_Connected):
    l: int  # noqa: E741 - C_l on l vertices

    def vertex_count(self):
        return self.l

    def edges_on(self, vertices):
        return list(zip(vertices, vertices[1:])) + [(vertices[-1], vertices[0])]

    def admissible(self, q):
        return self.l >= 3 and q > 4

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


def family_admissible(spec, d, q) -> bool:
    """Is this family instance a known constraint graph for (d, q)?

    Requires q > 2 and q a prime power (the hypothesis of the family list);
    raises NotPrimePower otherwise.
    """
    if q <= 2 or not is_prime_power(q):
        raise NotPrimePower(f"q={q} is not a prime power > 2")
    if not all(isinstance(p, _Connected) for p in spec.parts):
        raise InvalidParameters(f"not a family component: {spec!r}")
    if any(p.l <= 0 for p in spec.parts):
        raise InvalidParameters("family parameters must be positive")
    if spec.vertex_count() > point_count(d, q):
        return False
    return all(p.admissible(q) for p in spec.parts)


def instantiate(spec, n) -> ConstraintGraph:
    """Constraint graph of a family spec on the vertex labels 0, 1, 2, ...;
    a spec with more than n vertices is refused before any edge is built."""
    if spec.vertex_count() > n:
        raise InvalidParameters(f"graph spec {spec!r} has more vertices than the {n} labels")
    return ConstraintGraph(n, frozenset(spec.edges_on(list(range(spec.vertex_count())))))


# ---------------------------------------------------------------------------

def constrained_records(records, graph: ConstraintGraph):
    """The Tverberg records whose partitions avoid the constraint graph."""
    return [r for r in records if avoids(r.partition, graph)]


def sample_configuration(d, q, rng: SplitMix64, coord_bound=SAMPLE_COORD_BOUND, tail=()):
    """Draw integer-coordinate points, followed by the fixed points `tail`,
    until effective general position holds.  Only the drawn points change
    between draws; a Birch instance passes its query point as the tail.

    The check fills the configuration's determinant table, which its
    classification then reads without recomputing it."""
    drawn = point_count(d, q) - len(tail)
    while True:
        pts = tuple(
            tuple(rng.randint(-coord_bound, coord_bound) for _ in range(d)) for _ in range(drawn)
        )
        config = PointConfiguration(d, q, pts + tail)
        if effective_general_position(config):
            return config


def sample_classified_configuration(d, q, rng: SplitMix64, coord_bound=SAMPLE_COORD_BOUND):
    """The next sampled configuration whose full classification succeeds
    (effective general position and no boundary verdicts), with its
    records."""
    while True:
        config = sample_configuration(d, q, rng, coord_bound)
        try:
            return config, tverberg_records(config)
        except Degenerate:
            continue


def avoiding_candidates(graph: ConstraintGraph, d, q):
    """The candidate partitions for (d, q) that avoid the graph, in
    enumeration order, listed without generating the others."""
    n = point_count(d, q)
    if any(not 0 <= v < n for edge in graph.edges for v in edge):
        raise LabelMismatch("graph edge endpoints outside the partition labels")
    return list(enumerate_candidate_partitions(d, q, graph.edges))


def hit_masks(records, n):
    """masks[a][b] is the bitmask of the records (bit i for records[i]) whose
    partition has labels a and b in one block.  A graph placed on the labels
    is avoided by no record iff its edges' masks cover every record."""
    masks = [[0] * n for _ in range(n)]
    for i, record in enumerate(records):
        bit = 1 << i
        for block in record.partition:
            for a, b in combinations(block, 2):
                masks[a][b] |= bit
                masks[b][a] |= bit
    return masks


def _relabelled(config, vertices, placement):
    """The configuration whose label v holds the point at the label placed
    for graph vertex v; the other labels keep their order."""
    placed = dict(zip(vertices, placement))
    rest = iter(a for a in range(config.n) if a not in placed.values())
    source = [placed[v] if v in placed else next(rest) for v in range(config.n)]
    return PointConfiguration(config.d, config.q, tuple(config.points[a] for a in source))


def witness_search(d, q, graph, seed, budget):
    """Search for a configuration on which every Tverberg partition has both
    ends of some edge of the graph in one block; deterministic given the seed.

    Each draw's records are listed once and their hit masks built once.  The
    placements of the graph's vertices on distinct labels are tried depth
    first (vertices in increasing order, each on the smallest free label
    first), and a placement whose edges' masks cover every record is a
    witness: its draw is returned relabelled so that the placement becomes
    the graph itself.  A refused (Degenerate) draw is drawn again, as in a
    count.  `budget` bounds the placements tried across draws, so a graph
    with many vertices stops within it on its first draw.
    `drivers.witness_report` checks a witness once with the exact LP oracle.
    """
    n = point_count(d, q)
    vertices = sorted({v for edge in graph.edges for v in edge})
    index = {v: i for i, v in enumerate(vertices)}
    edges = [(index[a], index[b]) for a, b in sorted(graph.edges)]
    rng = SplitMix64(seed)
    while budget > 0:
        config, records = sample_classified_configuration(d, q, rng, WITNESS_COORD_BOUND)
        masks = hit_masks(records, n)
        every = (1 << len(records)) - 1
        for placement in islice(permutations(range(n), len(vertices)), budget):
            budget -= 1
            covered = 0
            for i, j in edges:
                covered |= masks[placement[i]][placement[j]]
            if covered == every:
                return _relabelled(config, vertices, placement)
    return None
