"""Chessboard-type simplicial complexes and their group actions.

Vertices of the configuration-space complexes are (row, column) pairs with
integer rows and columns 1..q; a face assigns each of its rows one column.
The full configuration space on rows 0..N is the q-fold pairwise deleted
join of the N-simplex: every partial assignment of rows to columns.

The good complex of a constraint graph keeps the assignments that put the
two ends of every edge in different columns: its facets are the graph's
proper q-colorings, all built by coloring_complex(rows, q, edges).  So are
complex_C, complex_D and complex_E (the star K_{1,l}, path P_l and cycle C_l
on rows 0, 1, 2, ... in order); their decompositions into cones and D^k, E^i
subcomplexes split them by the column of one row.  chessboard(m, n), the
partial assignments injective on columns, is not: with more rows than
columns its facets are not colorings.

A good subcomplex of a constraint family is a join, kept as the tuple of
its factors; the goodness, invariance and orbit checks each take one
complex, and the goodness campaign runs them on each factor.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

from .constraints import Cycle, Path, Star, family_admissible
from .errors import InvalidParameters, LabelCollision, LabelFormat
from .partitions import point_count
from .tverberg import prime_power


class SimplicialComplex:
    """Abstract simplicial complex with facet-based storage."""

    def __init__(self, facets):
        fs = {frozenset(f) for f in facets}
        fs.discard(frozenset())
        # largest first, a facet is maximal iff no facet kept before holds it
        kept = []
        for f in sorted(fs, key=len, reverse=True):
            if kept and len(f) < len(kept[0]) and any(map(f.__lt__, kept)):
                fs.remove(f)
            else:
                kept.append(f)
        self.facets = frozenset(fs)
        self._faces = None

    @cached_property
    def vertices(self):
        return frozenset().union(*self.facets)

    @property
    def dim(self):
        if not self.facets:
            return -1
        return max(len(f) for f in self.facets) - 1

    def faces(self):
        """All non-empty faces, cached."""
        if self._faces is None:
            out = set()
            for f in self.facets:
                elems = tuple(f)
                for r in range(1, len(elems) + 1):
                    out.update(map(frozenset, combinations(elems, r)))
            self._faces = out
        return self._faces

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return f"SimplicialComplex({len(self.facets)} facets, dim {self.dim})"


def join(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; facets are unions of facets."""
    if k1.vertices & k2.vertices:
        raise LabelCollision("join factors share vertex labels")
    if not k1.facets:
        return k2
    if not k2.facets:
        return k1
    return SimplicialComplex(f1 | f2 for f1 in k1.facets for f2 in k2.facets)


def coloring_complex(rows, q, edges) -> SimplicialComplex:
    """The proper q-colorings of the graph `edges` on `rows`: assignments of
    the rows to columns 1..q that put the ends of every edge in different
    columns.  Each row in turn skips the columns of its earlier neighbours,
    so only facets are built."""
    rows = list(rows)
    position = {row: i for i, row in enumerate(rows)}
    if len(position) != len(rows):
        raise InvalidParameters(f"repeated row in {rows!r}")
    earlier = [[] for _ in rows]  # position -> positions of earlier neighbours
    for a, b in edges:
        if a == b or a not in position or b not in position:
            raise InvalidParameters(f"edge {(a, b)!r} is a loop or leaves the rows {rows!r}")
        i, j = sorted((position[a], position[b]))
        earlier[j].append(i)
    colorings = [()]  # each a tuple of vertices, one per row so far
    for row, neighbours in zip(rows, earlier):
        cells = [(row, c) for c in range(1, q + 1)]  # shared by every facet
        grown = []
        for assigned in colorings:
            used = {assigned[i][1] for i in neighbours}
            grown.extend(assigned + (v,) for v in cells if v[1] not in used)
        colorings = grown
    return SimplicialComplex(map(frozenset, colorings))


def split_by_column(K: SimplicialComplex, row, q):
    """{c: facets of K that put `row` in column c} for c = 1..q."""
    return {
        c: SimplicialComplex(f for f in K.facets if (row, c) in f) for c in range(1, q + 1)
    }


def assignment_complex(rows, q) -> SimplicialComplex:
    """All assignments of the given rows to columns 1..q (the pairwise
    deleted join restricted to these rows)."""
    return coloring_complex(rows, q, ())


def deleted_join_of_simplex(n, p) -> SimplicialComplex:
    """The p-fold pairwise deleted join of the n-simplex: p^(n+1) facets on
    rows 0..n, one per assignment of rows to columns."""
    if n < 0 or p < 1:
        raise InvalidParameters("need n >= 0 and p >= 1")
    return assignment_complex(range(n + 1), p)


def chessboard_on(rows, q) -> SimplicialComplex:
    """Chessboard complex on explicit rows with columns 1..q."""
    rows = list(rows)
    if len(set(rows)) != len(rows):
        raise InvalidParameters(f"repeated row in {rows!r}")
    k = min(len(rows), q)
    facets = []
    for row_subset in combinations(rows, k):
        for cols in permutations(range(1, q + 1), k):
            facets.append(frozenset(zip(row_subset, cols)))
    return SimplicialComplex(facets)


def chessboard(m, n) -> SimplicialComplex:
    """The chessboard complex on m rows and n columns: faces are
    non-attacking partial rook placements."""
    if m < 1 or n < 1:
        raise InvalidParameters("need m, n >= 1")
    return chessboard_on(range(m), n)


def complex_C(l, q) -> SimplicialComplex:
    """Star-constraint complex on rows 0..l: the apex row 0 never shares a
    column with a leaf row.  q(q-1)^l facets."""
    if l < 1 or q < 2:
        raise InvalidParameters("need l >= 1 and q >= 2")
    rows = list(range(l + 1))
    return coloring_complex(rows, q, Star(l).edges_on(rows))


def c_cones(l, q):
    """The decomposition of complex_C into the q cones L_m (apex column m)."""
    return list(split_by_column(complex_C(l, q), 0, q).values())


def complex_D(l, q) -> SimplicialComplex:
    """Path-constraint complex on rows 0..l: consecutive rows use distinct
    columns.  q(q-1)^l facets; complex_D(1, q) is the 2-row chessboard."""
    if l < 1 or q < 2:
        raise InvalidParameters("need l >= 1 and q >= 2")
    rows = list(range(l + 1))
    return coloring_complex(rows, q, Path(l).edges_on(rows))


def d_subcomplexes(l, q):
    """The subcomplexes D^k (facets whose last row uses column k), k=1..q.
    Here l may be 0 (a single row)."""
    rows = list(range(l + 1))
    return split_by_column(coloring_complex(rows, q, Path(l).edges_on(rows)), l, q)


def complex_E(l, q) -> SimplicialComplex:
    """Cycle-constraint complex on rows 0..l-1: consecutive rows distinct and
    first row != last row.  (q-1)^l + (-1)^l (q-1) facets."""
    if l < 3 or q < 2:
        raise InvalidParameters("need l >= 3 and q >= 2")
    rows = list(range(l))
    return coloring_complex(rows, q, Cycle(l).edges_on(rows))


def e_subcomplexes(l, q):
    """The subcomplexes E^i: facets ending in column i with first row != i."""
    return split_by_column(complex_E(l, q), l - 1, q)


def complex_D_tilde(i, S, l, q) -> SimplicialComplex:
    """Subcomplex of D^i obtained by deleting all faces with a first-row
    vertex in the column set S."""
    if i not in range(1, q + 1) or not set(S) <= set(range(1, q + 1)):
        raise InvalidParameters("need a column i and a set S of columns in 1..q")
    return _delete_row_columns(d_subcomplexes(l, q)[i], 0, S)


def _delete_row_columns(K, row, S):
    """K without the vertices (row, c) for c in S."""
    removed = {(row, c) for c in S}
    return SimplicialComplex(f - removed for f in K.facets)


def nerve(family) -> SimplicialComplex:
    """Nerve on the family indices: a subfamily spans a simplex iff its
    members share at least one (non-empty) face."""
    vsets = [K.vertices for K in family]
    facets = []
    indices = [i for i, vs in enumerate(vsets) if vs]
    for r in range(len(indices), 0, -1):
        for subset in combinations(indices, r):
            common = frozenset.intersection(*(vsets[i] for i in subset))
            if common:
                facets.append(frozenset(subset))
    return SimplicialComplex(facets)


# ---------------------------------------------------------------------------
# Column group actions

@dataclass(frozen=True)
class GroupAction:
    """Generators are column permutations, stored as tuples g with
    g[c-1] = image of column c (columns are 1-based)."""

    q: int
    generators: tuple

    def elements(self):
        """All group elements generated (BFS closure of composition)."""
        identity = tuple(range(1, self.q + 1))
        seen = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for g in frontier:
                for h in self.generators:
                    gh = tuple(h[g[c] - 1] for c in range(self.q))
                    if gh not in seen:
                        seen.add(gh)
                        nxt.append(gh)
            frontier = nxt
        return sorted(seen)


def regular_prime_power_action(q) -> GroupAction:
    """The regular action of (Z_p)^r on itself, columns identified with
    F_p^r by the base-p digits of column-1 (column c <-> digits of c-1)."""
    parts = prime_power(q)
    if parts is None:
        raise InvalidParameters(f"q={q} is not a prime power")
    p, r = parts
    gens = []
    for i in range(r):
        step = p**i
        gen = []
        for c in range(1, q + 1):
            v = c - 1
            digit = (v // step) % p
            image = v - digit * step + ((digit + 1) % p) * step
            gen.append(image + 1)
        gens.append(tuple(gen))
    return GroupAction(q, tuple(gens))


def _check_columns(vertices, q):
    """LabelFormat unless every vertex is a (row, column) pair whose column
    lies in 1..q."""
    for v in vertices:
        try:
            _row, col = v
        except (TypeError, ValueError) as exc:
            raise LabelFormat("vertices must be (row, column) pairs") from exc
        if not isinstance(col, int) or not 1 <= col <= q:
            raise LabelFormat(f"vertex {v!r} has a column outside 1..{q}")


def invariance_check(K, action: GroupAction) -> bool:
    """True iff every generator maps the facet set of K onto itself.

    The image of the facet set must equal it, not merely lie inside it:
    nothing makes a generator a permutation.  Each vertex gets its own bit,
    each facet is keyed by the sum of its vertices' bits, and the image
    keys must be the facet keys.  The bit lookup needs the images to stay
    inside the vertex set; the guard's one-to-one half follows from equal
    keys.  The facet keys are distinct, so each facet pairs with one image
    facet; a sum of bits has no more set bits than terms, so the key sets'
    bit totals match only if no image facet repeats a vertex; the image
    facets are then the facets, so the image of the vertex set is the
    vertex set, and a map of a finite set onto itself is one-to-one."""
    verts = K.vertices
    _check_columns(verts, action.q)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    keys = {sum(map(bit.__getitem__, f)) for f in K.facets}
    for g in action.generators:
        image = {v: (v[0], g[v[1] - 1]) for v in verts}
        if set(image.values()) != verts:  # onto a finite set: one-to-one
            return False
        moved = {v: bit[w] for v, w in image.items()}
        if {sum(map(moved.__getitem__, f)) for f in K.facets} != keys:
            return False
    return True


def goodness_check(K, constrained_row_pairs) -> bool:
    """True iff no face holds both ends of a constrained row pair in the
    same column (no 'vertical edge' for those pairs).

    One pass over the facets collects, for each end of a vertical edge
    {(r1, c), (r2, c)} that the vertices allow, the set of indices of the
    facets holding it; the edge is a face iff its two ends' index sets
    meet.  This holds for any facets, even ones with two columns in one
    row.  A row absent from K cannot be violated.
    """
    cols_of = {}  # row -> columns used by some vertex of that row
    for v in K.vertices:
        try:
            row, col = v
        except (TypeError, ValueError) as exc:
            raise LabelFormat("vertices must be (row, column) pairs") from exc
        cols_of.setdefault(row, set()).add(col)
    edges = [
        ((r1, c), (r2, c))
        for r1, r2 in constrained_row_pairs
        if r1 in cols_of and r2 in cols_of
        for c in cols_of[r1] & cols_of[r2]
    ]
    holding = {v: [] for edge in edges for v in edge}  # end -> indices of its facets
    for i, f in enumerate(K.facets):
        for v in f:
            indices = holding.get(v)
            if indices is not None:
                indices.append(i)
    return all(set(holding[a]).isdisjoint(holding[b]) for a, b in edges)


def vertex_orbit_sizes(K, action: GroupAction):
    """Sizes of the vertex orbits under the full generated group; an orbit
    leaving the vertex set of K reports -1."""
    elements = action.elements()
    verts = K.vertices
    _check_columns(verts, action.q)
    sizes = []
    seen = set()
    for v in sorted(verts):
        if v in seen:
            continue
        orbit = {(v[0], g[v[1] - 1]) for g in elements}
        if not orbit <= verts:
            sizes.append(-1)  # orbit escapes the complex: not invariant
            seen |= orbit & verts
        else:
            sizes.append(len(orbit))
            seen |= orbit
    return sizes


# ---------------------------------------------------------------------------
# Good subcomplexes for constraint-graph families

def good_subcomplex(spec, d, q) -> tuple:
    """The invariant subcomplex avoiding a family's constraint edges, as the
    tuple of its join factors: one coloring complex per part of the family,
    then one free row per remaining row.

    Facet counts multiply, so the join is often far too large to build;
    each constraint edge lies inside one part's rows, so the join is good
    and invariant iff every factor is.  The family's vertex slots take rows
    0, 1, 2, ... in order (as in `constraints.instantiate`); for a Star the
    first row is the center, for Path/Cycle the rows follow the path/cycle
    order.
    """
    if not family_admissible(spec, d, q):
        raise InvalidParameters(f"{spec!r} is not an admissible family for d={d}, q={q}")
    factors = []
    off = 0
    for part in spec.parts:
        rows = list(range(off, off + part.vertex_count()))
        factors.append(coloring_complex(rows, q, part.edges_on(rows)))
        off += len(rows)
    for row in range(off, point_count(d, q)):
        factors.append(assignment_complex([row], q))
    return tuple(factors)


# ---------------------------------------------------------------------------
# Intersection identities of the D/E decompositions

def _record(report, name, lhs, rhs):
    if lhs == rhs:
        report["identities"].append({"name": name, "ok": True})
    else:
        offending = sorted(map(sorted, (lhs ^ rhs)))[0]
        report["identities"].append({"name": name, "ok": False, "offending_face": offending})
        report["ok"] = False


def verify_intersection_identities(l, q):
    """Face-set equalities behind the D and E connectivity arguments.

    D-identities (on D_{l,q}, l >= 2):
      (3)  for 1 < |T| < q-1:   cap_{j in T} D^j_l  =  cup_{j notin T} D^j_{l-1}
      (4)  cap_{j != k} D^j_l  =  D^k_{l-1}  union  D^k_{l-2}
      (5)  cap_{j} D^j_l       =  cup_j D^j_{l-2}

    E-identities (on E_{l,q}, l >= 4, q >= 5; Dt is the first-row deletion
    complex_D_tilde, lower-index complexes live on the leading rows, except
    the identity (6) target which lives on rows 1..l-3):
      (6)  cap_i E^i_l         =  D_{l-4}  on rows 1..l-3
      (7)  cap_{i != k} E^i_l  =  Dt^{k,[q]-k}_{l-2}  union  Dt^{k,[q]-k}_{l-3}
      (8)  for 1 < |T| < q-1:   cap_{i in T} E^i_l  =  cup_{i notin T} Dt^{i,T}_{l-2}
    """
    if l < 2 or q < 3:
        raise InvalidParameters("need l >= 2 and q >= 3")
    report = {"l": l, "q": q, "ok": True, "identities": []}
    cols = range(1, q + 1)

    d_l = {k: K.faces() for k, K in d_subcomplexes(l, q).items()}
    d_l1 = {k: K.faces() for k, K in d_subcomplexes(l - 1, q).items()}
    sub2 = d_subcomplexes(l - 2, q)
    d_l2 = {k: K.faces() for k, K in sub2.items()}
    for t in range(2, q - 1):
        for T in combinations(cols, t):
            lhs = set.intersection(*(d_l[j] for j in T))
            rhs = set().union(*(d_l1[j] for j in cols if j not in T))
            _record(report, f"D eq3 T={T}", lhs, rhs)
    for k in cols:
        lhs = set.intersection(*(d_l[j] for j in cols if j != k))
        _record(report, f"D eq4 k={k}", lhs, d_l1[k] | d_l2[k])
    lhs = set.intersection(*(d_l[j] for j in cols))
    _record(report, "D eq5", lhs, set().union(*d_l2.values()))

    if l >= 4 and q >= 5:
        e_l = {i: K.faces() for i, K in e_subcomplexes(l, q).items()}
        lhs = set.intersection(*(e_l[i] for i in cols))
        rows = list(range(1, l - 2))
        middle = coloring_complex(rows, q, Path(l - 4).edges_on(rows))
        _record(report, "E eq6", lhs, middle.faces())
        # Dt^{i,S} is D^i with the first row's (row 0's) columns S deleted.
        sub3 = d_subcomplexes(l - 3, q)
        for k in cols:
            lhs = set.intersection(*(e_l[i] for i in cols if i != k))
            S = set(cols) - {k}
            a = _delete_row_columns(sub2[k], 0, S)
            b = _delete_row_columns(sub3[k], 0, S)
            _record(report, f"E eq7 k={k}", lhs, a.faces() | b.faces())
        for t in range(2, q - 1):
            for T in combinations(cols, t):
                lhs = set.intersection(*(e_l[i] for i in T))
                rhs = set()
                for i in cols:
                    if i not in T:
                        rhs |= _delete_row_columns(sub2[i], 0, T).faces()
                _record(report, f"E eq8 T={T}", lhs, rhs)
    return report
