"""Chessboard-type simplicial complexes and their group actions.

Vertices of the configuration-space complexes are (row, column) pairs with
integer rows and columns 1..q; a face assigns each of its rows one column.
The full configuration space on rows 0..N is the q-fold pairwise deleted
join of the N-simplex: every partial assignment of rows to columns.

Named subcomplexes (rows are listed first-to-last):

  * chessboard(m, n): partial assignments that are injective on columns;
  * complex_C(l, q): no column shared between the apex row and a leaf row;
  * complex_D(l, q): consecutive rows use distinct columns;
  * complex_E(l, q): complex_D's rule plus first row != last row.

C, D and E (and the full assignment complex) are built by one ruled builder
from their rule on column tuples; their decompositions into cones and D^k,
E^i subcomplexes split them by the column of one row.
"""

from dataclasses import dataclass
from itertools import combinations, permutations, product
from operator import ne

from .errors import InvalidParameters, LabelCollision, LabelFormat
from .tverberg import prime_power


class SimplicialComplex:
    """Abstract simplicial complex with facet-based storage."""

    def __init__(self, facets):
        fs = {frozenset(f) for f in facets}
        fs.discard(frozenset())
        by_size = {}
        for f in fs:
            by_size.setdefault(len(f), []).append(f)
        maximal = set()
        sizes = sorted(by_size, reverse=True)
        for idx, size in enumerate(sizes):
            bigger = [g for s in sizes[:idx] for g in by_size[s]]
            for f in by_size[size]:
                if not any(f < g for g in bigger):
                    maximal.add(f)
        self.facets = frozenset(maximal)
        self._faces = None

    @property
    def factors(self):
        """A plain complex is its own single join factor."""
        return (self,)

    @property
    def vertices(self):
        return frozenset(v for f in self.facets for v in f)

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


def _ruled_complex(rows, q, keep) -> SimplicialComplex:
    """Assignments of `rows` (in order) to columns 1..q whose column tuple
    passes `keep`."""
    rows = list(rows)
    return SimplicialComplex(
        frozenset(zip(rows, cols))
        for cols in product(range(1, q + 1), repeat=len(rows))
        if keep(cols)
    )


def _apex_apart(cols):
    return cols[0] not in cols[1:]


def _walk(cols):
    return all(map(ne, cols, cols[1:]))


def _closed_walk(cols):
    return cols[0] != cols[-1] and _walk(cols)


def split_by_column(K: SimplicialComplex, row, q):
    """{c: facets of K that put `row` in column c} for c = 1..q."""
    return {
        c: SimplicialComplex(f for f in K.facets if (row, c) in f) for c in range(1, q + 1)
    }


def _rows_for(rows, count, message):
    rows = list(range(count)) if rows is None else list(rows)
    if len(rows) != count:
        raise InvalidParameters(message)
    return rows


def assignment_complex(rows, q) -> SimplicialComplex:
    """All assignments of the given rows to columns 1..q (the pairwise
    deleted join restricted to these rows)."""
    return _ruled_complex(rows, q, lambda cols: True)


def deleted_join_of_simplex(n, p) -> SimplicialComplex:
    """The p-fold pairwise deleted join of the n-simplex: p^(n+1) facets on
    rows 0..n, one per assignment of rows to columns."""
    if n < 0 or p < 1:
        raise InvalidParameters("need n >= 0 and p >= 1")
    return assignment_complex(range(n + 1), p)


def chessboard_on(rows, q) -> SimplicialComplex:
    """Chessboard complex on explicit rows with columns 1..q."""
    rows = list(rows)
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


def complex_C(l, q, rows=None) -> SimplicialComplex:
    """Star-constraint complex: apex row (first of `rows`) never shares a
    column with a leaf row.  q(q-1)^l facets."""
    if l < 1 or q < 2:
        raise InvalidParameters("need l >= 1 and q >= 2")
    rows = _rows_for(rows, l + 1, "need l+1 rows (apex first)")
    return _ruled_complex(rows, q, _apex_apart)


def c_cones(l, q, rows=None):
    """The decomposition of complex_C into the q cones L_m (apex column m)."""
    rows = _rows_for(rows, l + 1, "need l+1 rows (apex first)")
    return list(split_by_column(complex_C(l, q, rows), rows[0], q).values())


def complex_D(l, q, rows=None) -> SimplicialComplex:
    """Path-constraint complex on l+1 rows: consecutive rows use distinct
    columns.  q(q-1)^l facets; complex_D(1, q) is the 2-row chessboard."""
    if l < 1 or q < 2:
        raise InvalidParameters("need l >= 1 and q >= 2")
    return _ruled_complex(_rows_for(rows, l + 1, "need l+1 rows"), q, _walk)


def d_subcomplexes(l, q, rows=None):
    """The subcomplexes D^k (facets whose last row uses column k), k=1..q.
    Here l may be 0 (a single row)."""
    rows = _rows_for(rows, l + 1, "need l+1 rows")
    return split_by_column(_ruled_complex(rows, q, _walk), rows[-1], q)


def complex_E(l, q, rows=None) -> SimplicialComplex:
    """Cycle-constraint complex on l rows: consecutive rows distinct and
    first row != last row.  (q-1)^l + (-1)^l (q-1) facets."""
    if l < 3 or q < 2:
        raise InvalidParameters("need l >= 3 and q >= 2")
    return _ruled_complex(_rows_for(rows, l, "need l rows"), q, _closed_walk)


def e_subcomplexes(l, q, rows=None):
    """The subcomplexes E^i: facets ending in column i with first row != i."""
    rows = _rows_for(rows, l, "need l rows")
    return split_by_column(complex_E(l, q, rows), rows[-1], q)


def complex_D_tilde(i, S, l, q, rows=None) -> SimplicialComplex:
    """Subcomplex of D^i obtained by deleting all faces with a first-row
    vertex in the column set S."""
    rows = _rows_for(rows, l + 1, "need l+1 rows")
    if i not in range(1, q + 1) or not set(S) <= set(range(1, q + 1)):
        raise InvalidParameters("need a column i and a set S of columns in 1..q")
    return _delete_row_columns(d_subcomplexes(l, q, rows)[i], rows[0], S)


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
    name: str = ""

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
    return GroupAction(q, tuple(gens), f"(Z_{p})^{r}")


def _apply(g, facet):
    try:
        return frozenset((row, g[col - 1]) for row, col in facet)
    except (TypeError, IndexError, ValueError) as exc:
        raise LabelFormat("vertices must be (row, column) pairs") from exc


def invariance_check(K, action: GroupAction) -> bool:
    """True iff every generator maps each factor's facet set onto itself."""
    return all(
        frozenset(_apply(g, f) for f in factor.facets) == factor.facets
        for factor in K.factors
        for g in action.generators
    )


def goodness_check(K, constrained_row_pairs) -> bool:
    """True iff no face holds both ends of a constrained row pair in the
    same column (no 'vertical edge' for those pairs).

    Facets combine freely across join factors, so a pair split across two
    factors is violated iff its rows share a column; the pairs inside one
    factor are checked in one scan of that factor's facets.
    """
    factor_of = {}  # row -> index of the factor holding it
    cols_of = {}  # row -> columns used by some vertex of that row
    for idx, factor in enumerate(K.factors):
        for v in factor.vertices:
            try:
                row, col = v
            except (TypeError, ValueError) as exc:
                raise LabelFormat("vertices must be (row, column) pairs") from exc
            factor_of[row] = idx
            cols_of.setdefault(row, set()).add(col)
    inner = {}  # factor index -> constrained pairs inside it
    for r1, r2 in constrained_row_pairs:
        if r1 not in factor_of or r2 not in factor_of:
            continue  # a row absent from the complex cannot be violated
        if factor_of[r1] != factor_of[r2]:
            if cols_of[r1] & cols_of[r2]:
                return False
        else:
            inner.setdefault(factor_of[r1], []).append((r1, r2))
    for idx, pairs in inner.items():
        for f in K.factors[idx].facets:
            rows_at = {}
            for row, col in f:
                rows_at.setdefault(col, set()).add(row)
            for rows in rows_at.values():
                if any(r1 in rows and r2 in rows for r1, r2 in pairs):
                    return False
    return True


def vertex_orbit_sizes(K, action: GroupAction):
    """Sizes of the vertex orbits under the full generated group, factor by
    factor; an orbit leaving its factor's vertex set reports -1."""
    elements = action.elements()
    sizes = []
    for factor in K.factors:
        verts = factor.vertices
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

class JoinComplex:
    """A join kept in factored form (factors on disjoint row sets).

    Facet counts multiply, so the full complex is often far too large to
    build; it is never built.  Goodness, invariance, and orbit checks all
    work factor-wise.
    """

    def __init__(self, factors):
        self.factors = [f for f in factors if f.facets]
        rows_seen = set()
        for f in self.factors:
            rows = {v[0] for v in f.vertices}
            if rows & rows_seen:
                raise LabelCollision("join factors share rows")
            rows_seen |= rows

    @property
    def vertices(self):
        return frozenset(v for f in self.factors for v in f.vertices)

    @property
    def dim(self):
        return sum(f.dim + 1 for f in self.factors) - 1


def good_subcomplex(spec, q, d, rows=None) -> JoinComplex:
    """The invariant subcomplex avoiding a family's constraint edges: the
    join of per-component complexes with all remaining rows free.

    `rows` assigns rows 0..N to the family's vertex slots (defaults to
    0, 1, 2, ...); for a Star the first row is the center, for Path/Cycle
    the rows follow the path/cycle order.
    """
    from .constraints import family_admissible

    if not family_admissible(spec, q, d):
        raise InvalidParameters(f"{spec!r} is not an admissible family for q={q}, d={d}")
    n_rows = (d + 1) * (q - 1) + 1
    count = spec.vertex_count()
    if rows is None:
        rows = list(range(count))
    if len(rows) != count or not set(rows) <= set(range(n_rows)):
        raise InvalidParameters("row assignment must pick distinct rows 0..N")
    factors = []
    off = 0
    for part in spec.parts:
        factors.append(part.complex(q, rows[off : off + part.vertex_count()]))
        off += part.vertex_count()
    for row in range(n_rows):
        if row not in rows:
            factors.append(assignment_complex([row], q))
    return JoinComplex(factors)


# ---------------------------------------------------------------------------
# Intersection identities of the D/E decompositions

def _face_set(K):
    return set(K.faces())


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

    d_l = {k: _face_set(K) for k, K in d_subcomplexes(l, q).items()}
    d_l1 = {k: _face_set(K) for k, K in d_subcomplexes(l - 1, q).items()}
    sub2 = d_subcomplexes(l - 2, q)
    d_l2 = {k: _face_set(K) for k, K in sub2.items()}
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
        e_l = {i: _face_set(K) for i, K in e_subcomplexes(l, q).items()}
        lhs = set.intersection(*(e_l[i] for i in cols))
        middle = _ruled_complex(range(1, l - 2), q, _walk)
        _record(report, "E eq6", lhs, _face_set(middle))
        # Dt^{i,S} is D^i with the first row's (row 0's) columns S deleted.
        sub3 = d_subcomplexes(l - 3, q)
        for k in cols:
            lhs = set.intersection(*(e_l[i] for i in cols if i != k))
            S = set(cols) - {k}
            a = _delete_row_columns(sub2[k], 0, S)
            b = _delete_row_columns(sub3[k], 0, S)
            _record(report, f"E eq7 k={k}", lhs, _face_set(a) | _face_set(b))
        for t in range(2, q - 1):
            for T in combinations(cols, t):
                lhs = set.intersection(*(e_l[i] for i in T))
                rhs = set()
                for i in cols:
                    if i not in T:
                        rhs |= _face_set(_delete_row_columns(sub2[i], 0, T))
                _record(report, f"E eq8 T={T}", lhs, rhs)
    return report
