"""Reduced simplicial homology over the integers, in three passes.

1. Faces: the skeleton the computation reads, built top-down; each face's
   boundary is a tuple of positions one dimension down (the empty face, the
   augmentation, included), its signs implied by the entry's place.
2. Coreduction (Mrozek and Batko, "Coreduction homology algorithm", 2009):
   a cell with a single live face is paired off with that face.  Cells keep
   a count of their live faces, nothing is rewritten or fills in, and
   almost every cell of a chessboard-type complex goes this way.
3. Smith normal form of the signed +-1 columns of the cells left: unit
   pivots are eliminated with a sparse Markowitz-style sweep (no coefficient
   growth), and whatever small residual remains goes through a classic
   dense Smith reduction, which finds the torsion.

Homology through dimension k builds only the faces of dimensions 0..k+1; a
computation building more than `FACE_BUDGET` faces is refused.
"""

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, count, repeat

from .errors import BudgetExceeded
from .complexes import SimplicialComplex

FACE_BUDGET = 200_000  # most faces one computation may build


# ---------------------------------------------------------------------------
# Sparse integer Smith normal form

def _eliminate_units(cols):
    """Eliminate +-1 pivots in place; returns (rank_of_unit_part, residual).

    `cols` maps col_id -> {row_id: value}.  Pivot columns are taken
    shortest-first (lazy heap); the pivot row is the sparsest one holding a
    unit entry.  The residual is a dense matrix of whatever has no unit
    entry left.
    """
    from heapq import heapify, heappop, heappush

    rows = {}  # row_id -> set of col_ids with a nonzero entry
    for c, col in cols.items():
        for r in col:
            rows.setdefault(r, set()).add(c)

    version = {c: 0 for c in cols}
    heap = [(len(col), c, 0) for c, col in cols.items()]
    heapify(heap)
    unit_rank = 0
    while heap:
        _, c, ver = heappop(heap)
        col = cols.get(c)
        if col is None or ver != version[c]:
            continue
        unit_rows = [r for r, v in col.items() if v == 1 or v == -1]
        if not unit_rows:
            continue  # re-queued automatically if a later update touches it
        r = min(unit_rows, key=lambda rr: len(rows[rr]))
        v = col[r]
        pivot_col = cols.pop(c)
        del pivot_col[r]
        for rr in pivot_col:
            rows[rr].discard(c)
        row_cols = rows.pop(r)
        row_cols.discard(c)
        for cc in row_cols:
            col2 = cols[cc]
            f = col2.pop(r) * v  # v is +-1, so this is col2[r] / v
            for rr, pv in pivot_col.items():
                nv = col2.get(rr, 0) - f * pv
                if nv == 0:
                    if rr in col2:
                        del col2[rr]
                        rows[rr].discard(cc)
                else:
                    col2[rr] = nv
                    rows.setdefault(rr, set()).add(cc)
            version[cc] += 1
            if col2:
                heappush(heap, (len(col2), cc, version[cc]))
            else:
                del cols[cc]
        unit_rank += 1

    residual_rows = sorted({r for col in cols.values() for r in col})
    ridx = {r: i for i, r in enumerate(residual_rows)}
    residual = [[0] * len(cols) for _ in residual_rows]
    for j, c in enumerate(sorted(cols)):
        for r, v in cols[c].items():
            residual[ridx[r]][j] = v
    return unit_rank, residual


def _dense_smith(m):
    """Invariant factors of a small dense integer matrix."""
    m = [row[:] for row in m]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    factors = []
    top = 0
    while True:
        # find the smallest nonzero entry at or below/right of (top, top)
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                v = abs(m[i][j])
                if v and (best is None or v < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        piv = m[top][top]
        dirty = False
        for i in range(top + 1, nr):
            if m[i][top]:
                f = m[i][top] // piv
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
                if m[i][top]:
                    dirty = True
        for j in range(top + 1, nc):
            if m[top][j]:
                f = m[top][j] // piv
                for i in range(nr):
                    m[i][j] -= f * m[i][top]
                if m[top][j]:
                    dirty = True
        if dirty:
            continue  # remainder left somewhere; pick a smaller pivot again
        # ensure divisibility: pivot must divide the rest of the block
        offender = None
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                if m[i][j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[top] = [a + b for a, b in zip(m[top], m[offender])]
            continue
        factors.append(abs(piv))
        top += 1
        if top >= nr or top >= nc:
            break
    return factors


def smith_invariants(cols):
    """(rank, nontrivial invariant factors) of a sparse integer matrix
    given as col_id -> {row_id: value}."""
    cols = {c: dict(col) for c, col in cols.items() if col}
    unit_rank, residual = _eliminate_units(cols)
    factors = _dense_smith(residual) if residual and residual[0] else []
    rank = unit_rank + len(factors)
    return rank, [f for f in factors if f != 1]


# ---------------------------------------------------------------------------
# Boundary matrices and homology

def boundary_matrices(K: SimplicialComplex, top):
    """Boundaries of the reduced chain complex in dimensions 0..min(top, dim K).

    Faces are sorted tuples of vertex ranks (positions in sorted(K.vertices)),
    which keep the order of sorted vertex tuples.  The top dimension comes
    from the facets, each lower one from the faces of the one above plus the
    facets of its size; the faces built so far are checked against the face
    budget before each dimension's boundaries.  Returns (by_dim, boundaries):
    by_dim[i] lists the dimension-i faces in sorted order and boundaries[i][b]
    the positions in by_dim[i-1] of the faces of by_dim[i][b], its last
    vertex dropped first, so entry j has the sign (-1)^(i-j); boundaries[0]
    is the augmentation into the empty face.
    """
    rank = {v: i for i, v in enumerate(sorted(K.vertices))}
    facets = [tuple(sorted(map(rank.__getitem__, f))) for f in K.facets]
    top = min(top, K.dim)
    faces = sorted(set(chain.from_iterable(map(combinations, facets, repeat(top + 1)))))
    by_dim, boundaries = {}, {}
    built = 0
    for dim in range(top, -1, -1):
        built += len(faces)
        if built > FACE_BUDGET:
            raise BudgetExceeded(f"{built} faces exceed the budget {FACE_BUDGET}")
        by_dim[dim] = faces
        lower = set(chain.from_iterable(map(combinations, faces, repeat(dim))))
        lower.update(f for f in facets if len(f) == dim)
        upper, faces = faces, sorted(lower)
        index = dict(zip(faces, count()))
        # the faces' positions in one stream, cut into one tuple per face
        positions = map(index.__getitem__, chain.from_iterable(map(combinations, upper, repeat(dim))))
        boundaries[dim] = list(zip(*[positions] * (dim + 1)))
    return by_dim, boundaries


def _coreduce(boundaries):
    """Coreduction of the output of `boundary_matrices`; returns live, where
    live[i] flags the dimension-i cells left (live[-1]: the empty face).

    A pair is a live cell b whose live boundary is exactly one face a; every
    entry is +-1.  Removing both leaves the homology as it was: b's column
    holds only that unit, so the Schur complement of the pivot is the plain
    restriction, and by dd = 0 the row of b in the next matrix vanishes once
    a's row is cleared.  The pass pairs vertex 0 with the empty face, then
    takes cells first in, first out, each cell's cofaces in face-index order.
    """
    live = {-1: bytearray(b"\x01")}
    live_faces = {}  # dim -> how many live faces each dimension-dim cell has
    cofaces = {}  # dim -> dim-1 face position -> its cofaces, in face-index order
    for dim, cells in boundaries.items():
        live[dim] = bytearray(b"\x01") * len(cells)
        live_faces[dim] = bytearray([dim + 1]) * len(cells)
        lists = cofaces[dim] = [[] for _ in range(len(boundaries[dim - 1]) if dim else 1)]
        for b, faces in enumerate(cells):
            for a in faces:
                lists[a].append(b)

    def remove(dim, cell):
        """Drop a live cell; queue each coface left with one live face."""
        live[dim][cell] = 0
        if dim + 1 not in cofaces:
            return
        up_live, up_faces = live[dim + 1], live_faces[dim + 1]
        for c in cofaces[dim + 1][cell]:
            if up_live[c]:
                up_faces[c] -= 1
                if up_faces[c] == 1:
                    queue.append((dim + 1, c))

    queue = deque([(0, 0)])  # vertex 0 pairs with the empty face first
    while queue:
        dim, b = queue.popleft()
        if not live[dim][b] or live_faces[dim][b] != 1:
            continue
        lower = live[dim - 1]
        for a in boundaries[dim][b]:
            if lower[a]:
                break
        remove(dim - 1, a)
        remove(dim, b)
    return live


@dataclass
class HomologyProfile:
    """Reduced homology, one entry per dimension 0..min(up_to, dim K)."""

    betti: dict = field(default_factory=dict)
    torsion: dict = field(default_factory=dict)

    def is_trivial(self, i):
        return self.betti.get(i, 0) == 0 and not self.torsion.get(i, [])


def reduced_homology(K: SimplicialComplex, up_to=None) -> HomologyProfile:
    """Reduced integer homology in dimensions 0..min(up_to, dim K), or in
    every dimension without `up_to`.

    Only the faces of dimensions 0..up_to+1 are built: the boundary in
    dimension up_to+1 is needed for the homology in dimension up_to.
    """
    if not K.facets:
        return HomologyProfile()
    top = K.dim if up_to is None else min(up_to, K.dim)
    boundaries = boundary_matrices(K, top + 1)[1]
    live = _coreduce(boundaries)
    rank, torsion_from = {}, {}
    for dim, cells in boundaries.items():
        lower = live[dim - 1]
        signs = [(-1) ** (dim - j) for j in range(dim + 1)]
        live_cells = compress(range(len(cells)), live[dim])
        cols = {b: {a: s for a, s in zip(cells[b], signs) if lower[a]} for b in live_cells}
        rank[dim], torsion_from[dim] = smith_invariants(cols)

    profile = HomologyProfile()
    for i in range(0, top + 1):
        profile.betti[i] = live[i].count(1) - rank[i] - rank.get(i + 1, 0)
        profile.torsion[i] = torsion_from.get(i + 1, [])
    return profile


def homology_vanishes_through(K: SimplicialComplex, k) -> bool:
    """True iff reduced homology vanishes in every dimension <= k; for
    k < 0 (and for the empty complex) iff K is non-empty."""
    if k < 0 or not K.facets:
        return bool(K.facets)
    profile = reduced_homology(K, up_to=k)
    return all(profile.is_trivial(i) for i in range(0, k + 1))
