"""Reduced simplicial homology via Smith normal form.

Boundary matrices are assembled over the integers; unit pivots are
eliminated first with a sparse Markowitz-style sweep (no coefficient
growth), and whatever small residual remains goes through a classic dense
Smith reduction.  Coefficients are the integers.

Only the skeleton a computation reads is built: homology through
dimension k builds the faces of dimensions 0..k+1, one dimension at a time
from the facets.  A computation that builds more than `face_budget()` faces
(default 200000, overridable via the TVERBERG_FACE_BUDGET environment
variable) is refused, to keep desk-scale runs bounded.
"""

import os
from dataclasses import dataclass, field
from itertools import combinations

from .errors import BudgetExceeded, InvalidParameters
from .complexes import SimplicialComplex

DEFAULT_FACE_BUDGET = 200_000


def face_budget():
    value = os.environ.get("TVERBERG_FACE_BUDGET")
    if not value:
        return DEFAULT_FACE_BUDGET
    try:
        return int(value)
    except ValueError as exc:
        raise InvalidParameters(f"TVERBERG_FACE_BUDGET={value!r} is not an integer") from exc


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
    """Sparse boundary matrices of the reduced chain complex in dimensions
    0..min(top, dim K).

    Each dimension's faces are built from the facets as sorted vertex
    tuples, listed in sorted order, and indexed only against the dimension
    below.  The faces built so far are checked against the face budget
    before each dimension's matrix is built.  Returns (by_dim, matrices)
    where by_dim[i] lists the dimension-i faces and matrices[i] maps them
    (columns) to their dimension-(i-1) boundary; matrices[0] is the
    augmentation into the empty face.
    """
    budget = face_budget()
    facets = [tuple(sorted(f)) for f in K.facets]
    by_dim, matrices = {}, {}
    index = {(): 0}  # the empty face, target of the augmentation
    built = 0
    for dim in range(min(top, K.dim) + 1):
        faces = {s for f in facets for s in combinations(f, dim + 1)}
        built += len(faces)
        if built > budget:
            raise BudgetExceeded(f"{built} faces exceed the budget {budget}")
        faces = sorted(faces)
        matrices[dim] = {
            pos: {index[f[:j] + f[j + 1 :]]: (-1) ** j for j in range(dim + 1)}
            for pos, f in enumerate(faces)
        }
        by_dim[dim] = faces
        index = {f: pos for pos, f in enumerate(faces)}
    return by_dim, matrices


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
    by_dim, matrices = boundary_matrices(K, top + 1)
    rank = {}
    torsion_from = {}
    for dim, cols in matrices.items():
        rank[dim], torsion_from[dim] = smith_invariants(cols)

    profile = HomologyProfile()
    for i in range(0, top + 1):
        profile.betti[i] = len(by_dim[i]) - rank[i] - rank.get(i + 1, 0)
        profile.torsion[i] = torsion_from.get(i + 1, [])
    return profile


def homology_vanishes_through(K: SimplicialComplex, k) -> bool:
    """True iff reduced homology vanishes in every dimension <= k; for
    k < 0 (and for the empty complex) iff K is non-empty."""
    if k < 0 or not K.facets:
        return bool(K.facets)
    profile = reduced_homology(K, up_to=k)
    return all(profile.is_trivial(i) for i in range(0, k + 1))
