"""Reduced simplicial homology via Smith normal form.

Boundary matrices are assembled over the integers; unit pivots are
eliminated first with a sparse Markowitz-style sweep (no coefficient
growth), and whatever small residual remains goes through a classic dense
Smith reduction.  Coefficients are the integers.

Computations refuse complexes with more than `face_budget` total faces
(default 200000, overridable via the TVERBERG_FACE_BUDGET environment
variable) to keep desk-scale runs bounded.
"""

import os
from dataclasses import dataclass, field

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

def boundary_matrices(K: SimplicialComplex):
    """Sparse boundary matrices of the reduced chain complex.

    Returns (faces_by_dim, matrices) where matrices[i] maps dimension-i
    faces (columns) to their dimension-(i-1) boundary; matrices[0] is the
    augmentation into the empty face.
    """
    by_dim = K.faces_by_dim()
    index = {}
    for dim, faces in by_dim.items():
        for pos, f in enumerate(faces):
            index[f] = pos
    matrices = {}
    for dim, faces in by_dim.items():
        cols = {}
        for pos, f in enumerate(faces):
            verts = sorted(f)
            col = {}
            if dim == 0:
                col[0] = 1  # augmentation
            else:
                for omit in range(len(verts)):
                    sub = frozenset(verts[:omit] + verts[omit + 1 :])
                    col[index[sub]] = (-1) ** omit
            cols[pos] = col
        matrices[dim] = cols
    return by_dim, matrices


@dataclass
class HomologyProfile:
    """Reduced homology, one entry per dimension 0..dim(K)."""

    betti: dict = field(default_factory=dict)
    torsion: dict = field(default_factory=dict)

    def is_trivial(self, i):
        return self.betti.get(i, 0) == 0 and not self.torsion.get(i, [])


def _check_budget(K):
    budget = face_budget()
    total = K.total_faces()
    if total > budget:
        raise BudgetExceeded(f"{total} faces exceed the budget {budget}")


def reduced_homology(K: SimplicialComplex, up_to=None) -> HomologyProfile:
    """Reduced integer homology.

    With `up_to`, only dimensions <= up_to are computed (the boundary in
    dimension up_to+1 is still needed and used).
    """
    _check_budget(K)
    if not K.facets:
        return HomologyProfile()
    top = K.dim if up_to is None else min(up_to, K.dim)
    by_dim, matrices = boundary_matrices(K)
    counts = {dim: len(faces) for dim, faces in by_dim.items()}

    rank = {}
    torsion_from = {}
    for dim in range(0, top + 2):
        cols = matrices.get(dim)
        if cols is None:
            rank[dim] = 0
            torsion_from[dim] = []
        else:
            rank[dim], torsion_from[dim] = smith_invariants(cols)

    profile = HomologyProfile()
    for i in range(0, top + 1):
        n_i = counts.get(i, 0)
        betti = n_i - rank.get(i, 0) - rank.get(i + 1, 0)
        profile.betti[i] = betti
        profile.torsion[i] = torsion_from.get(i + 1, [])
    return profile


def homology_vanishes_through(K: SimplicialComplex, k) -> bool:
    """True iff reduced homology vanishes in every dimension <= k."""
    if k < 0:
        return bool(K.facets)  # (-1)-connected = non-empty
    profile = reduced_homology(K, up_to=k)
    if not K.facets:
        return False
    return all(profile.is_trivial(i) for i in range(0, k + 1))


def homological_connectivity(K: SimplicialComplex) -> int:
    """Largest k with reduced homology vanishing in all dimensions <= k.

    -2 for the empty complex, -1 when already reduced H_0 is non-trivial.
    If every reduced group through the top dimension vanishes, the complex
    dimension is returned (the homological evidence cannot say more).
    """
    if not K.facets:
        return -2
    profile = reduced_homology(K)
    for i in range(0, K.dim + 1):
        if not profile.is_trivial(i):
            return i - 1
    return K.dim
