"""Exact elimination steps and exact phase-1 feasibility.

Every exact solve runs on integers with two steps: `clear_denominators`
scales a row of exact scalars to integers, and `fraction_free_pivot` is the
integer-preserving pivot of Bareiss (1968) and Edmonds (1967).
`geometry._reduce` and `lp_feasible` are both built from them.

`lp_feasible` decides A x = b, x >= 0 with a small dense phase-1 simplex and
Bland's anti-cycling rule, on a tableau with no artificial columns.  The
systems here are tiny (barycentric variables of a few blocks), so no sparsity
or revised-simplex machinery is needed.
"""

import math
from fractions import Fraction


def clear_denominators(row):
    """(ints, lcm): the row of exact scalars times the positive LCM of its
    entries' denominators, and that LCM.  The ints span the same equation.
    A row of ints comes back as a copy, not rebuilt."""
    if all(type(v) is int for v in row):
        return list(row), 1
    lcm = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (lcm // v.denominator) for v in row], lcm


def fraction_free_pivot(m, r, col, den):
    """Pivot the integer rows `m`, which stand for m / den, in place on
    m[r][col] and return the new common denominator, that pivot.  Row r is
    kept; every other row becomes (p * row - f * top) // den, which is exact
    because each entry stays a minor of the cleared matrix."""
    top = m[r]
    p = top[col]
    for i, row in enumerate(m):
        if i != r:
            f = row[col]
            m[i] = [(p * a - f * b) // den for a, b in zip(row, top)]
    return p


def lp_feasible(A, b):
    """Some x >= 0 with A x = b, as a list of Fractions, or None if none.

    Phase 1 minimizes the sum of one artificial variable per row, starting
    from the basis of artificials.  An artificial that leaves the basis never
    returns, so the tableau stores only the n real columns and the rhs.  The
    final basis is optimal for the LP over the artificials still basic, whose
    minimum is 0 iff the system is feasible; then those sit at 0 and x is
    read straight off the final tableau.  Bland's rule terminates, as that
    LP changes at most m times.

    The tableau is integer rows over one common denominator, the cost row
    last.  Every pivot is positive, so that denominator stays positive and
    signs read straight off the numerators.  Clearing a row's denominators
    rescales its artificial.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    tab = [clear_denominators([*row, bi])[0] for row, bi in zip(A, b)]
    tab = [row if row[-1] >= 0 else [-v for v in row] for row in tab]  # rhs >= 0
    basis = list(range(n, n + m))  # artificial i is basic in row i
    # Reduced costs of the phase-1 objective (sum of artificials) and, last,
    # its negated value.
    tab.append([-sum(row[j] for row in tab) for j in range(n + 1)])
    den = 1

    while True:
        col = next((j for j in range(n) if tab[m][j] < 0), None)
        if col is None:
            break
        # The objective is bounded below by 0, so some entry is positive.
        # Bland's ratio test: least rhs / entry, ties to the least basic
        # variable, compared by cross-multiplying the positive entries.
        row = None
        for r in range(m):
            a = tab[r][col]
            if a > 0:
                if row is None:
                    row = r
                    continue
                diff = tab[r][-1] * tab[row][col] - tab[row][-1] * a
                if diff < 0 or (diff == 0 and basis[r] < basis[row]):
                    row = r
        den = fraction_free_pivot(tab, row, col, den)
        basis[row] = col

    if tab[m][-1] != 0:
        return None
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(tab[r][-1], den)
    return x
