"""Exact phase-1 feasibility.

Decides whether A x = b, x >= 0 has a solution with a small dense simplex
over `fractions.Fraction` and Bland's anti-cycling rule, which guarantees
termination.  Problem sizes in this library are tiny (barycentric variables
of a handful of blocks), so no sparsity or revised-simplex machinery is
needed.
"""

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for r in range(len(tab)):
        if r != row and tab[r][col] != 0:
            f = tab[r][col]
            tab[r] = [a - f * b for a, b in zip(tab[r], tab[row])]
    basis[row] = col


def lp_feasible(A, b):
    """Some x >= 0 with A x = b, as a list of Fractions, or None if none.

    Phase 1 minimizes the sum of one artificial variable per row, starting
    from the basis of artificials.  The system is feasible iff that minimum
    is 0; then every artificial still in the basis sits at 0, so x is read
    straight off the final tableau.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    tab = []
    for i in range(m):
        sign = -1 if b[i] < 0 else 1  # keep the right-hand side >= 0
        row = [Fraction(sign * v) for v in A[i]]
        tab.append(row + [ONE if j == i else ZERO for j in range(m)] + [Fraction(sign * b[i])])
    basis = list(range(n, n + m))
    ncols = n + m
    # Reduced costs of the phase-1 objective (sum of artificials) and, last,
    # its negated value.
    cost = [-sum(row[j] for row in tab) for j in range(ncols + 1)]
    cost[n:ncols] = [ZERO] * m

    while True:
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            break
        # The objective is bounded below by 0, so some entry is positive.
        row = None
        best = None
        for r in range(m):
            a = tab[r][col]
            if a > 0:
                ratio = tab[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best, row = ratio, r
        _pivot(tab, basis, row, col)
        f = cost[col]
        cost = [a - f * v for a, v in zip(cost, tab[row])]

    if cost[-1] != 0:
        return None
    x = [ZERO] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = tab[r][-1]
    return x
