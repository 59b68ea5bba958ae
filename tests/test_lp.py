"""`lp_feasible` against an independent brute force on small systems.

The brute force uses the fact that a feasible system A x = b, x >= 0 has a
basic feasible solution: one supported on linearly independent columns C,
fixed by a non-singular square block A[R][C].  It tries every such block,
solves it by Cramer's rule with cofactor determinants over Fractions, and
keeps a solution that is non-negative and satisfies every row.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from tverlab.lp import clear_denominators, lp_feasible


def _cofactor_det(mat):
    if not mat:
        return Fraction(1)
    return sum(
        (-1) ** j * a * _cofactor_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j, a in enumerate(mat[0])
        if a
    )


def _brute_force_feasible(A, b):
    m, n = len(A), len(A[0])
    for k in range(min(m, n) + 1):
        for cols in combinations(range(n), k):
            for rows in combinations(range(m), k):
                block = [[Fraction(A[r][c]) for c in cols] for r in rows]
                det = _cofactor_det(block)
                if det == 0:
                    continue
                x = [Fraction(0)] * n
                for i, c in enumerate(cols):
                    swapped = [
                        row[:i] + [Fraction(b[r])] + row[i + 1 :] for row, r in zip(block, rows)
                    ]
                    x[c] = _cofactor_det(swapped) / det
                if min(x, default=0) >= 0 and all(
                    sum(a * v for a, v in zip(row, x)) == bi for row, bi in zip(A, b)
                ):
                    return True
    return False


def _assert_solves(A, b, x):
    assert len(x) == len(A[0])
    assert all(isinstance(v, Fraction) and v >= 0 for v in x)
    for row, bi in zip(A, b):
        assert sum(a * v for a, v in zip(row, x)) == bi


def _check(A, b):
    x = lp_feasible(A, b)
    assert (x is not None) == _brute_force_feasible(A, b)
    if x is not None:
        _assert_solves(A, b, x)
    return x


@pytest.mark.parametrize(
    "A, b, feasible",
    [
        # Tied ratios in the first pivot column; Bland's rule breaks the tie.
        ([[1, 1, 0], [1, 0, 1]], [1, 1], True),
        ([[1, 1, 1, 0], [1, 1, 0, 1], [2, 2, 1, 1]], [2, 2, 4], True),
        # Zero right-hand sides: every pivot is degenerate.
        ([[1, -1, 0], [-1, 1, 1]], [0, 0], True),
        # Redundant row: an artificial stays basic at 0.
        ([[1, 2], [2, 4]], [2, 4], True),
        ([[Fraction(1, 2), 1], [1, 2]], [Fraction(3, 2), 3], True),
        # Inconsistent rows, and a consistent system with no x >= 0.
        ([[1, 2], [2, 4]], [2, 5], False),
        ([[1, 1]], [-1], False),
        ([[1, -1], [1, 1]], [3, -1], False),
    ],
)
def test_lp_feasible_small_cases(A, b, feasible):
    assert (_check(A, b) is not None) == feasible


def _random_system(rng, rational):
    m = rng.randint(1, 4)
    n = rng.randint(1, 6)

    def scalar():
        # Few distinct values make ties and singular blocks common.
        if rational and rng.random() < 0.5:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return rng.randint(-2, 2)

    A = [[scalar() for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        # b = A x0 with x0 >= 0: feasible by construction.
        x0 = [rng.randint(0, 2) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, x0)) for row in A]
    else:
        b = [scalar() for _ in range(m)]
    return A, b


@pytest.mark.parametrize("rational", [False, True])
def test_lp_feasible_matches_brute_force(rational):
    rng = random.Random(20261018 + rational)
    verdicts = set()
    for _ in range(150):
        A, b = _random_system(rng, rational)
        verdicts.add(_check(A, b) is not None)
    assert verdicts == {True, False}


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 4]) == ([3, -4, 24], 6)
    cleared, lcm = clear_denominators([Fraction(2), 3])
    assert (cleared, lcm) == ([2, 3], 1) and type(cleared[0]) is int
    row = [3, -1, 0]
    cleared, lcm = clear_denominators(row)
    assert (cleared, lcm) == (row, 1)
    cleared.append(5)  # an integer row is copied, not aliased
    assert row == [3, -1, 0]
