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


def _oracle_system(blocks):
    """A x = b in `geometry.common_point`'s shape: per block, a row of ones
    over its barycentric variables with b = 1; then, per later block and
    coordinate, its combination minus the first block's, with b = 0."""
    offsets = [sum(len(blk) for blk in blocks[:j]) for j in range(len(blocks) + 1)]
    n = offsets[-1]
    A = [[int(offsets[j] <= v < offsets[j + 1]) for v in range(n)] for j in range(len(blocks))]
    for j in range(1, len(blocks)):
        for t in range(len(blocks[0][0])):
            row = [0] * n
            for i, s in enumerate(blocks[0]):
                row[i] = -s[t]
            for i, s in enumerate(blocks[j]):
                row[offsets[j] + i] = s[t]
            A.append(row)
    return A, [1] * len(blocks) + [0] * (len(A) - len(blocks))


def _oracle_blocks(rng):
    """q blocks of at most d + 1 small integer points, at most six in all,
    drawn with repeats from a pool holding a collinear triple, so that
    degenerate pivots are common."""
    d, q = rng.choice([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
    pool = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(2, 4))]
    p, r = rng.sample(pool, 2)
    pool.append(tuple(2 * a - c for a, c in zip(p, r)))  # p is the midpoint
    while True:
        sizes = [rng.randint(1, d + 1) for _ in range(q)]
        if sum(sizes) <= 6:
            return [[rng.choice(pool) for _ in range(k)] for k in sizes]


# Oracle-shaped systems on which a tableau that stores the artificial
# columns brings an artificial back into the basis; this one stops there.
@pytest.mark.parametrize(
    "blocks, feasible",
    [
        ([[(1, -1)], [(1, -1)]], True),
        ([[(-2, 2, 0)], [(-2, 2, 0), (-2, -1, -1)]], True),
        ([[(1, -1)], [(3, -3), (2, -2)]], False),
        ([[(1, 1)], [(1, 4)], [(1, 1)]], False),
    ],
)
def test_lp_feasible_where_an_artificial_would_reenter(blocks, feasible):
    assert (_check(*_oracle_system(blocks)) is not None) == feasible


def test_lp_feasible_matches_brute_force_on_oracle_systems():
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(150):
        verdicts.add(_check(*_oracle_system(_oracle_blocks(rng))) is not None)
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
