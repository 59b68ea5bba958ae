"""Enumeration of the candidate Tverberg partitions: the partitions of the
(d+1)(q-1)+1 labels into q non-empty blocks of at most d+1 labels each.

Partitions are unordered; the canonical form is a tuple of blocks sorted by
smallest element, each block a sorted tuple of labels.  Generation places
the labels in increasing order, each into an open block or a fresh one, so
every unordered partition is produced exactly once, in increasing order of
its restricted-growth string (each label's block index).
"""


def canonical(blocks):
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def point_count(d, q):
    """N+1 = (d+1)(q-1)+1: the points of a configuration for (d, q), the
    vertices of the N-simplex, and the rows of its chessboard complexes."""
    return (d + 1) * (q - 1) + 1


def enumerate_candidate_partitions(d, q, apart=()):
    """Candidate Tverberg partitions: q non-empty blocks of size <= d+1
    covering the labels 0..point_count(d, q)-1, streamed in canonical
    order.  With `apart`, label pairs that must stay in different blocks,
    only the candidates that keep every pair apart, in the same order: a
    label goes into no block that holds one of its pair partners.

    A label joins an open block only while more labels remain than blocks
    are missing, and opens a fresh one only while a block is missing; as
    q(d+1) >= point_count(d, q), the size cap never strands a label."""
    n = point_count(d, q)
    partners = {}
    for a, b in apart:
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    blocks = []

    def place(label):
        if label == n:
            yield tuple(map(tuple, blocks))
            return
        banned = partners.get(label, frozenset())
        missing = q - len(blocks)
        if n - label > missing:
            for block in blocks:
                if len(block) <= d and banned.isdisjoint(block):
                    block.append(label)
                    yield from place(label + 1)
                    block.pop()
        if missing:
            blocks.append([label])
            yield from place(label + 1)
            blocks.pop()

    yield from place(0)
