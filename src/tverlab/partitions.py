"""Enumeration of partitions with capped block sizes: the candidate
Tverberg partitions.

Partitions are unordered; the canonical form is a tuple of blocks sorted by
smallest element, each block a sorted tuple of labels.  Generation places
the smallest unassigned label first (into the lowest-indexed open block or
a fresh one), so every unordered partition is produced exactly once, in
increasing order of its restricted-growth string (each label's block index).
"""


def canonical(blocks):
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def partitions_with_max_block(labels, q, max_size, apart=()):
    """All partitions of `labels` into exactly q non-empty blocks of size
    <= max_size, streamed in canonical order.  With `apart`, label pairs
    that must stay in different blocks, only the partitions that keep
    every pair apart, in the same order: a label goes into no block that
    holds one of its pair partners."""
    labels = list(labels)
    n = len(labels)
    if q * max_size < n or q > n:
        return

    partners = {}
    for a, b in apart:
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    blocks = []

    def rec(i, open_slots):  # open_slots: the room left in the open blocks
        if i == n:
            if len(blocks) == q:
                yield tuple(tuple(b) for b in blocks)
            return
        remaining = n - i
        missing = q - len(blocks)
        label = labels[i]
        banned = partners.get(label, frozenset())
        # Place into an existing block: still need `missing` labels to open
        # the remaining blocks, and capacity for everything else.
        if remaining - 1 >= missing and open_slots - 1 + missing * max_size >= remaining - 1:
            for b in blocks:
                if len(b) < max_size and banned.isdisjoint(b):
                    b.append(label)
                    yield from rec(i + 1, open_slots - 1)
                    b.pop()
        # Open a fresh block (blocks are opened in label order, which keeps
        # the emitted partition canonical).
        if missing > 0 and open_slots + missing * max_size >= remaining:
            blocks.append([label])
            yield from rec(i + 1, open_slots + max_size - 1)
            blocks.pop()

    yield from rec(0, 0)


def point_count(d, q):
    """N+1 = (d+1)(q-1)+1: the points of a configuration for (d, q), the
    vertices of the N-simplex, and the rows of its chessboard complexes."""
    return (d + 1) * (q - 1) + 1


def enumerate_candidate_partitions(d, q, apart=()):
    """Candidate Tverberg partitions: q non-empty blocks of size <= d+1
    covering the labels 0..point_count(d, q)-1; with `apart`, only those
    that keep each of its label pairs in different blocks."""
    yield from partitions_with_max_block(range(point_count(d, q)), q, d + 1, apart)

