"""Set partitions of {1,...,r}: enumeration, text rows, the signature tree,
Moebius coefficients.

Partitions are kept in canonical form (each block sorted, blocks ordered by
least element) so that structural equality coincides with mathematical
equality and iteration order is deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import require_ints

# Largest ground set enumerated: B_12 = 4,213,597 partitions.
MAX_R = 12

# Largest size in the signature tree: p(0) + ... + p(20) = 2,714 nodes.
MAX_SIGNATURE_SIZE = 20


class SetPartition:
    """A partition of the ground set {1,...,r} into disjoint nonempty blocks."""

    # mobius is derived from the blocks, so equality and hashing ignore it
    __slots__ = ("blocks", "r", "mobius")

    def __init__(self, blocks, r=None):
        canon = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
        elements = [e for b in canon for e in b]
        n = r if r is not None else (max(elements) if elements else 0)
        if sorted(elements) != list(range(1, n + 1)):
            raise ValueError(f"blocks {canon} do not partition {{1,...,{n}}}")
        self.blocks = tuple(canon)
        self.r = n
        self.mobius = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in canon)

    def __eq__(self, other):
        return (
            isinstance(other, SetPartition)
            and self.blocks == other.blocks
            and self.r == other.r
        )

    def __hash__(self):
        return hash((self.blocks, self.r))

    def __len__(self):
        return len(self.blocks)

    def __repr__(self):
        return f"SetPartition({format_partition(self)!r})"


def format_partition(pi):
    """Text form '12|345'; elements are comma-separated when r > 9."""
    wide = pi.r > 9
    return "|".join([_block_text(b, wide) for b in pi.blocks])


# 2^MAX_R: every block of one r <= MAX_R fits, and hand-built ones are evicted
@lru_cache(maxsize=4096)
def _block_text(block, wide):
    """Text of one block, e.g. (1, 2) -> '12', comma-separated when wide."""
    return ("," if wide else "").join(map(str, block))


def iter_partitions(r):
    """Every set partition of {1,...,r}, canonical, each exactly once, lazily.

    The order is that of restricted-growth strings (Knuth, TAOCP 4A
    7.2.1.5): element e goes into block a_e <= 1 + max(a_1..a_{e-1}), and
    the strings come in lexicographic order, so the one-block partition is
    first and the all-singletons partition last.  The walk keeps an explicit
    stack of prefixes.  Adding e, the largest element so far, to block j of a
    prefix, or opening the block (e,), keeps every block sorted and the blocks
    ordered by least element; untouched block tuples are shared with the
    prefix.  Each prefix carries its Moebius coefficient down the walk:
    adding e to a block of size s multiplies it by -s, and opening a block
    leaves it unchanged.  At the last level the grown element is always r, so
    each block b + (r,) is built once per walk and shared by every partition
    in which r joins b.
    """
    require_ints("iter_partitions", 1, MAX_R, r=r)
    return _walk(r)


def _walk(r):
    new = object.__new__
    joined = {}  # block b -> b + (r,), valid only within this walk
    stack = [(1, (), 1)]  # (next element, blocks of the prefix 1..next-1, their Moebius)
    while stack:
        e, blocks, mobius = stack.pop()
        if e == r:
            row = [*blocks]
            for j, b in enumerate(blocks):
                grown = joined.get(b)
                if grown is None:
                    grown = joined[b] = b + (r,)
                row[j] = grown
                pi = new(SetPartition)
                pi.blocks, pi.r, pi.mobius = tuple(row), r, -len(b) * mobius
                row[j] = b
                yield pi
            pi = new(SetPartition)
            pi.blocks, pi.r, pi.mobius = blocks + ((r,),), r, mobius
            yield pi
        else:
            # pushed last-first, so that block 0 is popped first
            stack.append((e + 1, blocks + ((e,),), mobius))
            for j in range(len(blocks) - 1, -1, -1):
                b = blocks[j]
                child = blocks[:j] + (b + (e,),) + blocks[j + 1:]
                stack.append((e + 1, child, -len(b) * mobius))


def enumerate_partitions(r):
    """All set partitions of {1,...,r} as a list, in `iter_partitions` order."""
    return list(iter_partitions(r))


def partition_rows(r):
    """(text, block count, Moebius coefficient) of every partition of
    {1,...,r}, as `format_partition`, `len` and `mobius_coefficient` give
    them, in `iter_partitions` order, lazily.

    The rows are built from the partitions of {1,...,r-1}, as `_walk`'s last
    level builds its partitions: the texts of a prefix's blocks are looked
    up once, and each of its extensions (r joined to one of its blocks, then
    r set apart) is one join of them, so no partition of {1,...,r} is built.
    """
    require_ints("partition_rows", 1, MAX_R, r=r)
    return _rows(r)


def _rows(r):
    if r == 1:
        yield "1", 1, 1
        return
    wide = r > 9
    tail = ("," if wide else "") + str(r)
    join = "|".join
    for pi in _walk(r - 1):
        blocks, mobius = pi.blocks, pi.mobius
        texts = [_block_text(b, wide) for b in blocks]
        m = len(blocks)
        for j, b in enumerate(blocks):
            t = texts[j]
            texts[j] = t + tail
            yield join(texts), m, -len(b) * mobius
            texts[j] = t
        texts.append(str(r))
        yield join(texts), m + 1, mobius


def mobius_coefficient(pi):
    """Moebius coefficient of the interval from the all-singletons partition.

    Product over blocks of (-1)^(size-1) * (size-1)!, held on the partition:
    carried down the walk when streamed, computed by the constructor otherwise.
    """
    return pi.mobius


@lru_cache(maxsize=None)
def signature_tree(n):
    """Every integer partition of 0..n exactly once, as the pre-order walk of
    the prefix tree that adds parts largest first; cached, shared, read-only.

    Node k is (parent, part, size, multiplicities, count): the index of its
    parent (-1 at the root, the empty partition), the part i it adds, its
    size s, its block-size multiplicities (j_1, ..., j_s), and the number
    s! / (prod_i (i!)^{j_i} j_i!) of set partitions of an s-set with those
    block sizes.  A parent's count times C(s, i) / j_i, with s and j_i the
    child's, is the child's: the division is exact.  Within one size the
    partitions come in decreasing lexicographic order of their parts.
    """
    require_ints("signature_tree", 0, MAX_SIGNATURE_SIZE, n=n)
    nodes = []
    stack = [(-1, 0, 0, (), 1)]  # the root
    while stack:
        node = stack.pop()
        k = len(nodes)
        nodes.append(node)
        _, part, size, mults, count = node
        # parts up to the last one (any at the root), pushed smallest first so
        # that the largest is popped first
        for i in range(1, min(part or n, n - size) + 1):
            grown = [*mults, *(0,) * i]
            grown[i - 1] += 1
            stack.append((k, i, size + i, tuple(grown), count * math.comb(size + i, i) // grown[i - 1]))
    return tuple(nodes)
