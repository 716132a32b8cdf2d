"""Set partitions of {1,...,r}: enumeration, signatures, Moebius coefficients.

Partitions are kept in canonical form (each block sorted, blocks ordered by
least element) so that structural equality coincides with mathematical
equality and iteration order is deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache

DEFAULT_CAP = 12


class SetPartition:
    """A partition of the ground set {1,...,r} into disjoint nonempty blocks."""

    __slots__ = ("blocks", "r")

    def __init__(self, blocks, r=None):
        canon = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])
        elements = [e for b in canon for e in b]
        n = r if r is not None else (max(elements) if elements else 0)
        if sorted(elements) != list(range(1, n + 1)):
            raise ValueError(f"blocks {canon} do not partition {{1,...,{n}}}")
        self.blocks = tuple(canon)
        self.r = n

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

    def block_sizes(self):
        return sorted(len(b) for b in self.blocks)

    def signature(self):
        """Counts of blocks by size: a dict {size: count}."""
        sig = {}
        for b in self.blocks:
            sig[len(b)] = sig.get(len(b), 0) + 1
        return sig


def format_partition(pi):
    """Text form '12|345'; elements are comma-separated when r > 9."""
    sep = "" if pi.r <= 9 else ","
    return "|".join(sep.join(str(e) for e in b) for b in pi.blocks)


def parse_partition(text, r=None):
    blocks = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if "," in chunk:
            blocks.append([int(e) for e in chunk.split(",")])
        else:
            blocks.append([int(ch) for ch in chunk])
    return SetPartition(blocks, r=r)


def enumerate_partitions(r, cap=DEFAULT_CAP):
    """All set partitions of {1,...,r}, canonically ordered, each exactly once.

    Enumeration is by restricted-growth strings: element i goes into block
    a_i with a_i <= 1 + max(a_1..a_{i-1}).  This yields every partition in
    canonical form with no duplicates.
    """
    if not 1 <= r <= cap:
        raise ValueError(f"enumerate_partitions: r must be in 1..{cap}, got {r}")
    result = []
    assignment = [0] * r

    def grow(i, nblocks):
        if i == r:
            blocks = [[] for _ in range(nblocks)]
            for elem, b in enumerate(assignment, start=1):
                blocks[b].append(elem)
            result.append(SetPartition(blocks, r=r))
            return
        for b in range(nblocks + 1):
            assignment[i] = b
            grow(i + 1, max(nblocks, b + 1))

    grow(0, 0)
    return result


def bell_number(r):
    cache = [1]
    for _ in range(r):
        row = [cache[-1]]
        for prev in cache:
            row.append(row[-1] + prev)
        cache = row
    return cache[0]


def mobius_coefficient(pi):
    """Moebius coefficient of the interval from the all-singletons partition.

    Product over blocks of (-1)^(size-1) * (size-1)!.
    """
    n = 1
    for b in pi.blocks:
        i = len(b)
        n *= (-1) ** (i - 1) * math.factorial(i - 1)
    return n


def mobius_top(n):
    """Moebius coefficient of the single-block partition of an n-set."""
    return (-1) ** (n - 1) * math.factorial(n - 1)


def signature_count(r, sig):
    """Number of set partitions of an r-set with j_i blocks of size i.

    sig maps block size to multiplicity; sizes with zero multiplicity may be
    omitted.  Formula: r! / (prod_i (i!)^{j_i} j_i!).
    """
    total = sum(i * j for i, j in sig.items())
    if total != r:
        raise ValueError(f"signature {sig} is inconsistent with r={r}")
    denom = 1
    for i, j in sig.items():
        if j < 0 or i < 1:
            raise ValueError(f"signature {sig} has an invalid entry")
        denom *= math.factorial(i) ** j * math.factorial(j)
    return math.factorial(r) // denom


def integer_partition_signatures(r):
    """All signatures {size: count} with sum size*count == r, deterministic order."""
    out = []

    def descend(remaining, max_part, acc):
        if remaining == 0:
            out.append(dict(acc))
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc[part] = acc.get(part, 0) + 1
            descend(remaining - part, part, acc)
            acc[part] -= 1
            if acc[part] == 0:
                del acc[part]

    descend(r, r, {})
    return out


def refines(finer, coarser, strict=False):
    """True iff every block of `finer` is contained in a block of `coarser`."""
    if finer.r != coarser.r:
        raise ValueError(f"ground sets differ: {finer.r} vs {coarser.r}")
    owner = {}
    for i, b in enumerate(coarser.blocks):
        for e in b:
            owner[e] = i
    for b in finer.blocks:
        target = owner[b[0]]
        if any(owner[e] != target for e in b[1:]):
            return False
    if strict and finer == coarser:
        return False
    return True


@lru_cache(maxsize=None)
def _mobius_by_recursion(r):
    """Moebius coefficients computed by the defining recursion, keyed by partition.

    n at the bottom is 1 and n(pi) = -sum of n over strict refinements of pi.
    Quadratic in the Bell number, so only usable for small r; serves as an
    independent oracle for the closed product formula.
    """
    parts = enumerate_partitions(r)
    by_nblocks = sorted(parts, key=len, reverse=True)
    values = {}
    for pi in by_nblocks:
        if len(pi) == r:
            values[pi] = 1
            continue
        values[pi] = -sum(
            values[q] for q in parts if len(q) > len(pi) and refines(q, pi)
        )
    return values


def mobius_by_recursion(pi):
    return _mobius_by_recursion(pi.r)[pi]
