import math
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import islice

import pytest

from nodal_atlas.partitions import (
    SetPartition,
    enumerate_partitions,
    format_partition,
    integer_partition_signatures,
    iter_partitions,
    mobius_coefficient,
    signature_count,
)

# Bell numbers B_0..B_12
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


def partition_blocks_by_recursion(r):
    """Blocks of every set partition of {1,...,r}, by the recursive
    restricted-growth walk: element i goes into block a_i with
    a_i <= 1 + max(a_1..a_{i-1}), trying the blocks in order.  An
    independent oracle for the order and content of `iter_partitions`.
    """
    result = []
    assignment = [0] * r

    def grow(i, nblocks):
        if i == r:
            blocks = [[] for _ in range(nblocks)]
            for elem, b in enumerate(assignment, start=1):
                blocks[b].append(elem)
            result.append(tuple(tuple(b) for b in blocks))
            return
        for b in range(nblocks + 1):
            assignment[i] = b
            grow(i + 1, max(nblocks, b + 1))

    grow(0, 0)
    return result


def refines(finer, coarser):
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


def test_partition_counts_are_bell_numbers():
    for r in range(1, 11):
        assert len(enumerate_partitions(r)) == BELL[r]


def test_stream_matches_recursive_enumeration():
    for r in range(1, 11):
        streamed = list(iter_partitions(r))
        assert [pi.blocks for pi in streamed] == partition_blocks_by_recursion(r)
        assert all(pi.r == r for pi in streamed)


def test_streamed_partitions_equal_validated_ones():
    # the stream skips the canonicalisation of the public constructor
    for r in range(1, 9):
        for pi in iter_partitions(r):
            checked = SetPartition(pi.blocks)
            assert pi == checked and hash(pi) == hash(checked)


def test_stream_is_lazy():
    assert next(iter_partitions(12)) == SetPartition([range(1, 13)])
    tracemalloc.start()
    try:
        for _ in islice(iter_partitions(12), 1000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_enumeration_has_no_duplicates():
    for r in range(1, 9):
        parts = enumerate_partitions(r)
        assert len(set(parts)) == len(parts)


def test_canonical_form():
    pi = SetPartition([[3, 1], [2]])
    assert pi.blocks == ((1, 3), (2,))
    assert format_partition(pi) == "13|2"


def test_format_with_commas():
    pi = SetPartition([[1, 11], [2, 3, 4, 5, 6, 7, 8, 9, 10]])
    assert pi.r == 11
    assert len(pi) == 2
    assert format_partition(pi) == "1,11|2,3,4,5,6,7,8,9,10"


def test_format_keeps_separators_apart_for_a_shared_block():
    # the same block tuple prints without commas when r <= 9, with them above
    small, large = enumerate_partitions(3)[1], next(islice(iter_partitions(10), 1, None))
    assert small.blocks[0] == large.blocks[0][:2]
    assert format_partition(small) == "12|3"
    assert format_partition(large) == "1,2,3,4,5,6,7,8,9|10"
    assert format_partition(SetPartition([[1, 2], [3]])) == "12|3"
    assert format_partition(SetPartition([[1, 2], range(3, 11)])) == "1,2|3,4,5,6,7,8,9,10"


def test_invalid_blocks_rejected():
    with pytest.raises(ValueError):
        SetPartition([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        SetPartition([[1], [3]])


def _top(n):
    """The single-block partition of an n-set."""
    return SetPartition([list(range(1, n + 1))])


def test_signature():
    pi = SetPartition([[1, 2], [3, 4], [5]])
    assert Counter(len(b) for b in pi.blocks) == {2: 2, 1: 1}
    assert sorted(len(b) for b in pi.blocks) == [1, 2, 2]


def test_mobius_closed_form():
    assert mobius_coefficient(_top(1)) == 1
    assert mobius_coefficient(_top(3)) == 2
    assert mobius_coefficient(_top(5)) == 24
    assert mobius_coefficient(SetPartition([[1, 2], [3]])) == -1
    assert mobius_coefficient(SetPartition([[1, 2, 3], [4, 5]])) == -2


def test_mobius_of_a_block_beyond_max_r():
    # a hand-built partition may hold a block larger than any enumerated one
    pi = SetPartition([range(1, 14), [14, 15]])
    assert mobius_coefficient(pi) == -math.factorial(12)
    assert mobius_coefficient(_top(13)) == math.factorial(12)
    assert mobius_coefficient(_top(12)) == -math.factorial(11)


def test_mobius_matches_defining_recursion():
    for r in range(1, 7):
        for pi in enumerate_partitions(r):
            assert mobius_coefficient(pi) == mobius_by_recursion(pi)


def test_mobius_sum_telescopes():
    # Moebius inversion over the whole lattice: the sum vanishes for r >= 2.
    for r in range(2, 9):
        assert sum(mobius_coefficient(pi) for pi in enumerate_partitions(r)) == 0


def test_signature_count_values():
    assert signature_count(4, {2: 2}) == 3
    assert signature_count(3, {1: 1, 2: 1}) == 3
    assert signature_count(5, {1: 5}) == 1
    assert signature_count(5, {5: 1}) == 1


def test_signature_count_inconsistent():
    with pytest.raises(ValueError):
        signature_count(4, {2: 1})
    with pytest.raises(ValueError):
        signature_count(4, {2: -2, 1: 8})


def test_signature_counts_sum_to_bell():
    for r in range(1, 13):
        total = sum(signature_count(r, sig) for sig in integer_partition_signatures(r))
        assert total == BELL[r]


def test_signatures_match_enumeration():
    for r in range(1, 9):
        by_sig = {}
        for pi in enumerate_partitions(r):
            key = tuple(sorted(Counter(len(b) for b in pi.blocks).items()))
            by_sig[key] = by_sig.get(key, 0) + 1
        for sig in integer_partition_signatures(r):
            key = tuple(sorted(sig.items()))
            assert by_sig[key] == signature_count(r, sig)


def test_refines():
    fine = SetPartition([[1], [2], [3, 4]])
    coarse = SetPartition([[1, 2], [3, 4]])
    assert refines(fine, coarse)
    assert not refines(coarse, fine)
    assert refines(coarse, coarse)
    with pytest.raises(ValueError):
        refines(SetPartition([[1], [2]]), coarse)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_partitions(13)
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    # the bound is checked when the stream is made, before any is drawn
    with pytest.raises(ValueError):
        iter_partitions(13)


def test_top_bottom_mobius_consistency():
    for r in range(1, 7):
        assert mobius_coefficient(_top(r)) == (-1) ** (r - 1) * math.factorial(r - 1)
