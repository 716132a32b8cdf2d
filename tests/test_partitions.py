import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import pytest

from integer_partitions import integer_partition_signatures, signature_count
from nodal_atlas import partitions
from nodal_atlas.partitions import (
    MAX_SIGNATURE_SIZE,
    SetPartition,
    enumerate_partitions,
    format_partition,
    iter_partitions,
    mobius_coefficient,
    partition_rows,
    signature_tree,
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


def test_partition_counts_are_bell_numbers(streams):
    for r, streamed in streams.items():
        assert len(streamed) == BELL[r]


def test_stream_matches_recursive_enumeration(streams):
    for r, streamed in streams.items():
        assert [pi.blocks for pi in streamed] == partition_blocks_by_recursion(r)
        assert all(pi.r == r for pi in streamed)


def test_interleaved_walks_keep_their_blocks_apart():
    # each walk shares the blocks that its own r joins, and no other walk's
    pairs = list(zip(iter_partitions(5), iter_partitions(6)))
    assert [a.blocks for a, _ in pairs] == partition_blocks_by_recursion(5)
    assert [b.blocks for _, b in pairs] == partition_blocks_by_recursion(6)[:BELL[5]]


def test_streamed_partitions_equal_validated_ones():
    # the stream skips the canonicalisation of the public constructor and
    # carries the Moebius coefficient the constructor computes from the blocks
    for r in range(1, 9):
        for pi in iter_partitions(r):
            checked = SetPartition(pi.blocks)
            assert pi == checked and hash(pi) == hash(checked)
            assert checked.mobius == pi.mobius


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


def test_format_block_text_stays_bounded():
    # hand-built partitions bring new block tuples: here the two-block
    # partitions of [11] and [12], about 6,000 blocks in all.  The text
    # cache evicts past its bound, and the output does not change
    partitions._block_text.cache_clear()
    bound = partitions._block_text.cache_info().maxsize
    assert bound == 2 ** partitions.MAX_R
    for r in (11, 12):
        for mask in range(1, 1 << (r - 1)):
            rest = [e for e in range(2, r + 1) if mask >> (e - 2) & 1]
            pi = SetPartition([[1] + [e for e in range(2, r + 1) if e not in rest], rest])
            assert format_partition(pi) == "|".join(",".join(map(str, b)) for b in pi.blocks)
            assert partitions._block_text.cache_info().currsize <= bound
    for r in range(1, 9):
        for pi in iter_partitions(r):
            assert format_partition(pi) == "|".join("".join(map(str, b)) for b in pi.blocks)


def test_rows_are_the_formatted_partitions():
    # built from the partitions of [r-1]; r = 10 covers the comma form
    for r in range(1, 11):
        want = [(format_partition(pi), len(pi), pi.mobius) for pi in iter_partitions(r)]
        assert list(partition_rows(r)) == want, r


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


def test_carried_mobius_matches_closed_product(streams):
    # (-1)^(|B|-1) (|B|-1)! for block sizes |B| = 1..10, at index |B|
    per_block = [None] + [(-1) ** (i - 1) * math.factorial(i - 1) for i in range(1, 11)]
    for streamed in streams.values():
        for pi in streamed:
            assert mobius_coefficient(pi) == math.prod(per_block[len(b)] for b in pi.blocks)


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


# Bell numbers B_0..B_15 and partition numbers p(0)..p(15)
BELL_15 = BELL + [27644437, 190899322, 1382958545]
PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]


def _tree_by_size(n):
    by_size = {}
    for _, _, size, mults, count in signature_tree(n):
        by_size.setdefault(size, []).append((mults, count))
    return by_size


def test_signature_tree_holds_each_integer_partition_once():
    by_size = _tree_by_size(15)
    assert sorted(by_size) == list(range(16))
    for n, nodes in by_size.items():
        vectors = [mults for mults, _ in nodes]
        assert len(vectors) == len(set(vectors)) == PARTITION_NUMBERS[n]
        assert all(len(m) == n and sum(i * j for i, j in enumerate(m, 1)) == n for m in vectors)
        # the order of the one-by-one enumeration, largest parts first
        assert vectors == [tuple(sig.get(i, 0) for i in range(1, n + 1))
                           for sig in integer_partition_signatures(n)]


def test_signature_tree_is_a_preorder_prefix_tree():
    # each node adds one part, at most its parent's, to an earlier node
    tree = signature_tree(15)
    assert tree[0] == (-1, 0, 0, (), 1)
    for k, (parent, part, size, mults, _) in enumerate(tree[1:], 1):
        _, up_part, up_size, up_mults, _ = tree[parent]
        assert 0 <= parent < k and 1 <= part and size == up_size + part
        assert up_part == 0 or part <= up_part
        grown = [*up_mults, *(0,) * part]
        grown[part - 1] += 1
        assert mults == tuple(grown)


def test_signature_tree_counts_are_signature_counts():
    for n, nodes in _tree_by_size(15).items():
        for mults, count in nodes:
            sig = {i: j for i, j in enumerate(mults, 1) if j}
            assert count == signature_count(n, sig), (n, mults)


def test_signature_tree_counts_sum_to_bell():
    for n, nodes in _tree_by_size(15).items():
        assert sum(count for _, count in nodes) == BELL_15[n]


def test_signature_tree_range():
    assert signature_tree(0) == ((-1, 0, 0, (), 1),)
    for n in (-1, MAX_SIGNATURE_SIZE + 1):
        with pytest.raises(ValueError, match=rf"signature_tree: n must be in 0\.\.{MAX_SIGNATURE_SIZE}"):
            signature_tree(n)
    # a smaller tree is the larger one's nodes of those sizes, in order
    small = [node[1:] for node in signature_tree(6)]
    assert small == [node[1:] for node in signature_tree(9) if node[2] <= 6]


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
    for r in (0, 13):
        with pytest.raises(ValueError, match=rf"^partition_rows: r must be in 1\.\.12, got {r}$"):
            partition_rows(r)


@pytest.mark.parametrize("r", [2.0, Fraction(2), True], ids=["float", "fraction", "bool"])
def test_sizes_must_be_ints(r):
    # a size that is not an int would walk into blocks such as (1, 2.0)
    for enumerate_ in (iter_partitions, enumerate_partitions):
        with pytest.raises(TypeError, match=r"iter_partitions: r must be an int"):
            enumerate_(r)


def test_top_bottom_mobius_consistency():
    for r in range(1, 7):
        assert mobius_coefficient(_top(r)) == (-1) ** (r - 1) * math.factorial(r - 1)
