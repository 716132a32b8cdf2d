import math
import random
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest
from integer_partitions import integer_partition_signatures, signature_count

from nodal_atlas import bell, checks
from nodal_atlas.bell import (
    SparsePoly,
    complete_bell,
    complete_bell_sequence,
    partial_bell,
)
from nodal_atlas.checks import complete_bell_by_signatures
from nodal_atlas.partitions import enumerate_partitions, signature_tree

# Bell numbers B_0..B_15
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597,
        27644437, 190899322, 1382958545]


def _poly(arity, terms):
    return SparsePoly(arity, {e: Fraction(c) for e, c in terms.items()})


def test_first_four_complete_polynomials():
    assert complete_bell(1) == _poly(1, {(1,): 1})
    assert complete_bell(2) == _poly(2, {(2, 0): 1, (0, 1): 1})
    assert complete_bell(3) == _poly(3, {(3, 0, 0): 1, (1, 1, 0): 3, (0, 0, 1): 1})
    assert complete_bell(4) == _poly(
        4,
        {(4, 0, 0, 0): 1, (2, 1, 0, 0): 6, (1, 0, 1, 0): 4, (0, 2, 0, 0): 3, (0, 0, 0, 1): 1},
    )


def test_complete_is_sum_of_partials():
    for r in range(1, 16):
        total = SparsePoly(r)
        for l in range(1, r + 1):
            part = partial_bell(r, l)
            padded = SparsePoly(
                r, {e + (0,) * (r - len(e)): c for e, c in part.terms.items()}
            )
            total = total + padded
        assert total == complete_bell(r)


def _sliced_partial_bell(n, l):
    """B_{n,l} as it used to be built on every call: the terms of
    complete_bell(n) with l blocks, kept in the complete polynomial's order."""
    return {e: c for e, c in complete_bell(n).terms.items() if sum(e) == l}


def test_partial_bell_is_the_l_block_slice_of_the_complete_polynomial():
    # one shared read-only value per (n, l), equal to the old per-call slice
    # term for term and in its order; test_complete_is_sum_of_partials adds
    # the slices back up
    for n in range(1, 16):
        for l in range(1, n + 1):
            part = partial_bell(n, l)
            want = _sliced_partial_bell(n, l)
            assert type(part) is SparsePoly and part.arity == n
            assert list(part.terms.items()) == list(want.items())
            assert partial_bell(n, l) is part
            assert isinstance(part.terms, MappingProxyType)


def _stirling2_rows(n):
    """S(m, l) for 0 <= l <= m <= n, by S(m, l) = l S(m-1, l) + S(m-1, l-1)."""
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [l * prev[l] + prev[l - 1] for l in range(1, m + 1)])
    return rows


def test_partial_bell_counts_match_stirling_recurrence():
    # independent of complete_bell: the coefficients of B_{n,l} count the
    # set partitions of an n-set into l blocks, and every monomial has
    # weight sum i j_i = n and sum j_i = l blocks
    stirling = _stirling2_rows(15)
    for n in range(1, 16):
        for l in range(1, n + 1):
            part = partial_bell(n, l)
            assert sum(part.terms.values()) == stirling[n][l]
            for expo in part.terms:
                assert sum(i * j for i, j in enumerate(expo, start=1)) == n
                assert sum(expo) == l


def test_partial_bell_values():
    # number of ways to split a 6-set into 3 blocks
    assert partial_bell(6, 3).evaluate([1] * 6) == 90
    assert partial_bell(4, 2) == _poly(4, {(1, 0, 1, 0): 4, (0, 2, 0, 0): 3})


def test_partial_bell_bad_blocks():
    with pytest.raises(ValueError):
        partial_bell(4, 0)
    with pytest.raises(ValueError):
        partial_bell(4, 5)
    with pytest.raises(ValueError):
        complete_bell(16)


@pytest.mark.parametrize("n, l, name", [
    (3, 2.0, "l"), (3.0, 2, "n"), (3, Fraction(2), "l"), (Fraction(3), 2, "n"),
    (3, True, "l"), (True, 1, "n"),
], ids=["float-l", "float-n", "fraction-l", "fraction-n", "bool-l", "bool-n"])
def test_partial_bell_takes_integer_sizes_only(n, l, name, monkeypatch):
    # partial_bell(3, 2.0) used to return the two-block slice; a size that is
    # not an int is refused before the cached polynomials are read
    def refuse(*args):
        raise AssertionError("read the Bell polynomials with a non-integer size")

    monkeypatch.setattr(bell, "_complete_bells", refuse)
    with pytest.raises(TypeError, match=rf"partial_bell: {name} must be an int"):
        partial_bell(n, l)


def test_coefficients_count_set_partitions():
    for r in range(1, 9):
        counted = {}
        for pi in enumerate_partitions(r):
            sig = Counter(len(b) for b in pi.blocks)
            expo = tuple(sig.get(i, 0) for i in range(1, r + 1))
            counted[expo] = counted.get(expo, 0) + 1
        assert {e: int(c) for e, c in complete_bell(r).terms.items()} == counted


def _complete_bell_by_signatures(n):
    """complete_bell(n) built signature by signature, with each count from
    the closed formula."""
    return SparsePoly(n, {
        tuple(sig.get(i, 0) for i in range(1, n + 1)): signature_count(n, sig)
        for sig in integer_partition_signatures(n)
    })


def test_complete_bell_equals_the_signature_by_signature_build():
    for n in range(1, 16):
        want = _complete_bell_by_signatures(n)
        assert complete_bell(n) == want
        assert list(complete_bell(n).terms) == list(want.terms)  # same order


@pytest.mark.parametrize("first", [1, 7, 15])
def test_one_tree_build_serves_every_r(first):
    # whichever r comes first, one walk of the tree builds Y_0..Y_15 and
    # every B_{r,l}, and the signature-sum oracle reads the same tree
    signature_tree.cache_clear()
    bell._complete_bells.cache_clear()
    checks._signature_sums.cache_clear()
    try:
        complete_bell(first)
        for r in range(1, 16):
            complete_bell(r)
            for l in range(1, r + 1):
                partial_bell(r, l)
        assert complete_bell_by_signatures(15, list(range(3, 18))) == complete_bell(15).evaluate(range(3, 18))
        assert bell._complete_bells.cache_info().misses == 1
        assert signature_tree.cache_info().misses == 1
    finally:
        signature_tree.cache_clear()
        bell._complete_bells.cache_clear()


def test_all_ones_gives_bell_numbers():
    for r in range(1, 16):
        assert complete_bell_sequence([1] * r)[r] == BELL[r]


def test_dual_path_evaluation_random():
    # the recurrence against the signature-sum oracle and the symbolic polynomial
    rng = random.Random(99)
    for r in range(1, 16):
        for _ in range(8):
            ints = [rng.randint(-50, 50) for _ in range(r)]
            got = complete_bell_sequence(ints)[r]
            assert type(got) is int
            assert got == complete_bell_by_signatures(r, ints)
            fracs = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(r)]
            got = complete_bell_sequence(fracs)[r]
            assert got == complete_bell_by_signatures(r, fracs)
            assert got == complete_bell(r).evaluate(fracs)


def test_tabled_oracle_equals_the_fresh_power_product():
    # the signature sum from one walk of the tree, each node's product its
    # parent's times one x, against count * math.prod of fresh powers over
    # the signatures enumerated one by one
    rng = random.Random(412)
    for r in range(1, 16):
        for _ in range(2):
            ints = [rng.randint(-50, 50) for _ in range(r)]
            mixed = list(ints)
            mixed[rng.randrange(r)] = Fraction(rng.randint(-50, 50), rng.randint(2, 9))
            for values in (
                [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(r)],
                mixed,
                ints + [Fraction(1, 3)],  # past r: still evaluated in integers
            ):
                xs = values[:r] if values is not mixed else [Fraction(v) for v in values]
                want = sum(
                    signature_count(r, sig) * math.prod(xs[i - 1] ** j for i, j in sig.items())
                    for sig in integer_partition_signatures(r)
                )
                got = complete_bell_by_signatures(r, values)
                assert got == want and type(got) is type(want)


def test_eval_r_zero():
    assert complete_bell_sequence([]) == [1]


def test_bell_transform_is_exp():
    # b_r = Y_r(1! c_1, ..., r! c_r)/r! built from the log coefficients c_l
    # must match the series exponential
    from nodal_atlas.qseries import PowerSeries, series_exp

    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 10)
        log_coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(n)]
        scaled = [math.factorial(l) * c for l, c in enumerate(log_coeffs, start=1)]
        out = [Fraction(complete_bell_sequence(scaled[:r])[r], math.factorial(r)) for r in range(n + 1)]
        series = series_exp(PowerSeries([0] + log_coeffs, n))
        assert out == series.coeffs
