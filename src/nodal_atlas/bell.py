"""Complete and partial Bell polynomials over exact integers and rationals.

The complete polynomial is generated once per n from the block-size
signatures of set partitions (the multinomial count r!/(prod (i!)^j_i j_i!)),
which keeps a single combinatorial source of truth with the partition-lattice
layer; a partial polynomial is the slice of it with a given number of
blocks.  Evaluation (for multiple-point degrees) uses the O(r^2) complete
Bell recurrence alone; the p(r)-term signature sum is the oracle in `checks`,
and the tests compare the two routes.  The symbolic node polynomial runs the
same recurrence over packed integer exponents, in `tables`; numeric node
counts there use Newton's identity instead, which needs neither binomials
nor the division by r!.  Cached polynomials are shared: callers must not
mutate them.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import SparsePoly
from .partitions import integer_partition_signatures, signature_count

MAX_R = 15


def _check_r(r, lo=1):
    if not lo <= r <= MAX_R:
        raise ValueError(f"Bell polynomial index must be in {lo}..{MAX_R}, got {r}")


def _signature_poly(n):
    """Sum over the block-size signatures of an n-set of the number of set
    partitions with that signature times x_1^{j_1}...x_n^{j_n}."""
    terms = {}
    for sig in integer_partition_signatures(n):
        terms[tuple(sig.get(i, 0) for i in range(1, n + 1))] = signature_count(n, sig)
    return SparsePoly(n, terms)


@lru_cache(maxsize=None)
def complete_bell(r):
    """The complete exponential Bell polynomial in x_1..x_r.

    The monomial x_1^{j_1}...x_r^{j_r} carries the number of set partitions
    of an r-set with j_i blocks of size i.
    """
    _check_r(r)
    return _signature_poly(r)


@lru_cache(maxsize=None)
def partial_bell(n, l):
    """Partial Bell polynomial: the part of complete_bell(n) with l blocks,
    sliced from the cached complete polynomial."""
    _check_r(n)
    if not 1 <= l <= n:
        raise ValueError(f"partial_bell: need 1 <= l <= n, got l={l}, n={n}")
    terms = complete_bell(n).terms
    return SparsePoly(n, {e: c for e, c in terms.items() if sum(e) == l})


def eval_complete_bell(r, values):
    """Evaluate the r-th complete Bell polynomial at the given values.

    Uses the recurrence Y_n = sum_{k=1}^{n} C(n-1, k-1) x_k Y_{n-k}, Y_0 = 1,
    in O(r^2) ring operations: integer inputs give an int, rational inputs a
    Fraction.
    """
    _check_r(r, lo=0)
    if len(values) < r:
        raise ValueError(f"need at least {r} values, got {len(values)}")
    y = [1]
    for n in range(1, r + 1):
        y.append(
            sum(math.comb(n - 1, k - 1) * values[k - 1] * y[n - k] for k in range(1, n + 1))
        )
    return y[r]
