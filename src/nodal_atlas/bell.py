"""Complete and partial Bell polynomials over exact integers and rationals.

The complete polynomials of every index up to MAX_R are built together on
first use, in one pass over `partitions.signature_tree`: each integer
partition of r is one monomial of Y_r, carrying the number
r!/(prod (i!)^j_i j_i!) of set partitions with those block sizes, so the
partition layer stays the single combinatorial source of truth.  The same
pass files each monomial under its number of blocks as well, so the partial
polynomials are built beside the complete ones and a partial one is a lookup.
Evaluation (multiple-point degrees, exp of a q-series) uses the O(r^2)
complete Bell recurrence alone; the p(r)-term signature sum over the same
tree is the oracle in `checks`, and the tests compare the two routes.  The
symbolic node polynomial, in `tables`, runs the same recurrence in one
variable per Chern number and joins the four tables by the binomial
convolution Y_n(u + v) = sum_j C(n, j) Y_j(u) Y_{n-j}(v), over packed
integer exponents; numeric node counts there use Newton's identity instead,
which needs neither binomials nor the division by r!.  Cached polynomials
are shared, and their terms are read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import SparsePoly, require_ints
from .partitions import signature_tree

MAX_R = 15


@lru_cache(maxsize=1)
def _complete_bells():
    """Row r is (Y_r, B_{r,1}, ..., B_{r,r}) for r = 0..MAX_R, built together
    in one pass over the signature tree: each node is one monomial of the
    complete polynomial of its size and of the partial one of its block
    count, both in tree order.  The terms are clean as filed."""
    terms = [{} for _ in range(MAX_R + 1)]
    slices = [[{} for _ in range(r + 1)] for r in range(MAX_R + 1)]
    for _, _, size, mults, count in signature_tree(MAX_R):
        terms[size][mults] = count
        slices[size][sum(mults)][mults] = count
    return tuple(
        tuple(map(SparsePoly(r)._new, [t, *slices[r][1:]])) for r, t in enumerate(terms)
    )


def complete_bell(r):
    """The complete exponential Bell polynomial in x_1..x_r.

    The monomial x_1^{j_1}...x_r^{j_r} carries the number of set partitions
    of an r-set with j_i blocks of size i.
    """
    require_ints("complete_bell", 1, MAX_R, r=r)
    return _complete_bells()[r][0]


def partial_bell(n, l):
    """Partial Bell polynomial: the part of complete_bell(n) with l blocks,
    built in the same pass as the complete polynomial and cached with it."""
    require_ints("partial_bell", 1, MAX_R, n=n)
    require_ints("partial_bell", 1, n, l=l)
    return _complete_bells()[n][l]


def complete_bell_sequence(values):
    """[Y_0, ..., Y_n] at x_1..x_n = values, by the recurrence
    Y_n = sum_{k=1}^{n} C(n-1, k-1) x_k Y_{n-k}, Y_0 = 1, in O(n^2) ring
    operations: integer inputs give ints, rational inputs Fractions."""
    y = [1]
    for n in range(1, len(values) + 1):
        y.append(
            sum(math.comb(n - 1, k - 1) * values[k - 1] * y[n - k] for k in range(1, n + 1))
        )
    return y

