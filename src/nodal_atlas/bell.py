"""Complete and partial Bell polynomials over exact rationals.

The polynomials are generated from block-size signatures of set partitions
(the multinomial count r!/(prod (i!)^j_i j_i!)), which keeps a single
combinatorial source of truth with the partition-lattice layer.  Test code
cross-checks the coefficients against direct set-partition enumeration and
against the classical recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import format_rational
from .partitions import integer_partition_signatures, signature_count

MAX_R = 15


class SparsePoly:
    """Multivariate polynomial as a map from exponent tuples to Fraction.

    All exponent tuples share one arity; zero coefficients are never stored.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms=None):
        self.arity = arity
        clean = {}
        for expo, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if len(expo) != arity:
                raise ValueError(f"exponent {expo} has wrong arity (want {arity})")
            clean[tuple(expo)] = c
        self.terms = clean

    @classmethod
    def variable(cls, arity, index):
        """x_index (1-based) as a polynomial."""
        expo = tuple(1 if i == index - 1 else 0 for i in range(arity))
        return cls(arity, {expo: 1})

    @classmethod
    def constant(cls, arity, c):
        return cls(arity, {(0,) * arity: c})

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.arity, other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            s = out.get(expo, Fraction(0)) + c
            if s == 0:
                out.pop(expo, None)
            else:
                out[expo] = s
        return SparsePoly(self.arity, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.constant(self.arity, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SparsePoly(
                self.arity, {e: c * other for e, c in self.terms.items()}
            )
        if not isinstance(other, SparsePoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return SparsePoly(self.arity, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power")
        result = SparsePoly.constant(self.arity, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), Fraction(0))

    def evaluate(self, values):
        if len(values) < self.arity:
            raise ValueError(
                f"need {self.arity} values, got {len(values)}"
            )
        acc = Fraction(0)
        for expo, c in self.terms.items():
            term = c
            for v, e in zip(values, expo):
                if e:
                    term *= Fraction(v) ** e
            acc += term
        return acc

    def to_records(self):
        """Serialize as a list of {exponents, coefficient}, lexicographic order."""
        return [
            {"exponents": list(e), "coefficient": format_rational(c)}
            for e, c in sorted(self.terms.items())
        ]

    def __str__(self, names=None):
        if not self.terms:
            return "0"
        names = names or [f"x{i + 1}" for i in range(self.arity)]
        parts = []
        ranked = sorted(
            self.terms.items(), key=lambda t: (-sum(t[0]), [-e for e in t[0]])
        )
        for expo, c in ranked:
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(expo)
                if e
            ]
            mag = abs(c)
            body = "*".join(factors)
            if not factors:
                body = format_rational(mag)
            elif mag != 1:
                body = f"{format_rational(mag)}*{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __repr__ = __str__


def _check_r(r, lo=1):
    if not lo <= r <= MAX_R:
        raise ValueError(f"Bell polynomial index must be in {lo}..{MAX_R}, got {r}")


@lru_cache(maxsize=None)
def complete_bell(r):
    """The complete exponential Bell polynomial in x_1..x_r.

    The monomial x_1^{j_1}...x_r^{j_r} carries the number of set partitions
    of an r-set with j_i blocks of size i.
    """
    _check_r(r)
    terms = {}
    for sig in integer_partition_signatures(r):
        expo = tuple(sig.get(i, 0) for i in range(1, r + 1))
        terms[expo] = Fraction(signature_count(r, sig))
    return SparsePoly(r, terms)


@lru_cache(maxsize=None)
def partial_bell(n, l):
    """Partial Bell polynomial: the part of complete_bell(n) with l blocks."""
    _check_r(n)
    if not 1 <= l <= n:
        raise ValueError(f"partial_bell: need 1 <= l <= n, got l={l}, n={n}")
    terms = {}
    for sig in integer_partition_signatures(n):
        if sum(sig.values()) != l:
            continue
        expo = tuple(sig.get(i, 0) for i in range(1, n + 1))
        terms[expo] = Fraction(signature_count(n, sig))
    return SparsePoly(n, terms)


def _eval_by_signature_sum(r, values):
    acc = Fraction(0)
    for sig in integer_partition_signatures(r):
        term = Fraction(signature_count(r, sig))
        for i, j in sig.items():
            term *= Fraction(values[i - 1]) ** j
        acc += term
    return acc


def _eval_by_recurrence(r, values):
    # Y_n = sum_{k=1}^{n} C(n-1, k-1) x_k Y_{n-k}, Y_0 = 1; ints stay ints.
    y = [1]
    for n in range(1, r + 1):
        y.append(
            sum(math.comb(n - 1, k - 1) * values[k - 1] * y[n - k] for k in range(1, n + 1))
        )
    return y[r]


def eval_complete_bell(r, values):
    """Evaluate the r-th complete Bell polynomial at the given values.

    Computed along two independent routes (partition-signature sum and the
    complete Bell recurrence); disagreement indicates a bug and raises.
    """
    _check_r(r, lo=0)
    if r == 0:
        return Fraction(1)
    if len(values) < r:
        raise ValueError(f"need at least {r} values, got {len(values)}")
    direct = _eval_by_signature_sum(r, values)
    recurrence = _eval_by_recurrence(r, values)
    if direct != recurrence:
        raise AssertionError(
            f"Bell evaluation paths disagree at r={r}: {direct} vs {recurrence}"
        )
    return direct


def bell_transform(log_coeffs):
    """Coefficients b_0..b_n of exp(sum_l c_l q^l) from c_1..c_n.

    b_0 = 1 and b_r = P_r(1! c_1, ..., r! c_r)/r!.
    """
    c = [Fraction(x) for x in log_coeffs]
    out = [Fraction(1)]
    for r in range(1, len(c) + 1):
        scaled = [math.factorial(l) * c[l - 1] for l in range(1, r + 1)]
        out.append(eval_complete_bell(r, scaled) / math.factorial(r))
    return out
