"""Exact arithmetic primitives: binomials, univariate polynomials in a
formal degree parameter d, and the sparse multivariate polynomial kernel
that the Bell polynomials and the truncated intersection rings share.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (always reduced, positive denominator).  Nothing
in this package ever touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add


def binomial(n, k):
    """Binomial coefficient, with the convention that out-of-range k gives 0.

    Both k > n and k < 0 return 0; n must be non-negative.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class PolyD:
    """Dense univariate polynomial over Fraction in the formal variable d.

    Coefficients are stored ascending in degree with no trailing zeros;
    the zero polynomial has an empty coefficient list and degree -1.
    Instances are immutable by convention (no method mutates self).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyD([other])
        if not isinstance(other, PolyD):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyD([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyD([self.coefficient(i) + other.coefficient(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return PolyD([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyD([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyD([c * other for c in self.coeffs])
        if not isinstance(other, PolyD):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return PolyD()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyD(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = PolyD([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, d):
        """Evaluate at d (Horner)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * d + c
        return acc

    def to_list(self):
        """Coefficient array ascending in degree, as 'p/q' strings."""
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self):
        return f"PolyD({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = format_rational(mag)
            else:
                var = "d" if i == 1 else f"d^{i}"
                term = var if mag == 1 else f"{format_rational(mag)}{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


class SparsePoly:
    """Multivariate polynomial as a map from exponent tuples to int or
    Fraction coefficients.

    All exponent tuples share one arity; zero coefficients are never stored.
    A truncated ring is a subclass whose ``keep(expo)`` rejects the monomials
    it drops; they must span an ideal, so that dropping them as soon as they
    appear is sound.  ``names`` names the variables when printing.
    """

    __slots__ = ("arity", "terms")
    names = None

    @staticmethod
    def keep(expo):
        return True

    def __init__(self, arity, terms=None):
        self.arity = arity
        self.terms = {}
        for expo, c in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != arity:
                raise ValueError(f"exponent {expo} has wrong arity (want {arity})")
            if not isinstance(c, (int, Fraction)):
                c = Fraction(c)
            if c and self.keep(expo):
                self.terms[expo] = c

    def _new(self, terms):
        """An element of the same ring from clean, kept terms."""
        out = object.__new__(type(self))
        out.arity = self.arity
        out.terms = terms
        return out

    def _coerce(self, other):
        """other as an element of this ring, or None."""
        if isinstance(other, (int, Fraction)):
            return self._new({(0,) * self.arity: other} if other else {})
        if type(other) is type(self) and other.arity == self.arity:
            return other
        return None

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for expo, c in other.terms.items():
            s = out.get(expo, 0) + c
            if s:
                out[expo] = s
            else:
                out.pop(expo, None)
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._new({e: c * other for e, c in self.terms.items()} if other else {})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        keep = self.keep
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(map(add, e1, e2))
                if expo in out:
                    out[expo] += c1 * c2
                elif keep(expo):
                    out[expo] = c1 * c2
        return self._new({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power")
        result = self._new({(0,) * self.arity: 1})
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), 0)

    def evaluate(self, values):
        if len(values) < self.arity:
            raise ValueError(f"need {self.arity} values, got {len(values)}")
        return sum(
            c * math.prod(v**e for v, e in zip(values, expo) if e)
            for expo, c in self.terms.items()
        )

    def to_records(self):
        """Serialize as a list of {exponents, coefficient}, lexicographic order."""
        return [
            {"exponents": list(e), "coefficient": format_rational(c)}
            for e, c in sorted(self.terms.items())
        ]

    def __str__(self, names=None):
        if not self.terms:
            return "0"
        names = names or self.names or [f"x{i + 1}" for i in range(self.arity)]
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


def format_rational(x):
    """Serialize an exact rational as a decimal string, 'p/q' when non-integral."""
    x = _as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
