"""Exact arithmetic primitives: binomials and the sparse multivariate
polynomial kernel that every polynomial in the package shares: the Bell
polynomials, the truncated intersection rings, the linear forms in the Chern
numbers and, as ``PolyD``, the polynomials in the formal curve degree d.

Products and powers run on packed exponents: each exponent tuple becomes
one int with a bit field per variable, sized from the operands' largest
exponents, so a monomial product is one integer add.  A truncated ring's
caps ride along as guard fields, so dropping a monomial costs one add and
one mask.  Results are unpacked to tuple keys once, at the end.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (always reduced, positive denominator).  Nothing
in this package touches floating point: a float coefficient is refused.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add, and_, mul, rshift
from types import MappingProxyType


def binomial(n, k):
    """Binomial coefficient, with the convention that out-of-range k gives 0.

    Both k > n and k < 0 return 0; n must be non-negative.
    """
    require_ints("binomial", 0, n=n)
    require_ints("binomial", k=k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def require_ints(caller, lo=None, hi=None, **sizes):
    """Refuse a size that is not an int (a float, Fraction or bool), naming
    it: TypeError.  Given lo, also refuse one below lo or, given hi, above
    hi: ValueError.  Every size argument of the package is checked here, so
    each refusal has one wording and names the function that refuses."""
    for name, value in sizes.items():
        if type(value) is not int:
            raise TypeError(f"{caller}: {name} must be an int, got {value!r}")
        if lo is not None and (value < lo or hi is not None and value > hi):
            span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise ValueError(f"{caller}: {name} must be {span}, got {value}")


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _layout(tops, caps):
    """(units, shifts, masks, off, mask) packing monomials e <= tops as
    sum_i e_i units[i]: a field per variable as wide as tops[i] needs, then
    per cap (weights w, bound b) a guard field holding w.e below a flag bit
    above b.  Operands are kept, so a guard sum is at most 2b; adding ``off``
    sets the flag exactly where it exceeds b, so a packed sum k is kept iff
    ``(k + off) & mask`` is 0."""
    widths = [top.bit_length() for top in tops]
    shifts = list(accumulate(widths, initial=0))
    shift = shifts.pop()
    units = [1 << s for s in shifts]
    off = mask = 0
    for weights, bound in caps:
        flag = 1 << bound.bit_length()
        units = [u + (w << shift) for u, w in zip(units, weights)]
        off += (flag - 1 - bound) << shift
        mask += flag << shift
        shift += flag.bit_length()
    return units, shifts, [(1 << w) - 1 for w in widths], off, mask


def _product(a, b, off, mask):
    """Product of two packed polynomials, monomials failing a cap dropped."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = k1 + k2
            if k in out:
                out[k] += c1 * c2
            elif not (k + off) & mask:
                out[k] = c1 * c2
    return {k: c for k, c in out.items() if c}


def _restore(cls, arity, terms):
    out = object.__new__(cls)
    object.__setattr__(out, "arity", arity)
    object.__setattr__(out, "terms", MappingProxyType(terms))
    return out


class SparsePoly:
    """Multivariate polynomial as a map from exponent tuples to int or
    Fraction coefficients.

    All exponent tuples share one arity; zero coefficients are never stored.
    ``terms`` is a read-only view and no attribute can be reassigned or
    deleted, so a cached polynomial is safely shared.
    A truncated ring is a subclass that declares ``caps``, pairs
    (weights, bound) that keep a monomial e only while weights.e <= bound
    for every pair.  The dropped monomials span an ideal, so dropping them
    as soon as they appear is sound.  ``names`` names the variables when
    printing, and ``coeff_sep`` is the text between a coefficient and its
    monomial.
    """

    __slots__ = ("arity", "terms")
    names = None
    coeff_sep = "*"
    caps = ()

    def __init__(self, arity, terms=None):
        object.__setattr__(self, "arity", arity)
        kept = {}
        caps = self.caps
        for expo, c in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != arity:
                raise ValueError(f"exponent {expo} has wrong arity (want {arity})")
            if not isinstance(c, (int, Fraction)):
                c = _as_fraction(c)
            if c and (not caps or all(sum(map(mul, w, expo)) <= b for w, b in caps)):
                kept[expo] = c
        object.__setattr__(self, "terms", MappingProxyType(kept))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def _new(self, terms):
        """An element of the same ring from clean, kept terms."""
        return _restore(type(self), self.arity, terms)

    def __reduce__(self):
        # pickle and deepcopy cannot copy the read-only view, only its dict
        return _restore, (type(self), self.arity, dict(self.terms))

    def _coerce(self, other):
        """other as an element of this ring, or None."""
        if isinstance(other, (int, Fraction)):
            return self._new({(0,) * self.arity: other} if other else {})
        if type(other) is type(self) and other.arity == self.arity:
            return other
        return None

    def __eq__(self, other):
        return type(other) is type(self) and (self.arity, self.terms) == (other.arity, other.terms)

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = self.terms.copy()
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

    def _tops(self):
        """The largest exponent of each variable; ValueError if negative."""
        columns = list(zip(*self.terms)) or [(0,)] * self.arity
        if min(map(min, columns)) < 0:
            raise ValueError(f"cannot pack a negative exponent: {self!r}")
        return list(map(max, columns))

    def _pack(self, units):
        return {sum(map(mul, e, units)): c for e, c in self.terms.items()}

    def _unpack(self, packed, shifts, masks):
        return self._new({
            tuple(map(and_, map(rshift, repeat(k), shifts), masks)): c
            for k, c in packed.items()
        })

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._new({e: c * other for e, c in self.terms.items()} if other else {})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        tops = list(map(add, self._tops(), other._tops()))
        units, shifts, masks, off, mask = _layout(tops, self.caps)
        packed = _product(self._pack(units), other._pack(units), off, mask)
        return self._unpack(packed, shifts, masks)

    __rmul__ = __mul__

    def __pow__(self, e):
        """Square-and-multiply, every product through __mul__."""
        require_ints(f"{type(self).__name__}.__pow__", 0, e=e)
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return self._coerce(1) if result is None else result

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
                body = f"{format_rational(mag)}{self.coeff_sep}{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __repr__ = __str__


class PolyD(SparsePoly):
    """Polynomial in the formal curve degree d: the arity-1 kernel, built
    from and read as a dense coefficient list, constant term first."""

    __slots__ = ()
    names = ("d",)
    coeff_sep = ""

    def __init__(self, coeffs=()):
        super().__init__(1, {(i,): c for i, c in enumerate(coeffs)})

    @property
    def coeffs(self):
        """The dense coefficients, constant term first, no trailing zeros."""
        top = max((e for (e,) in self.terms), default=-1)
        return tuple(self.terms.get((i,), 0) for i in range(top + 1))

    def __call__(self, d):
        return self.evaluate((d,))

    def to_list(self):
        """The dense coefficients as 'p/q' strings."""
        return [format_rational(c) for c in self.coeffs]


def format_rational(x):
    """Serialize an exact rational as a decimal string, 'p/q' when non-integral."""
    x = _as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
