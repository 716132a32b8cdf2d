"""Truncated intersection-ring arithmetic for the universal critical locus.

Two ambient rings are implemented:

* ``GradedClass`` works over a general polarized surface in the symbols
  L, K, x (surface classes; L, K of degree 1, x of degree 2, truncated
  above surface degree 2) and H (hyperplane class of the linear system,
  truncated above a configurable power).

* ``P2Class`` is the projective-plane specialization in the hyperplane
  class l (l^3 = 0) and H, with coefficients that are polynomials in the
  formal curve degree d.

Both truncate eagerly at multiplication time: monomials above the surface
dimension or the H cap can never contribute to any extracted coefficient,
so dropping them is sound and keeps every product finite.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import PolyD, binomial, format_rational

H_CAP = 16
Q_MAX = 8


class LinearForm:
    """A linear form c_d*dd + c_k*k + c_s*s + c_x*x in the four Chern numbers.

    Field names follow the intersection numbers: d = L^2, k = L.K, s = K^2,
    x = c_2(S).
    """

    __slots__ = ("d", "k", "s", "x")

    def __init__(self, d=0, k=0, s=0, x=0):
        self.d = Fraction(d)
        self.k = Fraction(k)
        self.s = Fraction(s)
        self.x = Fraction(x)

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return (self.d, self.k, self.s, self.x) == (other.d, other.k, other.s, other.x)

    def __hash__(self):
        return hash((self.d, self.k, self.s, self.x))

    def __add__(self, other):
        return LinearForm(
            self.d + other.d, self.k + other.k, self.s + other.s, self.x + other.x
        )

    def __sub__(self, other):
        return LinearForm(
            self.d - other.d, self.k - other.k, self.s - other.s, self.x - other.x
        )

    def __mul__(self, scalar):
        scalar = Fraction(scalar)
        return LinearForm(
            self.d * scalar, self.k * scalar, self.s * scalar, self.x * scalar
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def evaluate(self, chern):
        """Value at a surface, given anything with attributes d, k, s, x."""
        return (
            self.d * chern.d + self.k * chern.k + self.s * chern.s + self.x * chern.x
        )

    def specialize_p2(self):
        """As a polynomial in d for (P^2, O(d)): chern numbers (d^2, -3d, 9, 3)."""
        return PolyD(
            [9 * self.s + 3 * self.x, -3 * self.k, self.d]
        )

    def to_dict(self):
        return {
            "d": format_rational(self.d),
            "k": format_rational(self.k),
            "s": format_rational(self.s),
            "x": format_rational(self.x),
        }

    def __str__(self):
        parts = []
        for coeff, name in ((self.d, "d"), (self.k, "k"), (self.s, "s"), (self.x, "x")):
            if coeff == 0:
                continue
            mag = abs(coeff)
            body = name if mag == 1 else f"{format_rational(mag)}{name}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    __repr__ = __str__


def _surface_degree(expo):
    e_l, e_k, e_x, _ = expo
    return e_l + e_k + 2 * e_x


class GradedClass:
    """Element of the truncated ring Q[L, K, x, H] with monomial keys
    (e_L, e_K, e_x, e_H); surface degree capped at 2, H power capped at h_cap."""

    __slots__ = ("terms", "h_cap")

    def __init__(self, terms=None, h_cap=H_CAP):
        self.h_cap = h_cap
        clean = {}
        for expo, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if _surface_degree(expo) > 2 or expo[3] > h_cap:
                continue
            clean[tuple(expo)] = c
        self.terms = clean

    @classmethod
    def one(cls, h_cap=H_CAP):
        return cls({(0, 0, 0, 0): 1}, h_cap)

    @classmethod
    def gen_L(cls, h_cap=H_CAP):
        return cls({(1, 0, 0, 0): 1}, h_cap)

    @classmethod
    def gen_K(cls, h_cap=H_CAP):
        return cls({(0, 1, 0, 0): 1}, h_cap)

    @classmethod
    def gen_x(cls, h_cap=H_CAP):
        return cls({(0, 0, 1, 0): 1}, h_cap)

    @classmethod
    def gen_H(cls, h_cap=H_CAP):
        return cls({(0, 0, 0, 1): 1}, h_cap)

    def __eq__(self, other):
        return isinstance(other, GradedClass) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedClass({(0, 0, 0, 0): other}, self.h_cap)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            s = out.get(expo, Fraction(0)) + c
            if s == 0:
                out.pop(expo, None)
            else:
                out[expo] = s
        return GradedClass(out, self.h_cap)

    __radd__ = __add__

    def __neg__(self):
        return GradedClass({e: -c for e, c in self.terms.items()}, self.h_cap)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedClass({(0, 0, 0, 0): other}, self.h_cap)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedClass(
                {e: c * other for e, c in self.terms.items()}, self.h_cap
            )
        if not isinstance(other, GradedClass):
            return NotImplemented
        cap = min(self.h_cap, other.h_cap)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                if _surface_degree(expo) > 2 or expo[3] > cap:
                    continue
                s = out.get(expo, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(expo, None)
                else:
                    out[expo] = s
        return GradedClass(out, cap)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power of a graded class")
        result = GradedClass.one(self.h_cap)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def coefficient(self, expo):
        return self.terms.get(tuple(expo), Fraction(0))

    def inverse(self):
        """Inverse of a unit-leading class via truncated geometric expansion."""
        c0 = self.terms.get((0, 0, 0, 0), Fraction(0))
        if c0 != 1:
            raise ValueError("inverse requires leading coefficient 1")
        u = self - 1
        # Positive-degree part is nilpotent here only in surface degree, so
        # expand until the partial sums stabilize.
        result = GradedClass.one(self.h_cap)
        term = GradedClass.one(self.h_cap)
        while True:
            term = term * u * Fraction(-1)
            if not term.terms:
                break
            result = result + term
        return result

    def to_dict(self):
        """JSON-friendly map keyed by monomial strings such as 'L^2*H^3'."""
        out = {}
        for expo in sorted(self.terms):
            names = ("L", "K", "x", "H")
            factors = [
                n if e == 1 else f"{n}^{e}" for n, e in zip(names, expo) if e
            ]
            key = "*".join(factors) if factors else "1"
            out[key] = format_rational(self.terms[expo])
        return out

    def __repr__(self):
        return f"GradedClass({self.to_dict()!r})"


def critical_class(h_cap=H_CAP):
    """Class of the locus of curves with a marked singularity:
    (L+H)^3 + K(L+H)^2 + x(L+H), truncated."""
    L = GradedClass.gen_L(h_cap)
    K = GradedClass.gen_K(h_cap)
    x = GradedClass.gen_x(h_cap)
    H = GradedClass.gen_H(h_cap)
    v = L + H
    return v**3 + K * v**2 + x * v


def chern_principal_parts(h_cap=H_CAP):
    """Total Chern class of the rank-3 bundle cutting out the critical locus:
    ((1 + L + H)^2 + (1 + L + H)K + x) * (1 + L + H)."""
    L = GradedClass.gen_L(h_cap)
    K = GradedClass.gen_K(h_cap)
    x = GradedClass.gen_x(h_cap)
    H = GradedClass.gen_H(h_cap)
    u = GradedClass.one(h_cap) + L + H
    return (u**2 + u * K + x) * u


def tangent_chern(h_cap=H_CAP):
    """Total Chern class of the relative tangent bundle: 1 - K + x."""
    return GradedClass.one(h_cap) - GradedClass.gen_K(h_cap) + GradedClass.gen_x(h_cap)


def inverse_tangent_chern(h_cap=H_CAP):
    """1 + K + (K^2 - x), computed as the truncated inverse of 1 - K + x."""
    return tangent_chern(h_cap).inverse()


def pushforward_to_Y(c, n):
    """Read off the H^n coefficient's surface-degree-2 part as a linear form.

    The dimension count leaves only L^2 -> d, LK -> k, K^2 -> s, x -> x.
    """
    if n > c.h_cap:
        raise ValueError(f"H power {n} exceeds the truncation cap {c.h_cap}")
    form = LinearForm()
    for (e_l, e_k, e_x, e_h), coeff in c.terms.items():
        if e_h != n or e_l + e_k + 2 * e_x != 2:
            continue
        if (e_l, e_k, e_x) == (2, 0, 0):
            form = form + LinearForm(d=coeff)
        elif (e_l, e_k, e_x) == (1, 1, 0):
            form = form + LinearForm(k=coeff)
        elif (e_l, e_k, e_x) == (0, 2, 0):
            form = form + LinearForm(s=coeff)
        elif (e_l, e_k, e_x) == (0, 0, 1):
            form = form + LinearForm(x=coeff)
    return form


def q_general(n, h_cap=H_CAP):
    """Equivalence of the small diagonal on a general surface, as a linear
    form in the four Chern numbers."""
    if not 1 <= n <= Q_MAX:
        raise ValueError(f"q_general: n must be in 1..{Q_MAX}, got {n}")
    cls = (
        chern_principal_parts(h_cap) ** (n - 1)
        * inverse_tangent_chern(h_cap) ** (n - 1)
        * critical_class(h_cap)
    )
    return pushforward_to_Y(cls, n)


class P2Class:
    """Element of Q[d][l, H]/(l^3) with H truncated above h_cap; keys are
    (e_l, e_H) and values are polynomials in the curve degree d."""

    __slots__ = ("terms", "h_cap")

    def __init__(self, terms=None, h_cap=H_CAP):
        self.h_cap = h_cap
        clean = {}
        for expo, p in (terms or {}).items():
            if not isinstance(p, PolyD):
                p = PolyD.constant(p) if p else PolyD()
            if not p:
                continue
            e_l, e_h = expo
            if e_l > 2 or e_h > h_cap:
                continue
            clean[(e_l, e_h)] = p
        self.terms = clean

    @classmethod
    def one(cls, h_cap=H_CAP):
        return cls({(0, 0): PolyD([1])}, h_cap)

    @classmethod
    def from_coeffs(cls, entries, h_cap=H_CAP):
        """entries: iterable of (e_l, e_H, PolyD-or-scalar)."""
        terms = {}
        for e_l, e_h, p in entries:
            if not isinstance(p, PolyD):
                p = PolyD.constant(p)
            terms[(e_l, e_h)] = terms.get((e_l, e_h), PolyD()) + p
        return cls(terms, h_cap)

    def __eq__(self, other):
        return isinstance(other, P2Class) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for expo, p in other.terms.items():
            out[expo] = out.get(expo, PolyD()) + p
        return P2Class(out, self.h_cap)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PolyD)):
            return P2Class(
                {e: p * other for e, p in self.terms.items()}, self.h_cap
            )
        cap = min(self.h_cap, other.h_cap)
        out = {}
        for (l1, h1), p1 in self.terms.items():
            for (l2, h2), p2 in other.terms.items():
                e_l, e_h = l1 + l2, h1 + h2
                if e_l > 2 or e_h > cap:
                    continue
                out[(e_l, e_h)] = out.get((e_l, e_h), PolyD()) + p1 * p2
        return P2Class(out, cap)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative power")
        result = P2Class.one(self.h_cap)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def coefficient(self, e_l, e_h):
        return self.terms.get((e_l, e_h), PolyD())

    def to_dict(self):
        out = {}
        for (e_l, e_h) in sorted(self.terms):
            factors = []
            if e_l:
                factors.append("l" if e_l == 1 else f"l^{e_l}")
            if e_h:
                factors.append("H" if e_h == 1 else f"H^{e_h}")
            key = "*".join(factors) if factors else "1"
            out[key] = self.terms[(e_l, e_h)].to_list()
        return out

    def __repr__(self):
        return f"P2Class({self.to_dict()!r})"


def _p2_generators(h_cap=H_CAP):
    d = PolyD.variable()
    l = P2Class({(1, 0): PolyD([1])}, h_cap)
    H = P2Class({(0, 1): PolyD([1])}, h_cap)
    return d, l, H


def m_poly_p2(n, h_cap=H_CAP):
    """(1 + H + (d-1)l)^{3(n-1)} (1 - 3l + 6l^2)^{n-1} (H + (d-1)l)^3."""
    if not 1 <= n <= Q_MAX:
        raise ValueError(f"m_poly_p2: n must be in 1..{Q_MAX}, got {n}")
    d, l, H = _p2_generators(h_cap)
    dm1_l = l * (d - 1)
    base = P2Class.one(h_cap) + H + dm1_l
    inv_tangent = P2Class.one(h_cap) + l * PolyD([-3]) + (l * l) * PolyD([6])
    return base ** (3 * (n - 1)) * inv_tangent ** (n - 1) * (H + dm1_l) ** 3


def q_p2_extraction(n):
    """Coefficient of l^2 H^n in the expanded diagonal class; a quadratic in d."""
    return m_poly_p2(n).coefficient(2, n)


def q_p2_closed(n):
    """Closed binomial formula for the same quadratic: f_n d^2 + g_n d + h_n.

    Constant term uses the reading 25/2 n^2 - 29/2 n + 3, which is the one
    consistent with the small-n table values.
    """
    if n < 1:
        raise ValueError(f"q_p2_closed: n must be >= 1, got {n}")
    b1 = binomial(3 * n - 3, n - 1)
    b2 = binomial(3 * n - 3, n - 2)
    b3 = binomial(3 * n - 3, n - 3)
    f = 3 * b1 + 3 * b2 * (2 * n - 1) + n * b3 * (2 * n - 1)
    g = -2 * n * b3 * (5 * n - 4) - 3 * b2 * (7 * n - 5) - 6 * b1
    h = (
        b3 * (Fraction(25, 2) * n**2 - Fraction(29, 2) * n + 3)
        + 3 * b2 * (5 * n - 4)
        + 3 * b1
    )
    return PolyD([h, g, f])


def c_correction_p2(n):
    """Correction term attached to the small diagonal for P^2, as a
    polynomial in d.  Zero for n <= 2; no formula exists beyond n = 4."""
    if n in (1, 2):
        return PolyD()
    if n == 3:
        return -m_poly_p2(2).coefficient(2, 3)
    if n == 4:
        m3 = m_poly_p2(3).coefficient(2, 4)
        m2 = m_poly_p2(2).coefficient(2, 4)
        return -(m3 * Fraction(3, 2) - m2 * 2)
    raise ValueError(f"c_correction_p2: no formula for n={n} (only n <= 4)")


def multiple_point_degree(r, d):
    """Number of r-fold points of the projection of the critical locus over
    the system of plane degree-d curves, via the Bell combination of the
    equivalence and correction terms."""
    from .bell import eval_complete_bell

    if not 1 <= r <= 4:
        raise ValueError(f"multiple_point_degree: r must be in 1..4, got {r}")
    args = []
    for i in range(1, r + 1):
        qi = q_p2_closed(i)(d)
        ci = c_correction_p2(i)(d)
        args.append((-1) ** (i - 1) * math.factorial(i - 1) * (qi + ci))
    value = eval_complete_bell(r, args)
    if value.denominator != 1:
        raise AssertionError(f"multiple point degree is not integral: {value}")
    return value.numerator


def equivalence_polydiagonal(pi, chern):
    """Product of small-diagonal equivalences over the blocks of a partition,
    evaluated at the given Chern numbers."""
    value = Fraction(1)
    for size, count in pi.signature().items():
        value *= q_general(size).evaluate(chern) ** count
    return value


def excess_a1a2_p2():
    """Excess contribution of the cuspidal diagonal to the node-plus-cusp
    product on P^2: coefficient of l^2 H^3 in
    (1+(d-1)l+H)^3 (1-3l+6l^2) (2(d-3)l+2H) ((d-1)l+H)^3."""
    d, l, H = _p2_generators()
    dm1_l = l * (d - 1)
    a = (P2Class.one() + dm1_l + H) ** 3
    b = P2Class.one() + l * PolyD([-3]) + (l * l) * PolyD([6])
    c = l * ((d - 3) * 2) + H * PolyD([2])
    e = (dm1_l + H) ** 3
    return (a * b * c * e).coefficient(2, 3)
