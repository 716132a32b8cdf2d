"""Truncated intersection-ring arithmetic for the universal critical locus.

Both rings are truncations of the sparse polynomial kernel
``exact.SparsePoly``:

* ``GradedClass`` works over a general polarized surface in the symbols
  L, K, x (surface classes; L, K of degree 1, x of degree 2, truncated
  above surface degree 2) and H (hyperplane class of the linear system,
  truncated above H_CAP).

* ``P2Class`` is the projective-plane specialization in the hyperplane
  class l (l^3 = 0) and H, with the formal curve degree d as a third
  variable.

Both truncate eagerly at multiplication time: monomials above the surface
dimension or the H cap can never contribute to any extracted coefficient,
so dropping them is sound and keeps every product finite.

What the surface ring pushes forward to, a ``LinearForm`` in the four Chern
numbers, is the same kernel on the unit exponents; on the plane it becomes
an ``exact.PolyD`` in d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import PolyD, SparsePoly, binomial, format_rational

Q_MAX = 8
H_CAP = Q_MAX  # no extraction reads a power of H above Q_MAX


_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _unit_coefficient(expo):
    return property(lambda form: form.terms.get(expo, 0))


class LinearForm(SparsePoly):
    """A linear form c_d*d + c_k*k + c_s*s + c_x*x in the four Chern numbers,
    held as the kernel on the unit exponents.

    Variable names follow the intersection numbers: d = L^2, k = L.K,
    s = K^2, x = c_2(S).
    """

    __slots__ = ()
    names = ("d", "k", "s", "x")
    coeff_sep = ""
    d, k, s, x = map(_unit_coefficient, _UNITS)

    def __init__(self, d=0, k=0, s=0, x=0):
        super().__init__(4, dict(zip(_UNITS, (d, k, s, x))))

    def evaluate(self, chern):
        """Value at a surface, given anything with attributes d, k, s, x."""
        return (
            self.d * chern.d + self.k * chern.k + self.s * chern.s + self.x * chern.x
        )

    def specialize_p2(self):
        """As a polynomial in d for (P^2, O(d)): chern numbers (d^2, -3d, 9, 3)."""
        return PolyD([9 * self.s + 3 * self.x, -3 * self.k, self.d])

    def to_dict(self):
        return {name: format_rational(getattr(self, name)) for name in self.names}


class GradedClass(SparsePoly):
    """Element of the truncated ring Q[L, K, x, H] with monomial keys
    (e_L, e_K, e_x, e_H); surface degree capped at 2, H power at H_CAP."""

    __slots__ = ()
    names = ("L", "K", "x", "H")

    def __init__(self, terms=None):
        super().__init__(4, terms)

    @staticmethod
    def keep(expo):
        return expo[0] + expo[1] + 2 * expo[2] <= 2 and expo[3] <= H_CAP

    @classmethod
    def one(cls):
        return cls({(0, 0, 0, 0): 1})

    @classmethod
    def gen_L(cls):
        return cls({(1, 0, 0, 0): 1})

    @classmethod
    def gen_K(cls):
        return cls({(0, 1, 0, 0): 1})

    @classmethod
    def gen_x(cls):
        return cls({(0, 0, 1, 0): 1})

    @classmethod
    def gen_H(cls):
        return cls({(0, 0, 0, 1): 1})


def critical_class():
    """Class of the locus of curves with a marked singularity:
    (L+H)^3 + K(L+H)^2 + x(L+H), truncated."""
    v = GradedClass.gen_L() + GradedClass.gen_H()
    K, x = GradedClass.gen_K(), GradedClass.gen_x()
    return v**3 + K * v**2 + x * v


def chern_principal_parts():
    """Total Chern class of the rank-3 bundle cutting out the critical locus:
    ((1 + L + H)^2 + (1 + L + H)K + x) * (1 + L + H)."""
    u = 1 + GradedClass.gen_L() + GradedClass.gen_H()
    return (u**2 + u * GradedClass.gen_K() + GradedClass.gen_x()) * u


def tangent_chern():
    """Total Chern class of the relative tangent bundle: 1 - K + x."""
    return 1 - GradedClass.gen_K() + GradedClass.gen_x()


def inverse_tangent_chern():
    """1 + K + (K^2 - x): the geometric series of 1/(1 - u) with
    u = 1 - c(T) = K - x, which ends because u is nilpotent."""
    u = 1 - tangent_chern()
    result = term = GradedClass.one()
    while term:
        term = term * u
        result = result + term
    return result


def pushforward_to_Y(c, n):
    """Read off the H^n coefficient's surface-degree-2 part as a linear form.

    The dimension count leaves only L^2 -> d, LK -> k, K^2 -> s, x -> x.
    """
    if n > H_CAP:
        raise ValueError(f"H power {n} exceeds the truncation cap {H_CAP}")
    return LinearForm(
        d=c.coefficient((2, 0, 0, n)),
        k=c.coefficient((1, 1, 0, n)),
        s=c.coefficient((0, 2, 0, n)),
        x=c.coefficient((0, 0, 1, n)),
    )


@lru_cache(maxsize=None)
def q_general(n):
    """Equivalence of the small diagonal on a general surface, as a linear
    form in the four Chern numbers.  Cached per n: callers must not mutate
    the result."""
    if not 1 <= n <= Q_MAX:
        raise ValueError(f"q_general: n must be in 1..{Q_MAX}, got {n}")
    cls = (
        chern_principal_parts() ** (n - 1)
        * inverse_tangent_chern() ** (n - 1)
        * critical_class()
    )
    return pushforward_to_Y(cls, n)


class P2Class(SparsePoly):
    """Element of Q[l, H, d]/(l^3) with H truncated above H_CAP; keys are
    (e_l, e_H, e_d), with d the curve degree."""

    __slots__ = ()
    names = ("l", "H", "d")

    def __init__(self, terms=None):
        super().__init__(3, terms)

    @staticmethod
    def keep(expo):
        return expo[0] <= 2 and expo[1] <= H_CAP

    def coefficient(self, e_l, e_h):
        """The l^e_l H^e_h coefficient, a polynomial in d."""
        by_d = {e[2]: c for e, c in self.terms.items() if e[0] == e_l and e[1] == e_h}
        return PolyD([by_d.get(e_d, 0) for e_d in range(max(by_d, default=-1) + 1)])


def _p2_generators():
    return P2Class({(0, 0, 1): 1}), P2Class({(1, 0, 0): 1}), P2Class({(0, 1, 0): 1})


def m_poly_p2(n):
    """(1 + H + (d-1)l)^{3(n-1)} (1 - 3l + 6l^2)^{n-1} (H + (d-1)l)^3."""
    if not 1 <= n <= Q_MAX:
        raise ValueError(f"m_poly_p2: n must be in 1..{Q_MAX}, got {n}")
    d, l, H = _p2_generators()
    dm1_l = l * (d - 1)
    inv_tangent = 1 - 3 * l + 6 * l * l
    return (1 + H + dm1_l) ** (3 * (n - 1)) * inv_tangent ** (n - 1) * (H + dm1_l) ** 3


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


@lru_cache(maxsize=None)
def c_correction_p2(n):
    """Correction term attached to the small diagonal for P^2, as a
    polynomial in d.  Zero for n <= 2; no formula exists beyond n = 4.

    Cached per n and shared by every `multiple_point_degree`."""
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


def excess_a1a2_p2():
    """Excess contribution of the cuspidal diagonal to the node-plus-cusp
    product on P^2: coefficient of l^2 H^3 in
    (1+(d-1)l+H)^3 (1-3l+6l^2) (2(d-3)l+2H) ((d-1)l+H)^3."""
    d, l, H = _p2_generators()
    dm1_l = l * (d - 1)
    a = (1 + dm1_l + H) ** 3
    b = 1 - 3 * l + 6 * l * l
    c = 2 * (d - 3) * l + 2 * H
    e = (dm1_l + H) ** 3
    return (a * b * c * e).coefficient(2, 3)
