"""Truncated intersection-ring arithmetic for the universal critical locus.

Both rings are truncations of the sparse polynomial kernel
``exact.SparsePoly``:

* ``GradedClass`` works over a general polarized surface in the symbols
  L, K, x (surface classes; L, K of degree 1, x of degree 2, truncated
  above surface degree 2) and H (hyperplane class of the linear system,
  truncated above Q_MAX).

* ``P2Class`` is the projective-plane specialization in the hyperplane
  class l (l^3 = 0) and H, with the formal curve degree d as a third
  variable.

Both truncate eagerly at multiplication time through the kernel's ``caps``:
monomials above the surface dimension or the H cap can never contribute to
any extracted coefficient, so dropping them is sound and keeps every
product finite.

What the surface ring pushes forward to, a ``LinearForm`` in the four Chern
numbers (a surface's ``ChernNumbers``), is the same kernel on the unit
exponents.  Q_n, the corrections C_n and the excess E are such forms, read
from one table of surface classes; their values on (P^2, O(d)),
``exact.PolyD`` in d, are specialisations.  The plane ring remains only as
the coefficient-extraction route to Q_n.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .bell import complete_bell_sequence
from .exact import PolyD, SparsePoly, binomial, format_rational, require_ints

Q_MAX = 8  # also the H cap: no extraction reads a power of H above Q_MAX


class ChernNumbers(namedtuple("ChernNumbers", "d k s x")):
    """The four intersection numbers of a polarized surface: d = L^2, k = L.K,
    s = K^2, x = c_2(S), each an int (TypeError if not, `_make` included)."""

    __slots__ = ()

    def __new__(cls, d, k, s, x):
        if not type(d) is type(k) is type(s) is type(x) is int:
            name, value = next(p for p in zip(cls._fields, (d, k, s, x)) if type(p[1]) is not int)
            raise TypeError(f"ChernNumbers.{name} must be an int, got {value!r}")
        return tuple.__new__(cls, (d, k, s, x))

    @classmethod
    def _make(cls, iterable):
        """A record as it is; anything else is read into a new, checked one."""
        return iterable if type(iterable) is cls else cls(*iterable)

    @classmethod
    def p2(cls, degree):
        """(P^2, O(degree)): (degree^2, -3 degree, 9, 3)."""
        return cls(degree * degree, -3 * degree, 9, 3)


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
        """Value at a surface's Chern numbers, read through ChernNumbers."""
        d, k, s, x = ChernNumbers._make(chern)
        return self.d * d + self.k * k + self.s * s + self.x * x

    def specialize_p2(self):
        """As a polynomial in d for (P^2, O(d)): chern numbers (d^2, -3d, 9, 3)."""
        return PolyD([9 * self.s + 3 * self.x, -3 * self.k, self.d])

    def to_dict(self):
        return {name: format_rational(getattr(self, name)) for name in self.names}


class GradedClass(SparsePoly):
    """Element of the truncated ring Q[L, K, x, H] with monomial keys
    (e_L, e_K, e_x, e_H); surface degree capped at 2, H power at Q_MAX."""

    __slots__ = ()
    names = ("L", "K", "x", "H")
    caps = (((1, 1, 2, 0), 2), ((0, 0, 0, 1), Q_MAX))

    def __init__(self, terms=None):
        super().__init__(4, terms)


# The generators L, K, x, H of the surface ring, shared: their terms are read-only.
L, K, X, H = (GradedClass({e: 1}) for e in _UNITS)


def critical_class():
    """Class of the locus of curves with a marked singularity:
    (L+H)^3 + K(L+H)^2 + x(L+H), truncated."""
    v = L + H
    return v**3 + K * v**2 + X * v


def chern_principal_parts():
    """Total Chern class of the rank-3 bundle cutting out the critical locus:
    ((1 + L + H)^2 + (1 + L + H)K + x) * (1 + L + H)."""
    u = 1 + L + H
    return (u**2 + u * K + X) * u


def inverse_tangent_chern():
    """1 + K + (K^2 - x): the geometric series of 1/(1 - u), u = 1 - c(T) = K - x
    for c(T) = 1 - K + x of the relative tangent bundle; u is nilpotent."""
    u = K - X
    result = term = 1
    while term:
        term = term * u
        result = result + term
    return result


def pushforward_to_Y(c, n):
    """Read off the H^n coefficient's surface-degree-2 part as a linear form.

    The dimension count leaves only L^2 -> d, LK -> k, K^2 -> s, x -> x.
    """
    require_ints("pushforward_to_Y", 0, Q_MAX, n=n)
    return LinearForm(
        d=c.coefficient((2, 0, 0, n)),
        k=c.coefficient((1, 1, 0, n)),
        s=c.coefficient((0, 2, 0, n)),
        x=c.coefficient((0, 0, 1, n)),
    )


@lru_cache(maxsize=1)
def _class_table():
    """(cls_1, ..., cls_{Q_MAX}) in one pass, cls_{n+1} = cls_n c(P) c(T)^{-1}
    with cls_1 the critical class, built whole on first use so that no
    call's cost depends on which n came first.  Callers must not mutate it."""
    step = chern_principal_parts() * inverse_tangent_chern()
    table = [critical_class()]
    while len(table) < Q_MAX:
        table.append(table[-1] * step)
    return tuple(table)


def q_general(n):
    """Equivalence of the small diagonal on a general surface, as a linear
    form in the four Chern numbers: the H^n pushforward of cls_n."""
    require_ints("q_general", 1, Q_MAX, n=n)
    return pushforward_to_Y(_class_table()[n - 1], n)


def c_correction(n):
    """Correction term attached to the small diagonal, as a linear form in
    the four Chern numbers: C_3 = -pi_*[H^3] cls_2 and
    C_4 = -(3/2 pi_*[H^4] cls_3 - 2 pi_*[H^4] cls_2); zero for n <= 2, and no
    formula exists beyond n = 4.  That the plane formulas lift to these forms
    is an observed identity, held exactly by `checks.a_decomposition_check`."""
    require_ints("c_correction", 1, 4, n=n)
    if n in (1, 2):
        return LinearForm()
    cls = _class_table()
    if n == 3:
        return -pushforward_to_Y(cls[1], 3)
    return pushforward_to_Y(cls[1], 4) * 2 - pushforward_to_Y(cls[2], 4) * Fraction(3, 2)


@lru_cache(maxsize=1)
def excess_a1a2():
    """Excess contribution of the cuspidal diagonal to the node-plus-cusp
    product, pi_*[H^3] (cls_2 (2(L+K) + 2H)), a linear form in the four Chern
    numbers.  The plane formula's 2(d-3)l is 2(L+K) on P^2; its lift to every
    surface is an observed identity, held exactly by the Thom table's
    S_{A1A2} = -3(E/2 + S_{A3}) in `checks.check_decompositions`.  Computed
    once and shared."""
    factor = (L + K + H) * 2
    return pushforward_to_Y(_class_table()[1] * factor, 3)


class P2Class(SparsePoly):
    """Element of Q[l, H, d]/(l^3) with H truncated above Q_MAX; keys are
    (e_l, e_H, e_d), with d the curve degree."""

    __slots__ = ()
    names = ("l", "H", "d")
    caps = (((1, 0, 0), 2), ((0, 1, 0), Q_MAX))

    def __init__(self, terms=None):
        super().__init__(3, terms)

    def coefficient(self, e_l, e_h):
        """The l^e_l H^e_h coefficient, a polynomial in d."""
        by_d = {e[2]: c for e, c in self.terms.items() if e[0] == e_l and e[1] == e_h}
        return PolyD([by_d.get(e_d, 0) for e_d in range(max(by_d, default=-1) + 1)])


@lru_cache(maxsize=1)
def _plane_table():
    """(M_1, ..., M_{Q_MAX}), M_n = (1 + H + (d-1)l)^{3(n-1)} (1 - 3l + 6l^2)^{n-1}
    (H + (d-1)l)^3, in one pass, built whole on first use so that no call's
    cost depends on which n came first.  Callers must not mutate it."""
    d, l, H = (P2Class({e: 1}) for e in ((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    dm1_l = l * (d - 1)
    step = (1 + H + dm1_l) ** 3 * (1 - 3 * l + 6 * l * l)
    table = [(H + dm1_l) ** 3]
    while len(table) < Q_MAX:
        table.append(table[-1] * step)
    return tuple(table)


def q_p2_extraction(n):
    """Coefficient of l^2 H^n in the expanded diagonal class M_n; a quadratic in d."""
    require_ints("q_p2_extraction", 1, Q_MAX, n=n)
    return _plane_table()[n - 1].coefficient(2, n)


def q_p2_closed(n):
    """Closed binomial formula for the same quadratic: f_n d^2 + g_n d + h_n.

    Constant term uses the reading 25/2 n^2 - 29/2 n + 3, which is the one
    consistent with the small-n table values.
    """
    require_ints("q_p2_closed", 1, n=n)
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
    """`c_correction(n)` on (P^2, O(d)), a polynomial in d; cached per n and
    shared by every `multiple_point_degree`."""
    require_ints("c_correction_p2", 1, 4, n=n)
    return c_correction(n).specialize_p2()


def multiple_point_degree(r, d):
    """Number of r-fold points of the projection of the critical locus over
    the system of plane degree-d curves, via the Bell combination of the
    equivalence and correction terms."""
    require_ints("multiple_point_degree", 1, 4, r=r)
    require_ints("multiple_point_degree", 1, d=d)
    args = []
    for i in range(1, r + 1):
        qi = q_p2_closed(i)(d)
        ci = c_correction_p2(i)(d)
        args.append((-1) ** (i - 1) * math.factorial(i - 1) * (qi + ci))
    value = complete_bell_sequence(args)[r]
    if value.denominator != 1:
        raise AssertionError(f"multiple point degree is not integral: {value}")
    return value.numerator


def excess_a1a2_p2():
    """`excess_a1a2()` on (P^2, O(d)), a polynomial in d."""
    return excess_a1a2().specialize_p2()
