"""Truncated q-power series over exact rationals, the quasi-modular inputs
of the generating-function identity, and the recovery of the two unknown
series from the table of linear forms.

Channel decomposition.  Write t = D G_2.  Taking the logarithm of the
generating identity

    sum_r Z_r(d,k,s,x) t^r =
        (D G_2/q)^{chi(L)} B_1(q)^s B_2(q)^k / (Delta D^2 G_2 / q^2)^{chi(O)/2}

and using Z_r = P_r(a_1,...,a_r)/r! together with the Bell formal identity
turns the left side into sum_l a_l t^l / l!.  With
chi(L) = (d - k)/2 + chi(O) and chi(O) = (s + x)/12 (Riemann-Roch and
Noether, used silently by the identity), matching the coefficient of each
Chern number gives one scalar series identity per channel:

    d:  sum_l (-1)^{l-1} D_l t^l / l  =  1/2 log(D G_2/q)
    k:  sum_l (-1)^{l-1} E_l t^l / l  =  -1/2 log(D G_2/q) + log B_2
    s:  sum_l (-1)^{l-1} F_l t^l / l  =
            1/12 log(D G_2/q) - 1/24 log(Delta D^2 G_2/q^2) + log B_1
    x:  sum_l (-1)^{l-1} G_l t^l / l  =
            1/12 log(D G_2/q) - 1/24 log(Delta D^2 G_2/q^2)

The d and x channels involve only known quasi-modular data, so their
residuals vanishing is a genuine consistency check of the coefficient
table.  The k channel defines log B_2, so its residual is zero by
construction and is returned as the zero series.  The s channel defines
log B_1 through the combination F_l - G_l, and the channel sum is linear,
so its residual is the x-channel residual, and is computed as that one.

Delta, D G_2 and its powers have integer coefficients, so they are built as
integer tuples: Delta by Jacobi's identity, D G_2 by one uncached helper.
The powers of D G_2 and the two logarithms are built once per process, and
every series read from the coefficient table once per table value, in one
bounded cache, at the table extent 15: order T reads its first T + 1
coefficients, which truncation leaves exact.  The second route to log B_1
shares none of that: it is Horner's rule in t, on integer numerators over
lcm(1..T).  Results are PowerSeries built fresh on every call, so no caller
can alter a cached value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .bell import complete_bell_sequence
from .exact import _as_fraction, format_rational, require_ints
from .tables import MAX_I  # the coefficient table supplies rows 1..MAX_I

CHANNELS = ("d", "k", "s", "x")
# Largest order of eisenstein_g2 and discriminant.  Delta's three squarings
# cost order^2: 0.4 s at 2000 on one core of a 2-core machine (Python 3.11).
MAX_ORDER = 2000
# the one denominator of every channel series, at every order
_DENOMINATOR = 24 * math.lcm(*range(1, MAX_I + 1))


class PowerSeries:
    """q-series c_0 + c_1 q + ... + c_T q^T with exact rational coefficients:
    what the module's functions return, with no arithmetic of its own.
    Equality truncates to the smaller order of the two operands."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=None):
        cs = list(map(_as_fraction, coeffs))
        if order is None:
            order = len(cs) - 1
        require_ints("PowerSeries", 0, order=order)
        cs = cs[: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.coeffs = cs
        self.order = order

    def __getitem__(self, n):
        if n < 0:
            return Fraction(0)
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        t = min(self.order, other.order)
        return self.coeffs[: t + 1] == other.coeffs[: t + 1]

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def to_list(self):
        return [format_rational(c) for c in self.coeffs]

    def __repr__(self):
        shown = ", ".join(self.to_list()[: min(8, self.order + 1)])
        return f"PowerSeries([{shown}, ...] order={self.order})"


def series_exp(s):
    """exp of a series with zero constant term.

    exp(sum_k c_k q^k) = sum_n Y_n(1! c_1, ..., n! c_n) q^n / n!, and Y_n is
    homogeneous of weight n.  With the coefficients over one common
    denominator D, c_k = p_k / D, it is evaluated at the integers
    k! p_k D^{k-1}, so the only divisions are E_n = Y_n / (n! D^n).
    """
    if s[0] != 0:
        raise ValueError("series_exp requires constant term 0")
    den = math.lcm(*(c.denominator for c in s.coeffs))
    ys = complete_bell_sequence([
        math.factorial(k) * c.numerator * (den // c.denominator) * den ** (k - 1)
        for k, c in enumerate(s.coeffs[1:], start=1)
    ])
    return PowerSeries([Fraction(y, math.factorial(n) * den**n) for n, y in enumerate(ys)])


def series_log(s):
    """log of a series with constant term 1, given as a PowerSeries or as a
    sequence of coefficients.

    The scaled coefficients m_n = n L_n obey m_n = n u_n - sum_{0<k<n} m_k u_{n-k},
    which divides nowhere: integer input stays integral until L_n = m_n / n.
    """
    u = s.coeffs if isinstance(s, PowerSeries) else s
    if u[0] != 1:
        raise ValueError("series_log requires constant term 1")
    t = len(u) - 1
    m = [0] * (t + 1)
    for n in range(1, t + 1):
        m[n] = n * u[n] - sum(m[k] * u[n - k] for k in range(1, n))
    return PowerSeries([0] + [Fraction(m[n], n) for n in range(1, t + 1)], t)


def _mul(a, b, order):
    """Product of two integer coefficient sequences through q^order."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return tuple(out)


def _sigmas(order):
    """[0, sigma(1), ..., sigma(order)], the divisor sums by one sieve:
    each d adds itself to its multiples, O(order log order) steps."""
    sigma = [0] * (order + 1)
    for d in range(1, order + 1):
        for m in range(d, order + 1, d):
            sigma[m] += d
    return sigma


def eisenstein_g2(order):
    """-1/24 + sum sigma(n) q^n."""
    require_ints("eisenstein_g2", 0, MAX_ORDER, order=order)
    return PowerSeries([Fraction(-1, 24)] + _sigmas(order)[1:], order)


def _delta_over_q(order):
    """prod_{m>0} (1 - q^m)^24 through q^order, as integers.

    Jacobi's identity prod (1 - q^m)^3 = sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2}
    makes it the eighth power of a sparse series: three squarings.
    """
    p = [0] * (order + 1)
    n = 0
    while n * (n + 1) // 2 <= order:
        p[n * (n + 1) // 2] = (-1) ** n * (2 * n + 1)
        n += 1
    for _ in range(3):
        p = _mul(p, p, order)
    return p


def discriminant(order):
    """Delta = q * prod_{m>0} (1 - q^m)^24, truncated."""
    require_ints("discriminant", 0, MAX_ORDER, order=order)
    return PowerSeries((0,) + _delta_over_q(order - 1), order)


def _dg2(order):
    """t = D G_2 = sum n sigma(n) q^n through q^order, as integers."""
    return tuple(n * sigma for n, sigma in enumerate(_sigmas(order)))


@lru_cache(maxsize=1)
def _inputs():
    """(t, t^2, ..., t^15) for t = D G_2, and lcm(1..15) times log(D G_2/q)
    and log(Delta D^2 G_2/q^2), as integer tuples through q^15.  The log
    inputs are integral, so each L_n = m_n / n of series_log divides by n."""
    t = _dg2(MAX_I)
    powers = [t]
    for _ in range(1, MAX_I):
        powers.append(_mul(powers[-1], t, MAX_I))
    dg2_over_q = _dg2(MAX_I + 1)[1:]
    d2g2_over_q = [(n + 1) * c for n, c in enumerate(dg2_over_q)]
    disc_d2g2_over_q2 = _mul(_delta_over_q(MAX_I), d2g2_over_q, MAX_I)
    log_dg2, log_disc = (
        tuple(int(_DENOMINATOR // 24 * c) for c in series_log(u).coeffs)
        for u in (dg2_over_q, disc_d2g2_over_q2)
    )
    return tuple(powers), log_dg2, log_disc


def _check_table(caller, order, forms):
    require_ints(caller, 0, min(MAX_I, len(forms)), order=order)


# name: (column, multiples over 24 of log(D G_2/q) and log(Delta D^2 G_2/q^2))
_CHANNEL_SERIES = {"d": (lambda f: f.D, -12, 0), "x": (lambda f: f.G, -2, 1),
                   "log_b1": (lambda f: f.F - f.G, 0, 0), "log_b2": (lambda f: f.E, 12, 0)}


@lru_cache(maxsize=4)  # the last four tables
def _table_series(rows):
    """Every series read from the table `rows` through q^len(rows), as tuples of
    Fractions, once per value: each of _CHANNEL_SERIES, with column sum
    sum_{l>=1} (-1)^{l-1} column[l-1] (D G_2)^l / l, and B_1 and B_2."""
    powers, log_dg2, log_disc = _inputs()
    series = {}
    for name, (cell, dg2, disc) in _CHANNEL_SERIES.items():
        weights = [(-1) ** l * cell(f) * (_DENOMINATOR // (l + 1)) for l, f in enumerate(rows)]
        series[name] = tuple(Fraction(sum(weights[l] * powers[l][n] for l in range(n))
                                      + dg2 * log_dg2[n] + disc * log_disc[n], _DENOMINATOR)
                             for n in range(len(rows) + 1))
    series["b1"], series["b2"] = (tuple(series_exp(PowerSeries(series[log])).coeffs)
                                  for log in ("log_b1", "log_b2"))
    return series


def _read(name, order, forms):
    """Series `name` of the table `forms` through q^order, as a fresh
    PowerSeries; the caller has checked order and forms."""
    return PowerSeries(_table_series(tuple(forms[:MAX_I]))[name][: order + 1], order)


def recover_log_b1(order, forms):
    """log B_1 through q^order: c_n = sum_r y_r(n) (-1)^{r-1} (F_r - G_r)/r,
    with y_r(n) the q^n coefficient of (D G_2)^r."""
    _check_table("recover_log_b1", order, forms)
    return _read("log_b1", order, forms)


def recover_log_b1_direct(order, forms):
    """Same series by Horner's rule in t = D G_2 on the integer numerators
    lcm(1..order) (-1)^{l-1} (F_l - G_l) / l of its t^l coefficients; an
    independent code path that reads none of recover_log_b1's caches."""
    _check_table("recover_log_b1_direct", order, forms)
    t = _dg2(order)
    den = math.lcm(*range(1, order + 1))
    acc = (0,) * (order + 1)
    for l in range(order, 0, -1):
        w = (-1) ** (l - 1) * (forms[l - 1].F - forms[l - 1].G) * (den // l)
        acc = _mul((acc[0] + w,) + acc[1:], t, order)
    return PowerSeries([Fraction(a, den) for a in acc], order)


def recover_b1(order, forms):
    """B_1 itself: the series exponential of log B_1; b_0 = 1."""
    _check_table("recover_b1", order, forms)
    return _read("b1", order, forms)


def recover_log_b2(order, forms):
    """log B_2 through q^order: 1/2 log(D G_2/q) plus the k-channel sum."""
    _check_table("recover_log_b2", order, forms)
    return _read("log_b2", order, forms)


def recover_b2(order, forms):
    _check_table("recover_b2", order, forms)
    return _read("b2", order, forms)


def gyz_channel_residual(channel, order, forms):
    """Residual of one Chern-number channel of the log generating identity,
    summed as integer numerators over _DENOMINATOR.  The d and x
    channels check the table against the quasi-modular data; k is zero and
    s is the x residual by construction (see the module docstring)."""
    _check_table("gyz_channel_residual", order, forms)
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}; expected one of {CHANNELS}")
    if channel == "k":
        return PowerSeries([], order)
    return _read("d" if channel == "d" else "x", order, forms)
