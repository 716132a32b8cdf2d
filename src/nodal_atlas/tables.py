"""The table of universal linear forms a_i, node counts and node polynomials,
plane Severi degrees, the ratio table, and the decomposition checks tying the
table to the equivalence/correction terms and the Thom polynomials.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from . import chow, kazarian
from .bell import SparsePoly, eval_complete_bell
from .partitions import enumerate_partitions

MAX_I = 15


@dataclass(frozen=True)
class ChernNumbers:
    """The four intersection numbers of a polarized surface:
    d = L^2, k = L.K, s = K^2, x = c_2(S)."""

    d: int
    k: int
    s: int
    x: int

    @classmethod
    def p2(cls, degree):
        """(P^2, O(degree)): (degree^2, -3 degree, 9, 3)."""
        return cls(degree * degree, -3 * degree, 9, 3)

    def as_tuple(self):
        return (self.d, self.k, self.s, self.x)


@dataclass(frozen=True)
class NodeLinearForm:
    """Row i of the coefficient table: a_i = (-1)^{i-1} (i-1)! (D d + E k + F s + G x)."""

    i: int
    D: int
    E: int
    F: int
    G: int

    def sign_factorial(self):
        return (-1) ** (self.i - 1) * math.factorial(self.i - 1)

    def evaluate(self, chern):
        base = self.D * chern.d + self.E * chern.k + self.F * chern.s + self.G * chern.x
        return self.sign_factorial() * base

    def linear_form(self):
        """a_i as a chow.LinearForm (sign and factorial folded in)."""
        sf = self.sign_factorial()
        return chow.LinearForm(sf * self.D, sf * self.E, sf * self.F, sf * self.G)

    def p2_poly(self):
        """a_i specialized to (P^2, O(d)) as a polynomial in d."""
        return self.linear_form().specialize_p2()


def _data_dir():
    override = os.environ.get("NODAL_ATLAS_DATA")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


@lru_cache(maxsize=None)
def _rows():
    with open(_data_dir() / "a_forms.json") as f:
        raw = json.load(f)
    rows = {}
    for row in raw:
        i = int(row["i"])
        rows[i] = {
            "form": NodeLinearForm(
                i, int(row["D"]), int(row["E"]), int(row["F"]), int(row["G"])
            ),
            "a": tuple(int(c) for c in row["a"]),
            "a_tilde": tuple(int(c) for c in row["a_tilde"]),
        }
    return rows


def a_form(i):
    if i < 1:
        raise ValueError(f"a_form: index must be >= 1, got {i}")
    if i > MAX_I:
        raise ValueError(f"a_form: table exhausted at i={MAX_I}, got {i}")
    return _rows()[i]["form"]


def all_forms():
    return [a_form(i) for i in range(1, MAX_I + 1)]


def a_raw(i):
    """The published coefficients of a_i, as stored."""
    return _rows()[i]["a"]


def a_tilde_raw(i):
    """The published coefficients of a_i/(i-1)!, as stored (including the
    known sign typo in the x-cell of row 14)."""
    return _rows()[i]["a_tilde"]


def tilde_consistency(i):
    """Compare the stored tilde row against a_i/(i-1)! cell by cell.

    Returns a list of per-cell booleans in the order (d, k, s, x).  All cells
    agree except the x-cell of row 14, whose printed sign is inconsistent;
    the a_i row is authoritative there.
    """
    form = a_form(i)
    sf = (-1) ** (i - 1)
    derived = (sf * form.D, sf * form.E, sf * form.F, sf * form.G)
    return [a == b for a, b in zip(derived, a_tilde_raw(i))]


TILDE_EXEMPT_CELLS = {(14, 3)}  # (row, column index of x): documented sign typo


def node_count(r, chern):
    """Number of r-nodal curves in the system through the expected number of
    general points: the r-th complete Bell polynomial in a_1..a_r over r!.

    The division must be exact; a remainder signals corrupted table data.
    """
    if r < 0 or r > MAX_I:
        raise ValueError(f"node_count: r must be in 0..{MAX_I}, got {r}")
    if r == 0:
        return 1
    values = [a_form(i).evaluate(chern) for i in range(1, r + 1)]
    total = eval_complete_bell(r, values)
    quotient = total / math.factorial(r)
    if quotient.denominator != 1:
        raise ArithmeticError(
            f"node count is not integral at r={r}, chern={chern}: {quotient}"
        )
    return quotient.numerator


def node_count_bruteforce(r, chern):
    """Independent oracle: sum over all set partitions of [r] of the product
    of a_{block size}, divided by r!.  Feasible for small r only."""
    if r == 0:
        return 1
    values = [a_form(i).evaluate(chern) for i in range(1, r + 1)]
    total = 0
    for pi in enumerate_partitions(r):
        prod = 1
        for block in pi.blocks:
            prod *= values[len(block) - 1]
        total += prod
    quotient = Fraction(total, math.factorial(r))
    if quotient.denominator != 1:
        raise ArithmeticError(f"brute-force node count is not integral: {quotient}")
    return quotient.numerator


def node_polynomial(r):
    """The universal degree-r polynomial in (d, k, s, x) counting r-nodal
    curves, Y_r(a_1, ..., a_r)/r!, expanded symbolically.

    Y_r comes from the complete Bell recurrence
    Y_n = sum_{k=1}^{n} C(n-1, k-1) a_k Y_{n-k}, Y_0 = 1, over integer
    coefficients: multiplying by the linear form a_k shifts exponents in the
    four variables.  The only division is the exact one by r! at the end.
    """
    if not 1 <= r <= MAX_I:
        raise ValueError(f"node_polynomial: r must be in 1..{MAX_I}, got {r}")
    ys = [{(0, 0, 0, 0): 1}]
    for n in range(1, r + 1):
        y = {}
        for k in range(1, n + 1):
            form = a_form(k)
            weight = math.comb(n - 1, k - 1) * form.sign_factorial()
            for axis, coeff in enumerate((form.D, form.E, form.F, form.G)):
                if not coeff:
                    continue
                c = weight * coeff
                for expo, v in ys[n - k].items():
                    shifted = expo[:axis] + (expo[axis] + 1,) + expo[axis + 1 :]
                    y[shifted] = y.get(shifted, 0) + c * v
        ys.append(y)
    r_factorial = math.factorial(r)
    return SparsePoly(4, {e: Fraction(c, r_factorial) for e, c in ys[r].items()})


def severi_degree_p2(d, r):
    """Count of r-nodal plane curves of degree d through the expected number
    of points.  Virtual (warned, not refused) outside the validity range
    r <= 2d - 2."""
    if d < 1:
        raise ValueError(f"severi_degree_p2: degree must be >= 1, got {d}")
    if r > 2 * d - 2:
        warnings.warn(
            f"r={r} exceeds the enumerative validity threshold 2d-2={2 * d - 2} "
            f"for degree {d}; the value is virtual",
            stacklevel=2,
        )
    return node_count(r, ChernNumbers.p2(d))


UNDEFINED_RATIO = "---"


def _render_ratio(value):
    # round |value| half-up to 2 decimals, rendered with exactly 2 decimals
    hundredths = (abs(value) * 100 + Fraction(1, 2)).__floor__()
    return f"{hundredths // 100}.{hundredths % 100:02d}"


@dataclass(frozen=True)
class RatioRow:
    n: int
    D: Fraction | None
    E: Fraction | None
    F: Fraction | None
    G: Fraction | None

    def rendered(self):
        """Magnitudes to two decimals; the published table prints |ratio|."""
        return {
            col: (UNDEFINED_RATIO if v is None else _render_ratio(v))
            for col, v in (("D", self.D), ("E", self.E), ("F", self.F), ("G", self.G))
        }


def ratio_table():
    """Consecutive-row ratios of the table columns, n = 1..14.

    Exact signed rationals; a zero denominator (F_1 = 0) yields None."""
    rows = []
    for n in range(1, MAX_I):
        lo, hi = a_form(n), a_form(n + 1)
        vals = []
        for col in ("D", "E", "F", "G"):
            a, b = getattr(lo, col), getattr(hi, col)
            vals.append(None if a == 0 else Fraction(b, a))
        rows.append(RatioRow(n, *vals))
    return rows


@dataclass(frozen=True)
class DecompositionReport:
    i: int
    left: object
    right: object

    @property
    def ok(self):
        return self.left == self.right


def a_decomposition_check(i):
    """Check a_i against the sum of the diagonal equivalence/correction terms
    and the Thom-polynomial contributions of higher singularities.

    i = 2 is exact in all four Chern numbers; i = 3, 4 are checked as
    polynomials in d on the projective plane (where the correction terms are
    available).  The two sides come from independent data.
    """
    if i == 2:
        left = a_form(2).linear_form() * -1  # -a_2 = 42d + 39k + 6s + 7x
        right = chow.q_general(2) + kazarian.s_alpha("A2") * 2
        return DecompositionReport(i, left, right)
    if i == 3:
        left = a_form(3).p2_poly()
        q3 = chow.q_p2_extraction(3)
        c3 = chow.c_correction_p2(3)
        s_a1a2 = kazarian.s_alpha("A1*A2").specialize_p2()
        s_a3 = kazarian.s_alpha("A3").specialize_p2()
        right = (q3 + c3) * 2 - (s_a1a2 + s_a3) * 6
        return DecompositionReport(i, left, right)
    if i == 4:
        left = a_form(4).p2_poly()
        q4 = chow.q_p2_extraction(4)
        c4 = chow.c_correction_p2(4)
        half = Fraction(1, 2)
        s_sum = (
            kazarian.s_alpha("A1*A3").specialize_p2()
            + kazarian.s_alpha("A1^2*A2").specialize_p2() * half
            + kazarian.s_alpha("A2^2").specialize_p2() * half
            + kazarian.s_alpha("A4").specialize_p2()
            + kazarian.s_alpha("D4").specialize_p2()
        )
        right = (q4 + c4) * -6 - s_sum * 24
        return DecompositionReport(i, left, right)
    raise ValueError(f"a_decomposition_check: i must be in 2..4, got {i}")
