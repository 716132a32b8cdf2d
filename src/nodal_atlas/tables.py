"""The table of universal linear forms a_i, node counts and node polynomials,
plane Severi degrees, the ratio table, and the decomposition checks tying the
table to the equivalence/correction terms and the Thom polynomials.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import assets, chow, kazarian
from .exact import SparsePoly
from .partitions import iter_partitions

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

    def linear_value(self, chern):
        """L_i = D d + E k + F s + G x, the row without its sign and factorial."""
        return self.D * chern.d + self.E * chern.k + self.F * chern.s + self.G * chern.x

    def evaluate(self, chern):
        return self.sign_factorial() * self.linear_value(chern)

    def linear_form(self):
        """a_i as a chow.LinearForm (sign and factorial folded in)."""
        sf = self.sign_factorial()
        return chow.LinearForm(sf * self.D, sf * self.E, sf * self.F, sf * self.G)

    def p2_poly(self):
        """a_i specialized to (P^2, O(d)) as a polynomial in d."""
        return self.linear_form().specialize_p2()


def _parse_row(position, row):
    """One row of a_forms.json; it must be row `position` of the run 1..MAX_I
    and its signed row `a` must equal (-1)^{i-1} (i-1)! (D, E, F, G).  The
    reduced row `a_tilde` is not checked: row 14 prints one x-cell with the
    wrong sign (see TILDE_EXEMPT_CELLS)."""
    i = int(row["i"])
    if i != position or i > MAX_I:
        raise ValueError(f"has i={i}; rows must run contiguously from 1 to {MAX_I}")
    form = NodeLinearForm(i, int(row["D"]), int(row["E"]), int(row["F"]), int(row["G"]))
    a = tuple(int(c) for c in row["a"])
    sf = form.sign_factorial()
    want = (sf * form.D, sf * form.E, sf * form.F, sf * form.G)
    if a != want:
        raise ValueError(f"a = {list(a)} but (-1)^(i-1) (i-1)! (D, E, F, G) = {list(want)}")
    return {"form": form, "a_tilde": tuple(int(c) for c in row["a_tilde"])}


@lru_cache(maxsize=None)
def _rows():
    """The validated table, keyed by row index; malformed data raises
    ValueError naming the file and the row."""
    keys = ("i", "D", "E", "F", "G", "a", "a_tilde")
    rows = assets.load_rows("a_forms.json", keys, _parse_row, count=MAX_I)
    return dict(enumerate(rows, start=1))


def a_form(i):
    if i < 1:
        raise ValueError(f"a_form: index must be >= 1, got {i}")
    if i > MAX_I:
        raise ValueError(f"a_form: table exhausted at i={MAX_I}, got {i}")
    return _rows()[i]["form"]


def all_forms():
    return [a_form(i) for i in range(1, MAX_I + 1)]


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
    general points: N_r = Y_r(a_1, ..., a_r)/r!, the complete Bell polynomial
    in a_1..a_r over r!.

    With a_i = (-1)^{i-1} (i-1)! L_i, the generating function of the N_r is
    exp(sum_i (-1)^{i-1} L_i t^i / i), so Newton's identity
    m N_m = sum_{i=1}^{m} (-1)^{i-1} L_i N_{m-i}, N_0 = 1, gives them in one
    pass, each step one exact division by m.  Off the adjunction/Noether
    lattice a step may not divide; the pass then goes on in Fractions, and a
    non-integral N_r, which signals corrupted table data or numbers that are
    no surface's, raises ArithmeticError.
    """
    if r < 0 or r > MAX_I:
        raise ValueError(f"node_count: r must be in 0..{MAX_I}, got {r}")
    rows = _rows()
    signed = [(-1) ** (i - 1) * rows[i]["form"].linear_value(chern) for i in range(1, r + 1)]
    counts = [1]
    for m in range(1, r + 1):
        total = sum(map(operator.mul, signed, reversed(counts)))
        # divmod of a Fraction total also gives an int quotient, so N_m is an
        # int whenever it is integral and a Fraction only when it is not
        quotient, remainder = divmod(total, m)
        counts.append(Fraction(total, m) if remainder else quotient)
    if isinstance(counts[r], Fraction):
        raise ArithmeticError(f"node count is not integral at r={r}, chern={chern}: {counts[r]}")
    return counts[r]


def node_count_bruteforce(r, chern):
    """Independent oracle: sum over all set partitions of [r] of the product
    of a_{block size}, divided by r!.  Feasible for small r only."""
    if r == 0:
        return 1
    values = [a_form(i).evaluate(chern) for i in range(1, r + 1)]
    total = 0
    for pi in iter_partitions(r):
        prod = 1
        for block in pi.blocks:
            prod *= values[len(block) - 1]
        total += prod
    quotient = Fraction(total, math.factorial(r))
    if quotient.denominator != 1:
        raise ArithmeticError(f"brute-force node count is not integral: {quotient}")
    return quotient.numerator


# Y_n packs an exponent (e_d, e_k, e_s, e_x) into one int, a little-endian
# byte per variable: multiplying by a variable adds its byte's unit.  No
# exponent of Y_n exceeds n <= MAX_I, which must stay below 256.
_UNITS = (1, 1 << 8, 1 << 16, 1 << 24)


def _unpack(key):
    return tuple(key.to_bytes(4, "little"))


def _bell_ys():
    """[Y_0, ..., Y_MAX_I] with Y_n(a_1, ..., a_n) as {packed exponent: int},
    from the complete Bell recurrence
    Y_n = sum_{k=1}^{n} C(n-1, k-1) a_k Y_{n-k}, Y_0 = 1.

    Multiplying by one variable of the linear form a_k adds its unit to the
    packed key.
    """
    ys = [{0: 1}]
    for n in range(1, MAX_I + 1):
        y = {}
        for k in range(1, n + 1):
            form = a_form(k)
            weight = math.comb(n - 1, k - 1) * form.sign_factorial()
            prev = ys[n - k]
            for unit, coeff in zip(_UNITS, (form.D, form.E, form.F, form.G)):
                if not coeff:
                    continue
                c = weight * coeff
                for key, v in prev.items():
                    key += unit
                    y[key] = y.get(key, 0) + c * v
        ys.append(y)
    return ys


@lru_cache(maxsize=None)
def _node_terms():
    """Index r in 1..MAX_I: the terms of Y_r/r! as {exponent tuple: Fraction}.

    The whole table is built in one pass on first use, from the a_i as
    `_rows` first loaded them, so every later node polynomial costs one dict
    copy, whichever r comes first.  Callers must not mutate it.
    """
    terms = [None]
    for r, y in enumerate(_bell_ys()[1:], start=1):
        r_factorial = math.factorial(r)
        terms.append({_unpack(key): Fraction(c, r_factorial) for key, c in y.items()})
    return tuple(terms)


def node_polynomial(r):
    """The universal degree-r polynomial in (d, k, s, x) counting r-nodal
    curves, Y_r(a_1, ..., a_r)/r!, expanded symbolically.

    Y_r comes from the integer complete Bell recurrence of `_bell_ys`, run
    once per process for every r <= MAX_I on packed exponents.  The only
    division is the exact one by r!; the result is a fresh SparsePoly over a
    copy of the cached terms, so no caller can alter them.
    """
    if not 1 <= r <= MAX_I:
        raise ValueError(f"node_polynomial: r must be in 1..{MAX_I}, got {r}")
    return SparsePoly(4)._new(dict(_node_terms()[r]))


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
