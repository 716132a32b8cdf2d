"""The table of universal linear forms a_i, node counts and node polynomials,
plane Severi degrees, the ratio table, and the decomposition checks tying the
table to the equivalence/correction terms and the Thom polynomials.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import assets, chow, kazarian
from .exact import SparsePoly
from .partitions import MAX_R, iter_partitions

MAX_I = 15


class ChernNumbers(namedtuple("ChernNumbers", "d k s x")):
    """The four intersection numbers of a polarized surface:
    d = L^2, k = L.K, s = K^2, x = c_2(S)."""

    __slots__ = ()

    @classmethod
    def p2(cls, degree):
        """(P^2, O(degree)): (degree^2, -3 degree, 9, 3)."""
        return cls(degree * degree, -3 * degree, 9, 3)


class NodeLinearForm(namedtuple("NodeLinearForm", "i D E F G")):
    """Row i of the coefficient table: a_i = (-1)^{i-1} (i-1)! (D d + E k + F s + G x)."""

    __slots__ = ()

    def sign_factorial(self):
        return (-1) ** (self.i - 1) * math.factorial(self.i - 1)

    def linear_value(self, chern):
        """L_i = D d + E k + F s + G x, the row without its sign and factorial.
        Both records are unpacked: on the node_count path that is faster
        than namedtuple field reads."""
        _, D, E, F, G = self
        d, k, s, x = chern
        return D * d + E * k + F * s + G * x

    def evaluate(self, chern):
        return self.sign_factorial() * self.linear_value(chern)

    def signed(self):
        """The signed row (-1)^{i-1} (i-1)! (D, E, F, G): the cells of a_i."""
        sf = self.sign_factorial()
        return (sf * self.D, sf * self.E, sf * self.F, sf * self.G)

    def linear_form(self):
        """a_i as a chow.LinearForm (sign and factorial folded in)."""
        return chow.LinearForm(*self.signed())


def _parse_row(position, row):
    """One row of a_forms.json; it must be row `position` of the run 1..MAX_I
    and its signed row `a` must equal (-1)^{i-1} (i-1)! (D, E, F, G).  The
    reduced row `a_tilde` is not checked: row 14 prints one x-cell with the
    wrong sign (see TILDE_EXEMPT_CELLS)."""
    i = assets.integer(row["i"])
    if i != position or i > MAX_I:
        raise ValueError(f"has i={i}; rows must run contiguously from 1 to {MAX_I}")
    form = NodeLinearForm(i, *(assets.integer(row[c]) for c in "DEFG"))
    a = tuple(map(assets.integer, row["a"]))
    want = form.signed()
    if a != want:
        raise ValueError(f"a = {list(a)} but (-1)^(i-1) (i-1)! (D, E, F, G) = {list(want)}")
    return {"form": form, "a_tilde": tuple(map(assets.integer, row["a_tilde"]))}


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
    derived = (c // math.factorial(i - 1) for c in a_form(i).signed())
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
    """Independent oracle: Y_r(a_1, ..., a_r)/r! as its definition reads,
    the sum over the set partitions of [r] of the product of a_{block size}.

    Every partition of [r] is one of [r-1] with r joined to one of its m
    blocks or set apart as (r,), so the walk is over the B_{r-1} partitions
    of [r-1], each adding the terms of its m + 1 extensions in one pass.
    Reading the blocks in order, `kept` is the product of their a_{|B|} and
    `grown` the sum of those products with one block's factor replaced by
    a_{|B|+1}, the prefix times the suffix of each placement; there is no
    division, since an a_i may be zero.  r runs over 0..MAX_R.
    """
    if not 0 <= r <= MAX_R:
        raise ValueError(f"node_count_bruteforce: r must be in 0..{MAX_R}, got {r}")
    if r == 0:
        return 1
    values = [a_form(i).evaluate(chern) for i in range(1, r + 1)]
    a_1 = values[0]
    # r = 1 has the single empty prefix, and nothing to enumerate
    prefixes = (pi.blocks for pi in iter_partitions(r - 1)) if r > 1 else [()]
    total = 0
    for blocks in prefixes:
        kept, grown = 1, 0
        for block in blocks:
            size = len(block)
            value = values[size - 1]
            grown = grown * value + kept * values[size]
            kept *= value
        total += grown + a_1 * kept
    quotient = Fraction(total, math.factorial(r))
    if quotient.denominator != 1:
        raise ArithmeticError(f"brute-force node count is not integral: {quotient}")
    return quotient.numerator


# Y_n packs an exponent (e_d, e_k, e_s, e_x) into one int, a little-endian
# byte per variable: multiplying by a variable adds its byte's unit.  No
# exponent of Y_n exceeds n <= MAX_I, which must stay below 256.
_UNITS = (1, 1 << 8, 1 << 16, 1 << 24)

# Channels (0, 1, 2, 3) = (d, k, s, x) join Y_n in this order.  Every order
# does 32-34 thousand updates and times within a few percent; joining s
# early keeps its table, half as dense since F_1 = 0, out of the largest stage.
_MERGE_ORDER = (3, 2, 1, 0)


def _unpack(key):
    return tuple(key.to_bytes(4, "little"))


def _channel_table(weights):
    """[P_0, ..., P_MAX_I] as coefficient lists in z, where
    P_n(z) = Y_n(w_1 z, ..., w_n z) = sum_j B_{n,j}(w_1, ..., w_n) z^j,
    from the complete Bell recurrence in one variable:
    P_n = z sum_{k=1}^{n} C(n-1, k-1) w_k P_{n-k}, P_0 = 1."""
    ps = [[1]]
    for n in range(1, MAX_I + 1):
        p = [0] * (n + 1)
        for k in range(1, n + 1):
            c = math.comb(n - 1, k - 1) * weights[k - 1]
            if c:
                for j, v in enumerate(ps[n - k]):
                    p[j + 1] += c * v
        ps.append(p)
    return ps


def _bell_ys():
    """[Y_0, ..., Y_MAX_I] with Y_n(a_1, ..., a_n) as {packed exponent: int}.

    a_i is the sum over the channels (d, k, s, x) of w_i z, w_i the signed
    cell (-1)^{i-1} (i-1)! D_i, E_i, F_i or G_i.  Complete Bell polynomials
    are of binomial type, Y_n(u + v) = sum_j C(n, j) Y_j(u) Y_{n-j}(v), so
    each channel's `_channel_table` joins in turn, starting from the Y_n of
    no channel (1, 0, 0, ...); its power z^e adds e units to the packed key.
    """
    forms = [_rows()[i]["form"] for i in range(1, MAX_I + 1)]
    ys = [{0: 1}] + [{}] * MAX_I
    for channel in _MERGE_ORDER:
        unit = _UNITS[channel]
        weights = [f.signed()[channel] for f in forms]
        powers = [[(e * unit, c) for e, c in enumerate(p) if c] for p in _channel_table(weights)]
        merged = []
        for n in range(MAX_I + 1):
            y = {}
            get = y.get
            for j in range(n + 1):
                binom = math.comb(n, j)
                prev = ys[j].items()
                for step, pc in powers[n - j]:
                    c = binom * pc
                    for key, v in prev:
                        key += step
                        y[key] = get(key, 0) + c * v
            merged.append(y)
        ys = merged
    return ys


@lru_cache(maxsize=None)
def _node_terms():
    """Index r in 1..MAX_I: the terms of Y_r/r! as {exponent tuple: Fraction}.

    The whole table is built in one pass on first use, from the a_i as
    `_rows` first loaded them, so every later node polynomial costs one
    read-only view, whichever r comes first.  Each distinct packed key is
    unpacked once, and the node polynomials share its tuple.
    """
    ys = _bell_ys()
    exponents = {key: _unpack(key) for key in set().union(*ys)}
    terms = [None]
    for r in range(1, MAX_I + 1):
        r_factorial = math.factorial(r)
        terms.append({exponents[key]: Fraction(c, r_factorial) for key, c in ys[r].items()})
    return tuple(terms)


def node_polynomial(r):
    """The universal degree-r polynomial in (d, k, s, x) counting r-nodal
    curves, Y_r(a_1, ..., a_r)/r!, expanded symbolically.

    Y_r comes from `_bell_ys`, the binomial convolution of one integer Bell
    table per Chern number, run once per process for every r <= MAX_I on
    packed exponents.  The only division is the exact one by r!; the result
    is a SparsePoly over the cached terms, which its read-only view guards.
    """
    if not 1 <= r <= MAX_I:
        raise ValueError(f"node_polynomial: r must be in 1..{MAX_I}, got {r}")
    return SparsePoly(4)._new(_node_terms()[r])


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


class RatioRow(namedtuple("RatioRow", "n D E F G")):
    __slots__ = ()

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


class DecompositionReport(namedtuple("DecompositionReport", "i left right")):
    __slots__ = ()

    @property
    def ok(self):
        return self.left == self.right


def a_decomposition_check(i):
    """Check a_i against the diagonal equivalence and correction terms and
    the Thom polynomials of the higher types, in all four Chern numbers:

        (-1)^{i-1} a_i = (i-1)! (Q_i + C_i) - (-1)^{i-1} i! sum_alpha S_alpha / |Aut alpha|,

    alpha over the tabulated types of codimension i other than A1^i.  The
    sides come from independent data: the coefficient table, and the chow
    layer with the Thom table.
    """
    if not 2 <= i <= 4:
        raise ValueError(f"a_decomposition_check: i must be in 2..4, got {i}")
    sign, factorial = (-1) ** (i - 1), math.factorial(i - 1)
    thom = chow.LinearForm()
    for alpha in kazarian.tabulated_types(i):
        if alpha != ("A1",) * i:
            thom += kazarian.s_alpha(alpha) * Fraction(1, kazarian.aut_order(alpha))
    left = a_form(i).linear_form() * sign
    right = (chow.q_general(i) + chow.c_correction(i)) * factorial - thom * (sign * factorial * i)
    return DecompositionReport(i, left, right)
