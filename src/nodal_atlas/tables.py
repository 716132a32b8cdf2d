"""The table of universal linear forms a_i, node counts and node polynomials,
plane Severi degrees and the ratio table.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import assets, chow
from .chow import ChernNumbers
from .exact import SparsePoly, require_ints
from .partitions import MAX_R, iter_partitions

MAX_I = 15


class NodeLinearForm(namedtuple("NodeLinearForm", "i D E F G")):
    """Row i of the coefficient table: a_i = (-1)^{i-1} (i-1)! (D d + E k + F s + G x)."""

    __slots__ = ()

    def sign_factorial(self):
        return (-1) ** (self.i - 1) * math.factorial(self.i - 1)

    def _value(self, chern):
        """L_i = D d + E k + F s + G x, the row without its sign and factorial,
        unchecked for node_counts' rows; unpacking beats field reads."""
        _, D, E, F, G = self
        d, k, s, x = chern
        return D * d + E * k + F * s + G * x

    def evaluate(self, chern):
        """a_i at chern, which is read through ChernNumbers."""
        return self.sign_factorial() * self._value(ChernNumbers._make(chern))

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
    reduced row `a_tilde` needs four cells, not checked against it: row 14
    prints one x-cell with the wrong sign (see TILDE_EXEMPT_CELLS)."""
    i = assets.integer(row["i"])
    if i != position or i > MAX_I:
        raise ValueError(f"has i={i}; rows must run contiguously from 1 to {MAX_I}")
    form = NodeLinearForm(i, *(assets.integer(row[c]) for c in "DEFG"))
    a = tuple(map(assets.integer, row["a"]))
    want = form.signed()
    if a != want:
        raise ValueError(f"a = {list(a)} but (-1)^(i-1) (i-1)! (D, E, F, G) = {list(want)}")
    a_tilde = tuple(map(assets.integer, row["a_tilde"]))
    if len(a_tilde) != 4:
        raise ValueError(f"a_tilde has {len(a_tilde)} cells; it needs four, (d, k, s, x)")
    return {"form": form, "a_tilde": a_tilde}


@lru_cache(maxsize=None)
def _rows():
    """The validated table, keyed by row index; malformed data raises
    ValueError naming the file and the row."""
    keys = ("i", "D", "E", "F", "G", "a", "a_tilde")
    rows = assets.load_rows("a_forms.json", keys, _parse_row, count=MAX_I)
    return dict(enumerate(rows, start=1))


def a_form(i):
    require_ints("a_form", 1, MAX_I, i=i)
    return _rows()[i]["form"]


def all_forms():
    return [row["form"] for row in _rows().values()]


def tilde_consistency(i):
    """Compare the stored tilde row against a_i/(i-1)! cell by cell.

    Returns a list of per-cell booleans in the order (d, k, s, x).  All cells
    agree except the x-cell of row 14, whose printed sign is inconsistent;
    the a_i row is authoritative there.
    """
    require_ints("tilde_consistency", 1, MAX_I, i=i)
    derived = (c // math.factorial(i - 1) for c in a_form(i).signed())
    return [a == b for a, b in zip(derived, _rows()[i]["a_tilde"])]


TILDE_EXEMPT_CELLS = {(14, 3)}  # (row, column index of x): documented sign typo


def node_counts(r, chern):
    """[N_0, ..., N_r], N_m = Y_m(a_1, ..., a_m)/m! the number of m-nodal
    curves in the system through the expected number of general points.

    With a_i = (-1)^{i-1} (i-1)! L_i, the generating function of the N_m is
    exp(sum_i (-1)^{i-1} L_i t^i / i), so Newton's identity
    m N_m = sum_{i=1}^{m} (-1)^{i-1} L_i N_{m-i}, N_0 = 1, gives them in one
    pass, each step one exact division by m.  Off the adjunction/Noether
    lattice a step may not divide: the pass goes on in Fractions, and N_m is a
    Fraction exactly where it is not integral, which signals corrupted table
    data or numbers that are no surface's.  chern is read through ChernNumbers.
    """
    require_ints("node_counts", 0, MAX_I, r=r)
    chern = ChernNumbers._make(chern)
    rows = _rows()
    signed = [(-1) ** (i - 1) * rows[i]["form"]._value(chern) for i in range(1, r + 1)]
    counts = [1]
    for m in range(1, r + 1):
        total = sum(map(operator.mul, signed, reversed(counts)))
        # divmod of a Fraction total also gives an int quotient, so N_m is an
        # int whenever it is integral and a Fraction only when it is not
        quotient, remainder = divmod(total, m)
        counts.append(Fraction(total, m) if remainder else quotient)
    return counts


def node_count(r, chern):
    """N_r, the last of `node_counts`; ArithmeticError where it is not integral."""
    count = node_counts(r, chern)[-1]
    if isinstance(count, Fraction):
        chern = ChernNumbers._make(chern)
        raise ArithmeticError(f"node count is not integral at r={r}, chern={chern}: {count}")
    return count


def node_count_bruteforce(r, chern):
    """Independent oracle: Y_r(a_1, ..., a_r)/r! as its definition reads,
    the sum over the set partitions of [r] of the product of a_{block size}.

    Every partition of [r] is one of [r-2] with r-1 and r each joined to one
    of its m blocks or set apart, so the walk is over the B_{r-2} partitions
    of [r-2], each adding the terms of all its extensions in one pass over
    its blocks.  Reading a block of size s, with v = a_s, w = a_{s+1} and
    z = a_{s+2}, four running sums over the blocks read so far update:

        two  <- two * v + one * w     (two blocks grown by one element each)
        both <- both * v + kept * z   (one block grown by both elements)
        one  <- one * v + kept * w    (one block grown by one element)
        kept <- kept * v              (no block grown)

    and the prefix adds 2 two + both + 2 a_1 one + (a_2 + a_1^2) kept: r-1
    and r in two blocks either way round, in one block, one of them in a
    block and the other apart, and both apart, together or not.  There is
    no division, since an a_i may be zero.  r runs over 0..MAX_R.
    """
    require_ints("node_count_bruteforce", 0, MAX_R, r=r)
    chern = ChernNumbers._make(chern)
    if r == 0:
        return 1
    values = [a_form(i).evaluate(chern) for i in range(1, r + 1)]
    a_1 = values[0]
    if r == 1:
        return a_1
    apart = values[1] + a_1 * a_1  # r-1 and r outside the prefix's blocks
    # (a_s, a_{s+1}, a_{s+2}) by block size s; a prefix block has s <= r-2
    steps = [None, *zip(values, values[1:], values[2:])]
    # r = 2 has the single empty prefix, and nothing to enumerate
    prefixes = (pi.blocks for pi in iter_partitions(r - 2)) if r > 2 else [()]
    total = 0
    for blocks in prefixes:
        kept, one, both, two = 1, 0, 0, 0
        for block in blocks:
            v, w, z = steps[len(block)]
            two = two * v + one * w
            both = both * v + kept * z
            one = one * v + kept * w
            kept *= v
        total += 2 * (two + a_1 * one) + both + apart * kept
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
    for channel, unit in enumerate(_UNITS):
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
def _node_polynomials():
    """Index r in 1..MAX_I: Y_r/r! as a SparsePoly over {exponent tuple: Fraction}.

    The whole table is built in one pass on first use, from the a_i as
    `_rows` first loaded them, so every later node polynomial is a lookup,
    whichever r comes first.  Each distinct packed key is unpacked once,
    and the node polynomials share its tuple.
    """
    ys = _bell_ys()
    exponents = {key: _unpack(key) for key in set().union(*ys)}
    polys = [None]
    for r in range(1, MAX_I + 1):
        r_factorial = math.factorial(r)
        terms = {exponents[key]: Fraction(c, r_factorial) for key, c in ys[r].items()}
        polys.append(SparsePoly(4)._new(terms))
    return tuple(polys)


def node_polynomial(r):
    """The universal degree-r polynomial in (d, k, s, x) counting r-nodal
    curves, Y_r(a_1, ..., a_r)/r!, expanded symbolically.

    Y_r comes from `_bell_ys`, the binomial convolution of one integer Bell
    table per Chern number, run once per process for every r <= MAX_I on
    packed exponents.  The only division is the exact one by r!; the result
    is the cached, immutable SparsePoly itself, one object per r.
    """
    require_ints("node_polynomial", 1, MAX_I, r=r)
    return _node_polynomials()[r]


def severi_degree_p2(d, r):
    """Count of r-nodal plane curves of degree d through the expected number
    of points.  Virtual (warned, not refused) outside the validity range
    r <= 2d - 2."""
    require_ints("severi_degree_p2", 1, d=d)
    require_ints("severi_degree_p2", 0, MAX_I, r=r)
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
