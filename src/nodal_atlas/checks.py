"""Self-contained consistency suite behind the `check` CLI subcommand.

Every check is an exact identity between two independently computed
quantities, or a comparison against a frozen reference table.  A failing
check means either corrupted data assets or a real inconsistency in the
published coefficient table.  One is known: the x channel of the generating
identity leaves 992/3 at q^15, a shift of -4960 in the reduced row-15 x-cell.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import chow, kazarian
from .bell import MAX_R
from .exact import PolyD, _as_fraction, require_ints
from .partitions import signature_tree
from .qseries import TABLE_ORDER, gyz_channel_residual, recover_b1, recover_log_b1, recover_log_b1_direct
from .tables import (
    MAX_I,
    ChernNumbers,
    TILDE_EXEMPT_CELLS,
    a_decomposition_check,
    a_form,
    all_forms,
    node_count_bruteforce,
    node_counts,
    ratio_table,
    severi_degree_p2,
    tilde_consistency,
)

# Reference values for the first diagonal equivalence and correction terms
# on the plane, quadratics in the curve degree (constant term first).
REFERENCE_Q_P2 = {
    1: PolyD([3, -6, 3]),
    2: PolyD([27, -45, 18]),
    3: PolyD([315, -444, 150]),
    4: PolyD([3285, -4140, 1260]),
}
REFERENCE_C_P2 = {
    1: PolyD(),
    2: PolyD(),
    3: PolyD([-72, 96, -30]),
    4: PolyD([-1158, 1425, -420]),
}

# First eight rows of the coefficient table, signed, as (d, k, s, x).
REFERENCE_A_ROWS = {
    1: (3, 2, 0, 1),
    2: (-42, -39, -6, -7),
    3: (1380, 1576, 376, 138),
    4: (-72360, -95670, -28842, -3888),
    5: (5225472, 7725168, 2723400, 84384),
    6: (-481239360, -778065120, -308078520, 7918560),
    7: (53917151040, 93895251840, 40747613760, -2465471520),
    8: (-7118400139200, -13206119880240, -6179605765200, 516524964480),
}

# Published consecutive-row ratio table, magnitudes to two decimals
# ('---' where the previous entry is zero).
REFERENCE_RATIOS = {
    1: ("14.00", "19.50", "---", "7.00"),
    2: ("16.43", "20.21", "31.33", "9.86"),
    3: ("17.48", "20.23", "25.57", "9.39"),
    4: ("18.05", "20.19", "23.61", "5.43"),
    5: ("18.42", "20.14", "22.62", "18.77"),
    6: ("18.67", "20.11", "22.04", "51.89"),
    7: ("18.86", "20.09", "21.67", "29.93"),
    8: ("19.01", "20.08", "21.40", "25.54"),
    9: ("19.12", "20.07", "21.21", "23.71"),
    10: ("19.21", "20.06", "21.06", "22.73"),
    11: ("19.29", "20.06", "20.95", "22.13"),
    12: ("19.36", "20.06", "20.85", "21.73"),
    13: ("19.41", "20.06", "20.78", "21.45"),
    14: ("19.46", "20.06", "20.72", "21.24"),
}


def complete_bell_by_signatures(r, values):
    """Oracle for bell.complete_bell_sequence: the p(r)-term sum over block-size
    signatures of count * prod x_i^{j_i}, at x_1..x_r = values[:r].  Integers
    stay integers; any other input is evaluated in Fractions."""
    require_ints("complete_bell_by_signatures", 0, MAX_R, r=r)
    if len(values) < r:
        raise ValueError(f"need {r} values, got {len(values)}")
    return _signature_sums_at(values[:r])[r]


def _signature_sums_at(values):
    """[S_0, ..., S_m], S_n the signature sum of index n at the m <= MAX_R
    values.  The sums are memoised on the values themselves, so no reload of
    the table data can make them stale; the memo holds 32 value tuples, and
    one `check` asks for 14, one per surface, so a second finds them all."""
    xs = tuple(values)
    ints = all(isinstance(v, int) for v in xs)
    return _signature_sums(xs if ints else tuple(map(_as_fraction, xs)), ints)


@lru_cache(maxsize=32)
def _signature_sums(xs, ints):
    """The sums at xs in one walk of the signature tree, each node's product
    its parent's times one x; `ints` keeps integer sums apart from the equal
    Fraction sums of integral Fractions."""
    tree = signature_tree(MAX_R)
    products = [1] * len(tree)
    sums = [1] + [0] * len(xs)  # S_0 = 1, the root's empty product
    for k, (parent, part, size, _, count) in enumerate(tree[1:], 1):
        if size <= len(xs):
            products[k] = product = products[parent] * xs[part - 1]
            sums[size] += count * product
    return tuple(sums)


def node_count_by_signatures(r, chern):
    """Oracle for tables.node_count through the signature sum; the same
    ArithmeticError on a non-integral count."""
    require_ints("node_count_by_signatures", 0, MAX_I, r=r)
    total = complete_bell_by_signatures(r, [a_form(i).evaluate(chern) for i in range(1, r + 1)])
    quotient, remainder = divmod(total, math.factorial(r))
    if remainder:
        raise ArithmeticError(f"signature-sum node count is not integral at r={r}, chern={chern}")
    return quotient


# Surfaces for the route comparison beyond the plane, as (d, k, s, x): a K3
# surface with L^2 = 4, P^1 x P^1 with O(2, 3), an Enriques surface with
# L^2 = 6, and the quintic surface in P^3 with its hyperplane class.
ORACLE_SURFACES = (
    ChernNumbers(4, 0, 0, 24),
    ChernNumbers(12, -10, 8, 4),
    ChernNumbers(6, 0, 0, 12),
    ChernNumbers(5, 5, 5, 55),
)


# A check returns (ok, detail); run_all names its line from ALL_CHECKS.
CheckResult = namedtuple("CheckResult", "name ok detail", defaults=("",))


def check_equivalence_forms():
    q1 = chow.q_general(1)
    q2 = chow.q_general(2)
    ok = q1 == chow.LinearForm(3, 2, 0, 1) and q2 == chow.LinearForm(18, 15, 2, 3)
    return ok, f"Q1={q1}, Q2={q2}"


def check_plane_equivalence_table():
    for n, want in REFERENCE_Q_P2.items():
        if chow.q_p2_closed(n) != want or chow.q_p2_extraction(n) != want:
            return False, f"Q_{n} mismatch"
    for n, want in REFERENCE_C_P2.items():
        if chow.c_correction_p2(n) != want:
            return False, f"C_{n} mismatch"
    return True, ""


def check_closed_vs_extraction():
    bad = [n for n in range(1, 9) if chow.q_p2_closed(n) != chow.q_p2_extraction(n)]
    return not bad, f"mismatches at {bad}" if bad else ""


def check_table_rows():
    for i, row in REFERENCE_A_ROWS.items():
        got = a_form(i).signed()
        if got != row:
            return False, f"row {i}: {got}"
    return True, ""


def check_tilde_rows():
    bad = []
    for i in range(1, MAX_I + 1):
        for col, ok in enumerate(tilde_consistency(i)):
            if not ok and (i, col) not in TILDE_EXEMPT_CELLS:
                bad.append((i, col))
    return not bad, f"cells {bad}" if bad else "one documented exempt cell (row 14, x)"


def check_severi():
    if severi_degree_p2(3, 1) != 12 or severi_degree_p2(4, 2) != 225:
        return False, ""
    for d in range(1, 11):
        want = 3 * (d - 1) ** 2
        if severi_degree_p2(d, 1) != want:
            return False, f"degree {d}"
        if node_count_bruteforce(1, ChernNumbers.p2(d)) != want:
            return False, f"oracle, degree {d}"
    return True, ""


def check_decompositions():
    for i in (2, 3, 4):
        rep = a_decomposition_check(i)
        if not rep.ok:
            return False, f"i={i}: {rep.left} != {rep.right}"
    excess = chow.excess_a1a2()
    lhs = kazarian.s_alpha("A1*A2")
    rhs = (excess * Fraction(1, 2) + kazarian.s_alpha("A3")) * -3
    ok = excess == chow.LinearForm(60, 64, 14, 6) and lhs == rhs
    return ok, "" if ok else f"excess={excess}"


def check_gyz_channels():
    forms = all_forms()
    parts = []
    for channel, note in (("d", ""), ("x", " (known published-table defect)")):
        res = gyz_channel_residual(channel, TABLE_ORDER, forms)
        nz = [(n, str(c)) for n, c in enumerate(res.coeffs) if c != 0]
        if nz:
            parts.append(f"{channel}-channel nonzero at {nz}{note}")
    return not parts, "; ".join(parts)


def check_b1_pipeline():
    forms = all_forms()
    a = recover_log_b1(TABLE_ORDER, forms)
    b = recover_log_b1_direct(TABLE_ORDER, forms)
    b1 = recover_b1(TABLE_ORDER, forms)
    return a == b and b1[0] == 1, ""


def check_ratio_table():
    rendered = {row.n: row.rendered() for row in ratio_table()}
    for n, cells in REFERENCE_RATIOS.items():
        got = tuple(rendered[n][c] for c in ("D", "E", "F", "G"))
        if got != cells:
            return False, f"n={n}: {got}"
    return True, ""


def check_integrality_grid():
    # one Newton pass per degree; a count that is not integral is a Fraction
    rows = {d: node_counts(MAX_I, ChernNumbers.p2(d)) for d in range(1, 11)}
    bad = [(d, r) for d, row in rows.items() for r, n in enumerate(row) if isinstance(n, Fraction)]
    return not bad, f"non-integral at (degree, nodes) {bad}" if bad else ""


def check_node_count_routes():
    surfaces = [ChernNumbers.p2(d) for d in range(1, 11)] + list(ORACLE_SURFACES)
    bad = []
    for chern in surfaces:
        sums = _signature_sums_at([a_form(i).evaluate(chern) for i in range(1, MAX_I + 1)])
        bad += [(tuple(chern), r) for r, count in enumerate(node_counts(MAX_I, chern))
                if math.factorial(r) * count != sums[r]]
    return not bad, f"mismatches at {bad}" if bad else ""


# The benchmark's identities run digest hashes the text of `check`, so a line
# keeps its name when its check changes (node_count runs Newton's identity).
ALL_CHECKS = (
    ("diagonal equivalence forms Q1, Q2", check_equivalence_forms),
    ("plane equivalence/correction table", check_plane_equivalence_table),
    ("closed formula vs coefficient extraction (n=1..8)", check_closed_vs_extraction),
    ("coefficient table rows 1..8", check_table_rows),
    ("reduced rows consistent with signed rows", check_tilde_rows),
    ("plane Severi degrees", check_severi),
    ("row decompositions into equivalence + correction + Thom terms", check_decompositions),
    ("generating-identity channel residuals (d, x)", check_gyz_channels),
    ("unknown-series recovery, two code paths", check_b1_pipeline),
    ("ratio table rendering", check_ratio_table),
    ("node counts integral on the degree/nodes grid", check_integrality_grid),
    ("node counts: Bell recurrence equals the signature-sum oracle", check_node_count_routes),
)


def run_all():
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, fn in ALL_CHECKS:
            try:
                results.append(CheckResult(name, *fn()))
            except Exception as exc:  # a crash is a failing check, not a crash of `check`
                results.append(CheckResult(name, False, f"raised {exc!r}"))
    return results
