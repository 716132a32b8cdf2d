"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

All comparisons are exact; there are no numeric tolerances anywhere.

Criterion 10 is expected to fail: the shipped coefficient table is
internally consistent and reproduces every other identity, but its row-15
x-cell is off by 4960 (in the reduced normalization; 4960 * 14! in the
signed row) against the quasi-modular generating identity, leaving a
residual of 992/3 at q^15.  The d channel, which shares all the series
plumbing, vanishes through q^15, and the discriminant and Eisenstein
inputs are verified against their classical coefficients, so the defect
is in the published cell, not the machinery.  The test states the
criterion faithfully rather than weakening it.
"""

import warnings
from fractions import Fraction

from nodal_atlas.bell import SparsePoly, complete_bell, partial_bell
from nodal_atlas.chow import (
    LinearForm,
    c_correction_p2,
    excess_a1a2_p2,
    q_general,
    q_p2_closed,
    q_p2_extraction,
)
from nodal_atlas.exact import PolyD
from nodal_atlas.kazarian import s_alpha
from nodal_atlas.partitions import enumerate_partitions, mobius_coefficient
from nodal_atlas.qseries import (
    TABLE_ORDER,
    PowerSeries,
    gyz_channel_residual,
    recover_b1,
    recover_log_b1,
    recover_log_b1_direct,
    series_exp,
    series_log,
)
from nodal_atlas.tables import (
    ChernNumbers,
    TILDE_EXEMPT_CELLS,
    a_decomposition_check,
    a_form,
    all_forms,
    node_count,
    node_count_bruteforce,
    ratio_table,
    severi_degree_p2,
    tilde_consistency,
)


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {description}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, detail or description


def test_criterion_01_first_equivalence():
    _report(1, "pushforward of the critical class gives 3d + 2k + x",
            q_general(1) == LinearForm(3, 2, 0, 1))


def test_criterion_02_second_equivalence():
    _report(2, "second diagonal equivalence is 18d + 15k + 2s + 3x",
            q_general(2) == LinearForm(18, 15, 2, 3))


def test_criterion_03_plane_table():
    table_q = {
        1: PolyD([3, -6, 3]),
        2: PolyD([27, -45, 18]),
        3: PolyD([315, -444, 150]),
        4: PolyD([3285, -4140, 1260]),
    }
    table_c = {3: PolyD([-72, 96, -30]), 4: PolyD([-1158, 1425, -420])}
    ok = all(
        q_p2_extraction(n) == want and q_p2_closed(n) == want
        for n, want in table_q.items()
    )
    ok = ok and c_correction_p2(1) == PolyD() and c_correction_p2(2) == PolyD()
    ok = ok and all(c_correction_p2(n) == want for n, want in table_c.items())
    _report(3, "plane equivalence and correction terms match the reference table", ok)


def test_criterion_04_two_code_paths():
    ok = all(q_p2_closed(n) == q_p2_extraction(n) for n in range(1, 9))
    _report(4, "closed formula equals coefficient extraction for n = 1..8", ok)


def test_criterion_05_bell_polynomials():
    def poly(arity, terms):
        return SparsePoly(arity, {e: Fraction(c) for e, c in terms.items()})

    ok = complete_bell(1) == poly(1, {(1,): 1})
    ok = ok and complete_bell(2) == poly(2, {(2, 0): 1, (0, 1): 1})
    ok = ok and complete_bell(3) == poly(
        3, {(3, 0, 0): 1, (1, 1, 0): 3, (0, 0, 1): 1}
    )
    ok = ok and complete_bell(4) == poly(
        4,
        {(4, 0, 0, 0): 1, (2, 1, 0, 0): 6, (1, 0, 1, 0): 4,
         (0, 2, 0, 0): 3, (0, 0, 0, 1): 1},
    )
    for r in range(1, 16):
        total = SparsePoly(r)
        for l in range(1, r + 1):
            part = partial_bell(r, l)
            total = total + SparsePoly(
                r, {e + (0,) * (r - len(e)): c for e, c in part.terms.items()}
            )
        ok = ok and total == complete_bell(r)
    _report(5, "Bell polynomials match the closed expressions and split into partials", ok)


def test_criterion_06_mobius_assembly():
    # symbolic assembly over the proper polydiagonals of a triple point:
    # coefficients must land on 3*Q1*Q2 - 2*Q3
    q = [SparsePoly(3, {e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]  # Q1, Q2, Q3
    acc = SparsePoly(3)
    for pi in enumerate_partitions(3):
        if len(pi) == 3:
            continue  # the all-singleton partition is not a polydiagonal
        term = SparsePoly(3, {(0, 0, 0): -mobius_coefficient(pi)})
        for block in pi.blocks:
            term = term * q[len(block) - 1]
        acc = acc + term
    want = SparsePoly(3, {(1, 1, 0): 3, (0, 0, 1): -2})
    _report(6, "inclusion-exclusion over polydiagonals assembles 3*Q1*Q2 - 2*Q3",
            acc == want, str(acc))


def test_criterion_07_table_consistency():
    first_eight = {
        1: (3, 2, 0, 1),
        2: (-42, -39, -6, -7),
        3: (1380, 1576, 376, 138),
        4: (-72360, -95670, -28842, -3888),
        5: (5225472, 7725168, 2723400, 84384),
        6: (-481239360, -778065120, -308078520, 7918560),
        7: (53917151040, 93895251840, 40747613760, -2465471520),
        8: (-7118400139200, -13206119880240, -6179605765200, 516524964480),
    }
    ok = True
    for i, row in first_eight.items():
        form = a_form(i)
        sf = form.sign_factorial()
        ok = ok and (sf * form.D, sf * form.E, sf * form.F, sf * form.G) == row
    for i in range(1, 16):
        for col, cell_ok in enumerate(tilde_consistency(i)):
            if (i, col) in TILDE_EXEMPT_CELLS:
                ok = ok and not cell_ok  # the documented sign defect must be there
            else:
                ok = ok and cell_ok
    _report(7, "coefficient table is internally consistent (one documented sign cell)", ok)


def test_criterion_08_severi_numbers():
    ok = severi_degree_p2(3, 1) == 12 == node_count_bruteforce(1, ChernNumbers.p2(3))
    ok = ok and severi_degree_p2(4, 2) == 225 == node_count_bruteforce(2, ChernNumbers.p2(4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for d in range(1, 11):
            want = 3 * (d - 1) ** 2
            ok = ok and severi_degree_p2(d, 1) == want
            ok = ok and node_count_bruteforce(1, ChernNumbers.p2(d)) == want
    _report(8, "plane node counts (including the brute-force oracle) are exact", ok)


def test_criterion_09_decompositions():
    ok = all(a_decomposition_check(i).ok for i in (2, 3, 4))
    excess = excess_a1a2_p2()
    ok = ok and excess == PolyD([144, -192, 60])
    lhs = s_alpha("A1*A2").specialize_p2()
    rhs = (excess * Fraction(1, 2) + s_alpha("A3").specialize_p2()) * -3
    ok = ok and lhs == rhs
    _report(9, "rows decompose into equivalence, correction and Thom terms", ok)


def test_criterion_10_channel_residuals():
    forms = all_forms()
    d_res = gyz_channel_residual("d", TABLE_ORDER, forms)
    x_res = gyz_channel_residual("x", TABLE_ORDER, forms)
    detail = ""
    if not x_res.is_zero():
        nonzero = [(n, str(c)) for n, c in enumerate(x_res.coeffs) if c != 0]
        detail = (
            f"x-channel residual {nonzero}; the shipped row-15 x-cell is "
            "off by 4960 in the reduced normalization"
        )
    _report(10, "d- and x-channel residuals vanish through q^15",
            d_res.is_zero() and x_res.is_zero(), detail)


def test_criterion_11_series_recovery():
    forms = all_forms()
    b1 = recover_b1(TABLE_ORDER, forms)
    ok = b1[0] == 1
    ok = ok and recover_log_b1(TABLE_ORDER, forms) == recover_log_b1_direct(
        TABLE_ORDER, forms
    )
    _report(11, "unknown series recovery: b_0 = 1 and both derivations agree", ok)


def test_criterion_12_ratio_table():
    printed = {
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
    rendered = {row.n: row.rendered() for row in ratio_table()}
    ok = all(
        tuple(rendered[n][c] for c in ("D", "E", "F", "G")) == cells
        for n, cells in printed.items()
    )
    _report(12, "consecutive-row ratio table matches all published cells", ok)


def test_criterion_13_property_suite(streams):
    # Bell numbers B_1..B_10, counted on the shared stream of every partition
    bell = [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    ok = all(len(streams[r]) == bell[r - 1] for r in range(1, 11))
    for coeffs in ([1, 1, 2, 3], [1, -5, 7], [1, 0, 0, 9]):
        u = PowerSeries([Fraction(c) for c in coeffs], len(coeffs) - 1)
        ok = ok and series_exp(series_log(u)) == u
    try:
        for d in range(1, 11):
            chern = ChernNumbers.p2(d)
            for r in range(0, 16):
                node_count(r, chern)
    except ArithmeticError as exc:
        _report(13, "partition counts, exp/log round trips, integrality grid",
                False, str(exc))
        return
    _report(13, "partition counts, exp/log round trips, integrality grid", ok)
