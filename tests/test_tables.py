import math
import random
from fractions import Fraction

import pytest

from nodal_atlas.bell import SparsePoly
from nodal_atlas.exact import PolyD
from nodal_atlas.partitions import integer_partition_signatures, signature_count
from nodal_atlas.tables import (
    MAX_I,
    ChernNumbers,
    NodeLinearForm,
    TILDE_EXEMPT_CELLS,
    UNDEFINED_RATIO,
    a_decomposition_check,
    a_form,
    a_raw,
    a_tilde_raw,
    all_forms,
    node_count,
    node_count_bruteforce,
    node_polynomial,
    ratio_table,
    severi_degree_p2,
    tilde_consistency,
)

FIRST_EIGHT_ROWS = {
    1: (3, 2, 0, 1),
    2: (-42, -39, -6, -7),
    3: (1380, 1576, 376, 138),
    4: (-72360, -95670, -28842, -3888),
    5: (5225472, 7725168, 2723400, 84384),
    6: (-481239360, -778065120, -308078520, 7918560),
    7: (53917151040, 93895251840, 40747613760, -2465471520),
    8: (-7118400139200, -13206119880240, -6179605765200, 516524964480),
}

PRINTED_RATIOS = {
    1: ("14.00", "19.50", UNDEFINED_RATIO, "7.00"),
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


def _geometric_surfaces():
    """Chern numbers of actual polarized surfaces: the plane with O(d) and
    the quadric with bidegree (a, b)."""
    out = [ChernNumbers.p2(d) for d in range(1, 9)]
    out += [
        ChernNumbers(2 * a * b, -2 * (a + b), 8, 4)
        for a in range(1, 5)
        for b in range(1, 5)
    ]
    return out


def test_first_eight_rows():
    for i, row in FIRST_EIGHT_ROWS.items():
        assert a_raw(i) == row
        form = a_form(i)
        sf = form.sign_factorial()
        assert (sf * form.D, sf * form.E, sf * form.F, sf * form.G) == row


def test_table_extent():
    assert len(all_forms()) == MAX_I
    with pytest.raises(ValueError):
        a_form(0)
    with pytest.raises(ValueError):
        a_form(16)


def test_tilde_rows_consistent_except_exempt_cell():
    for i in range(1, MAX_I + 1):
        for col, ok in enumerate(tilde_consistency(i)):
            if (i, col) in TILDE_EXEMPT_CELLS:
                assert not ok
            else:
                assert ok, f"row {i}, column {col}"
    assert TILDE_EXEMPT_CELLS == {(14, 3)}


def test_exempt_cell_is_a_sign_flip():
    # the stored reduced row differs from the signed row by sign only there
    form = a_form(14)
    assert a_tilde_raw(14)[3] == form.G * (-1) ** (14 - 1) * -1


def test_row_evaluation():
    chern = ChernNumbers.p2(4)
    assert a_form(1).evaluate(chern) == 3 * 16 + 2 * -12 + 3  # 27
    assert a_form(1).linear_form().evaluate(chern) == 27


def test_p2_chern_numbers():
    assert ChernNumbers.p2(5) == ChernNumbers(25, -15, 9, 3)


def test_node_count_small_values():
    assert node_count(0, ChernNumbers.p2(2)) == 1
    assert node_count(1, ChernNumbers.p2(3)) == 12
    assert node_count(2, ChernNumbers.p2(4)) == 225
    assert node_count(3, ChernNumbers.p2(4)) == 675


def test_node_count_matches_bruteforce():
    for chern in _geometric_surfaces():
        for r in range(0, 7):
            assert node_count_bruteforce(r, chern) == node_count(r, chern)


def test_node_count_range():
    with pytest.raises(ValueError):
        node_count(16, ChernNumbers.p2(3))
    with pytest.raises(ValueError):
        node_count(-1, ChernNumbers.p2(3))


def test_node_polynomial_matches_node_count():
    surfaces = _geometric_surfaces()
    rng = random.Random(77)
    for r in range(1, MAX_I + 1):
        poly = node_polynomial(r)
        assert poly.total_degree() == r
        for chern in rng.sample(surfaces, 6):
            value = poly.evaluate([chern.d, chern.k, chern.s, chern.x])
            assert value == node_count(r, chern)


def _node_polynomial_by_signature_powers(r):
    """Reference expansion: sum over block-size signatures of the multinomial
    count times prod a_i^{j_i}, in SparsePoly arithmetic, over r!."""
    gens = []
    for i in range(1, r + 1):
        form = a_form(i)
        sf = form.sign_factorial()
        gens.append(
            SparsePoly(
                4,
                {
                    (1, 0, 0, 0): sf * form.D,
                    (0, 1, 0, 0): sf * form.E,
                    (0, 0, 1, 0): sf * form.F,
                    (0, 0, 0, 1): sf * form.G,
                },
            )
        )
    acc = SparsePoly(4)
    for sig in integer_partition_signatures(r):
        term = SparsePoly.constant(4, signature_count(r, sig))
        for size, count in sig.items():
            term = term * gens[size - 1] ** count
        acc = acc + term
    return acc * Fraction(1, math.factorial(r))


def test_node_polynomial_matches_signature_powers():
    for r in range(1, 10):
        assert node_polynomial(r).terms == _node_polynomial_by_signature_powers(r).terms


def test_node_polynomial_degree_one():
    assert node_polynomial(1).terms == {
        (1, 0, 0, 0): Fraction(3),
        (0, 1, 0, 0): Fraction(2),
        (0, 0, 0, 1): Fraction(1),
    }


def test_severi_degrees_linear_row():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # d = 1 is outside the validity range
        for d in range(1, 11):
            assert severi_degree_p2(d, 1) == 3 * (d - 1) ** 2


def test_severi_virtual_warning():
    with pytest.warns(UserWarning):
        severi_degree_p2(2, 3)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        severi_degree_p2(4, 2)  # inside the validity range, no warning


def test_integrality_grid():
    for d in range(1, 11):
        chern = ChernNumbers.p2(d)
        for r in range(0, MAX_I + 1):
            assert isinstance(node_count(r, chern), int)


def test_ratio_table_rendering_matches_published():
    rendered = {row.n: row.rendered() for row in ratio_table()}
    for n, cells in PRINTED_RATIOS.items():
        got = tuple(rendered[n][c] for c in ("D", "E", "F", "G"))
        assert got == cells, f"n={n}"


def test_ratio_table_exact_values():
    rows = {row.n: row for row in ratio_table()}
    assert rows[1].D == 14
    assert rows[1].E == Fraction(39, 2)
    assert rows[1].F is None
    assert rows[1].G == 7
    # the rendering shows magnitudes; the exact x-column ratios change sign
    assert rows[4].G == Fraction(3516, 648)
    assert rows[5].G == Fraction(-65988, 3516)
    assert all(rows[n].D > 0 for n in rows)


def test_decomposition_reports():
    for i in (2, 3, 4):
        rep = a_decomposition_check(i)
        assert rep.ok, f"i={i}: {rep.left} != {rep.right}"
    with pytest.raises(ValueError):
        a_decomposition_check(5)


def test_node_linear_form_signs():
    form = NodeLinearForm(3, 5, 7, 1, 2)
    assert form.sign_factorial() == 2
    assert form.p2_poly() == PolyD([2 * (9 * 1 + 3 * 2), 2 * -3 * 7, 2 * 5])
