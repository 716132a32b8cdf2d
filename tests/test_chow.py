import random
from fractions import Fraction

import pytest

from nodal_atlas import chow
from nodal_atlas.chow import (
    K,
    Q_MAX,
    X,
    GradedClass,
    LinearForm,
    P2Class,
    c_correction,
    c_correction_p2,
    chern_principal_parts,
    critical_class,
    excess_a1a2,
    excess_a1a2_p2,
    inverse_tangent_chern,
    multiple_point_degree,
    pushforward_to_Y,
    q_general,
    q_p2_closed,
    q_p2_extraction,
)
from nodal_atlas.exact import PolyD, SparsePoly

Q_P2_TABLE = {
    1: PolyD([3, -6, 3]),
    2: PolyD([27, -45, 18]),
    3: PolyD([315, -444, 150]),
    4: PolyD([3285, -4140, 1260]),
}
C_P2_TABLE = {
    1: PolyD(),
    2: PolyD(),
    3: PolyD([-72, 96, -30]),
    4: PolyD([-1158, 1425, -420]),
}


def test_q_general_first_two():
    assert q_general(1) == LinearForm(3, 2, 0, 1)
    assert q_general(2) == LinearForm(18, 15, 2, 3)


def test_q_general_range():
    with pytest.raises(ValueError):
        q_general(0)
    with pytest.raises(ValueError):
        q_general(9)


def test_plane_table_reproduction():
    for n, want in Q_P2_TABLE.items():
        assert q_p2_extraction(n) == want
        assert q_p2_closed(n) == want
    for n, want in C_P2_TABLE.items():
        assert c_correction_p2(n) == want


def test_closed_equals_extraction():
    for n in range(1, 9):
        assert q_p2_closed(n) == q_p2_extraction(n)


def test_general_specializes_to_plane():
    for n in range(1, Q_MAX + 1):
        assert q_general(n).specialize_p2() == q_p2_extraction(n)


def test_correction_no_formula_beyond_four():
    for n in (0, 5):
        with pytest.raises(ValueError):
            c_correction(n)
    with pytest.raises(ValueError):
        c_correction_p2(5)


def test_class_table_equals_the_expansion_per_n():
    # oracle: each class expanded on its own, c(P)^{n-1} c(T)^{-(n-1)} cls_1
    table = chow._class_table()
    assert len(table) == Q_MAX
    for n, got in enumerate(table, start=1):
        want = (
            chern_principal_parts() ** (n - 1)
            * inverse_tangent_chern() ** (n - 1)
            * critical_class()
        )
        assert type(got) is GradedClass
        assert got.terms == want.terms, n
        assert q_general(n) == pushforward_to_Y(want, n)


def test_corrections_and_excess_in_four_variables():
    assert [c_correction(n) for n in (1, 2)] == [LinearForm(), LinearForm()]
    assert c_correction(3) == LinearForm(-30, -32, -7, -3)
    assert c_correction(4) == LinearForm(-420, -475, -120, -26)
    assert excess_a1a2() == LinearForm(60, 64, 14, 6)


def test_inverse_tangent_chern_closed_form():
    one = GradedClass({(0, 0, 0, 0): 1})
    assert inverse_tangent_chern() == one + K + K * K - X
    assert (1 - K + X) * inverse_tangent_chern() == one


def _random_class(rng, max_h=6):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e_l, e_k = rng.randint(0, 2), rng.randint(0, 2)
        e_x, e_h = rng.randint(0, 1), rng.randint(0, max_h)
        terms[(e_l, e_k, e_x, e_h)] = Fraction(rng.randint(-9, 9))
    return GradedClass(terms)


def test_graded_ring_laws_random():
    rng = random.Random(41)
    for _ in range(40):
        a, b, c = (_random_class(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_pushforward_linearity_random():
    rng = random.Random(42)
    for _ in range(40):
        a, b = _random_class(rng), _random_class(rng)
        n = rng.randint(0, 6)
        lhs = pushforward_to_Y(a + b, n)
        rhs = pushforward_to_Y(a, n) + pushforward_to_Y(b, n)
        assert lhs == rhs


def test_pushforward_cap():
    with pytest.raises(ValueError):
        pushforward_to_Y(GradedClass({(0, 0, 0, 0): 1}), Q_MAX + 1)


def test_pushforward_refuses_a_negative_power():
    # a negative H power used to read an absent coefficient: the zero form
    for n in (-1, -Q_MAX):
        with pytest.raises(ValueError, match=rf"^pushforward_to_Y: n must be in 0\.\.{Q_MAX}, got {n}$"):
            pushforward_to_Y(chow._class_table()[1], n)
    assert pushforward_to_Y(GradedClass({(2, 0, 0, 0): 5}), 0) == LinearForm(5, 0, 0, 0)


def test_critical_class_degree_one_part():
    # H^1 surface-degree-2 coefficients: 3L^2 + 2LK + x
    assert pushforward_to_Y(critical_class(), 1) == LinearForm(3, 2, 0, 1)


def test_chern_principal_parts_rank():
    # degree-0 coefficient is 1, top H-free surface part matches expansion
    c = chern_principal_parts()
    assert c.coefficient((0, 0, 0, 0)) == 1
    assert c.coefficient((0, 0, 0, 1)) == 3


def test_interpolation_reproduces_extraction():
    # three values fix the extraction exactly when it is at most quadratic in d
    for n in range(1, 9):
        assert len(q_p2_extraction(n).coeffs) <= 3


def test_m_poly_range():
    # the extraction reads M_n from the plane table, which stops at Q_MAX
    for n in (0, Q_MAX + 1):
        with pytest.raises(ValueError, match=r"q_p2_extraction: n must be in 1\.\.8"):
            q_p2_extraction(n)
    assert chow._plane_table()[0].coefficient(2, 1) == q_p2_extraction(1)
    assert q_p2_extraction(Q_MAX) == q_p2_closed(Q_MAX)


def _m_poly_from_scratch(n):
    """Oracle for the one-pass table: the class expanded on its own,
    (1 + H + (d-1)l)^{3(n-1)} (1 - 3l + 6l^2)^{n-1} (H + (d-1)l)^3."""
    d, l, H = P2Class({(0, 0, 1): 1}), P2Class({(1, 0, 0): 1}), P2Class({(0, 1, 0): 1})
    dm1_l = l * (d - 1)
    inv_tangent = 1 - 3 * l + 6 * l * l
    return (1 + H + dm1_l) ** (3 * (n - 1)) * inv_tangent ** (n - 1) * (H + dm1_l) ** 3


def test_plane_table_equals_the_expansion_from_scratch():
    for n in range(1, Q_MAX + 1):
        got = chow._plane_table()[n - 1]
        assert type(got) is P2Class
        assert got.terms == _m_poly_from_scratch(n).terms, n


def test_four_variable_forms_specialise_to_the_plane_ring_values():
    # the corrections and the excess read the surface table; on the plane
    # they must equal the plane ring's own coefficient extractions
    m2, m3 = _m_poly_from_scratch(2), _m_poly_from_scratch(3)
    c3 = -m2.coefficient(2, 3)
    c4 = -(m3.coefficient(2, 4) * Fraction(3, 2) - m2.coefficient(2, 4) * 2)
    d, l, H = P2Class({(0, 0, 1): 1}), P2Class({(1, 0, 0): 1}), P2Class({(0, 1, 0): 1})
    excess = (m2 * (2 * (d - 3) * l + 2 * H)).coefficient(2, 3)
    assert c_correction(3).specialize_p2() == c_correction_p2(3) == c3 == C_P2_TABLE[3]
    assert c_correction(4).specialize_p2() == c_correction_p2(4) == c4 == C_P2_TABLE[4]
    assert excess_a1a2().specialize_p2() == excess_a1a2_p2() == excess
    assert excess == PolyD([144, -192, 60])


def test_multiple_point_degrees():
    assert multiple_point_degree(1, 3) == 12
    # binodal: Bell combination of equivalences and corrections, then /2 later;
    # here the raw 2-point degree for quartics
    assert multiple_point_degree(2, 4) == q_p2_closed(1)(4) ** 2 - q_p2_closed(2)(4)
    with pytest.raises(ValueError):
        multiple_point_degree(5, 3)


@pytest.mark.parametrize("r, d, name", [
    (2, 4.0, "d"), (2, Fraction(9, 2), "d"), (2.0, 4, "r"), (True, 4, "r"),
], ids=["float-d", "fraction-d", "float-r", "bool-r"])
def test_multiple_point_degree_takes_integers_only(r, d, name, monkeypatch):
    def refuse(n):
        raise AssertionError("computed with a non-integer argument")

    monkeypatch.setattr(chow, "q_p2_closed", refuse)
    with pytest.raises(TypeError, match=rf"multiple_point_degree: {name} must be an int"):
        multiple_point_degree(r, d)


def test_excess_a1a2():
    assert excess_a1a2_p2() == PolyD([144, -192, 60])
    # computed once and shared; an in-place change raises, and the next call
    # returns it whole
    excess = excess_a1a2()
    with pytest.raises(AttributeError):
        excess.terms.clear()
    with pytest.raises(TypeError):
        excess.terms[(1, 0, 0, 0)] = 0
    assert excess_a1a2() == LinearForm(60, 64, 14, 6)


def test_polyd_and_linear_form_inherit_the_kernel_arithmetic_and_printer():
    own = {"__add__", "__sub__", "__neg__", "__mul__", "__eq__", "__hash__", "__str__"}
    for cls in (PolyD, LinearForm):
        assert issubclass(cls, SparsePoly)
        assert not own & set(vars(cls)), cls
    form = LinearForm(3, 0, Fraction(-1, 2), 1)
    assert (form.d, form.k, form.s, form.x) == (3, 0, Fraction(-1, 2), 1)
    assert str(form) == "3d - 1/2s + x"
    assert form.to_dict() == {"d": "3", "k": "0", "s": "-1/2", "x": "1"}
