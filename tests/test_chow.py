import random
from fractions import Fraction

import pytest

from nodal_atlas.chow import (
    H_CAP,
    GradedClass,
    LinearForm,
    c_correction_p2,
    chern_principal_parts,
    critical_class,
    excess_a1a2_p2,
    inverse_tangent_chern,
    m_poly_p2,
    multiple_point_degree,
    pushforward_to_Y,
    q_general,
    q_p2_closed,
    q_p2_extraction,
    tangent_chern,
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
    for n in range(1, 7):
        assert q_general(n).specialize_p2() == q_p2_extraction(n)


def test_correction_no_formula_beyond_four():
    with pytest.raises(ValueError):
        c_correction_p2(5)


def test_inverse_tangent_chern_closed_form():
    K = GradedClass.gen_K()
    x = GradedClass.gen_x()
    assert inverse_tangent_chern() == GradedClass.one() + K + K * K - x
    assert tangent_chern() * inverse_tangent_chern() == GradedClass.one()


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
        pushforward_to_Y(GradedClass.one(), H_CAP + 1)


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
    with pytest.raises(ValueError):
        m_poly_p2(0)
    assert m_poly_p2(1).coefficient(2, 1) == q_p2_extraction(1)


def test_multiple_point_degrees():
    assert multiple_point_degree(1, 3) == 12
    # binodal: Bell combination of equivalences and corrections, then /2 later;
    # here the raw 2-point degree for quartics
    assert multiple_point_degree(2, 4) == q_p2_closed(1)(4) ** 2 - q_p2_closed(2)(4)
    with pytest.raises(ValueError):
        multiple_point_degree(5, 3)


def test_excess_a1a2():
    assert excess_a1a2_p2() == PolyD([144, -192, 60])


def test_polyd_and_linear_form_inherit_the_kernel_arithmetic_and_printer():
    own = {"__add__", "__sub__", "__neg__", "__mul__", "__eq__", "__hash__", "__str__"}
    for cls in (PolyD, LinearForm):
        assert issubclass(cls, SparsePoly)
        assert not own & set(vars(cls)), cls
    form = LinearForm(3, 0, Fraction(-1, 2), 1)
    assert (form.d, form.k, form.s, form.x) == (3, 0, Fraction(-1, 2), 1)
    assert str(form) == "3d - 1/2s + x"
    assert form.to_dict() == {"d": "3", "k": "0", "s": "-1/2", "x": "1"}
