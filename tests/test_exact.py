import copy
import math
import pickle
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from nodal_atlas import bell, chow, kazarian, tables
from nodal_atlas.chow import H, H_CAP, GradedClass, LinearForm, P2Class
from nodal_atlas.exact import PolyD, SparsePoly, binomial, format_rational


def test_binomial_row_sums():
    for n in range(31):
        assert sum(binomial(n, k) for k in range(n + 1)) == 2**n


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(0, 0) == 1


def test_binomial_negative_n_raises():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_random_rational_addition_cross_check():
    rng = random.Random(20240817)
    for _ in range(1000):
        a, b = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        c, d = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
        got = Fraction(a, b) + Fraction(c, d)
        # cross-multiplied, unreduced reference
        assert got == Fraction(a * d + c * b, b * d)


def test_format_rational():
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-7, 2)) == "-7/2"


def test_polyd_str():
    assert str(PolyD([315, -444, 150])) == "150d^2 - 444d + 315"
    assert str(PolyD([3, 1])) == "d + 3"
    assert str(PolyD()) == "0"
    assert str(PolyD([0, -1])) == "-d"


def test_polyd_arithmetic():
    p = PolyD([1, 2])
    q = PolyD([0, 0, 3])
    assert (p + q).coeffs == (1, 2, 3)
    assert (p * q).coeffs == (0, 0, 3, 6)
    assert (p - p) == PolyD()
    assert p**3 == p * p * p
    assert (2 * p)(5) == 2 * p(5)
    assert p(Fraction(1, 2)) == 2


def test_polyd_trailing_zeros_normalized():
    assert PolyD([1, 0, 0]) == PolyD([1])
    assert PolyD([0, 0]).coeffs == ()
    assert not PolyD([0])


def _schoolbook(a, b, keep):
    """Tuple-keyed product of two term maps, dropping monomials keep rejects."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            expo = tuple(x + y for x, y in zip(e1, e2))
            if keep(expo):
                out[expo] = out.get(expo, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _graded_keep(e):
    return e[0] + e[1] + 2 * e[2] <= 2 and e[3] <= H_CAP


def _plane_keep(e):
    return e[0] <= 2 and e[1] <= H_CAP


def _coeff(rng, fractions=True):
    c = rng.randint(-9, 9)
    return Fraction(c, rng.randint(1, 7)) if fractions and rng.random() < 0.5 else c


def _random_terms(rng, arity, n, top, fractions=True):
    return {tuple(rng.randint(0, top) for _ in range(arity)): _coeff(rng, fractions)
            for _ in range(n)}


# exponents at and just past the caps of each truncated ring; the curve
# degree d of P2Class is uncapped, so it also crosses the 127/255 widths
_CAPPED_DRAWS = (
    (GradedClass, _graded_keep, lambda rng: (
        rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, H_CAP + 1))),
    (P2Class, _plane_keep, lambda rng: (
        rng.randint(0, 3), rng.randint(0, H_CAP + 1), rng.choice((0, 1, 2, 127, 128, 255, 256)))),
)


def test_packed_products_equal_schoolbook_products():
    rng = random.Random(1207)
    for arity in range(1, 16):
        for top in (1, 3, 127, 128, 255, 256, 1000):
            a = SparsePoly(arity, _random_terms(rng, arity, rng.randint(0, 6), top))
            b = SparsePoly(arity, _random_terms(rng, arity, rng.randint(0, 6), top))
            assert (a * b).terms == _schoolbook(a.terms, b.terms, lambda e: True)
    for ring, keep, draw in _CAPPED_DRAWS:
        for _ in range(200):
            operands = []
            for _ in range(2):
                terms = {draw(rng): _coeff(rng) for _ in range(rng.randint(1, 12))}
                operands.append(ring(terms))
                assert operands[-1].terms == {e: c for e, c in terms.items() if c and keep(e)}
            a, b = operands
            assert (a * b).terms == _schoolbook(a.terms, b.terms, keep)


def test_packed_powers_equal_repeated_schoolbook_products():
    rng = random.Random(3301)
    # (ring, arity, keep, draws, top exponent of the random terms)
    cases = [(lambda t, a=arity: SparsePoly(a, t), arity, lambda e: True, 2, 2)
             for arity in (1, 15)]
    cases += [(GradedClass, 4, _graded_keep, 4, 1), (P2Class, 3, _plane_keep, 4, 1)]
    for make, arity, keep, draws, top in cases:
        for _ in range(2):
            # kept terms and a constant, so every power of the base is nonzero
            terms = {}
            while not terms:
                terms = _random_terms(rng, arity, draws, top, fractions=False)
                terms = {e: c for e, c in terms.items() if c and any(e) and keep(e)}
            base = make({**terms, (0,) * arity: rng.randint(1, 3)})
            want = {(0,) * arity: 1}
            for e in range(26):
                assert (base**e).terms == want, (arity, e)
                want = _schoolbook(want, base.terms, keep)
            assert len(want) > 1


def test_packed_power_of_a_binomial():
    x_plus_1 = SparsePoly(1, {(1,): 1, (0,): 1})
    assert (x_plus_1**300).terms == {(k,): math.comb(300, k) for k in range(301)}
    assert (H + 1) ** 300 == GradedClass(
        {(0, 0, 0, k): math.comb(300, k) for k in range(H_CAP + 1)}
    )


def test_negative_exponent_raises_when_packed():
    bad = SparsePoly(2, {(1, -1): 1})
    good = SparsePoly(2, {(1, 0): 1})
    for op in (lambda: bad * good, lambda: good * bad, lambda: bad**2):
        with pytest.raises(ValueError):
            op()


# Every polynomial a cache hands out, shared by all its callers.
CACHED_VALUES = {
    "complete_bell": lambda: bell.complete_bell(4),
    "partial_bell": lambda: bell.partial_bell(6, 3),
    "class_table": lambda: chow._class_table()[1],
    "m_poly_p2": lambda: chow.m_poly_p2(3),
    "c_correction_p2": lambda: chow.c_correction_p2(3),
    "excess_a1a2": chow.excess_a1a2,
    "s_alpha": lambda: kazarian.s_alpha("A1"),
    "node_polynomial": lambda: tables.node_polynomial(3),
}


def test_cached_values_refuse_in_place_changes():
    for name, get in CACHED_VALUES.items():
        value = get()
        want = dict(value.terms)
        with pytest.raises(TypeError):
            value.terms[next(iter(want))] = 0
        with pytest.raises(AttributeError):
            value.terms.clear()
        assert get().terms == want, name
    assert chow.multiple_point_degree(3, 5) == 77310
    assert kazarian.count_multisingular("A1", tables.ChernNumbers.p2(4)) == 27


def test_cached_values_refuse_reassignment():
    for name, get in CACHED_VALUES.items():
        value = get()
        terms, arity = dict(value.terms), value.arity
        with pytest.raises(AttributeError):
            value.terms = {}
        with pytest.raises(AttributeError):
            value.arity = 0
        with pytest.raises(AttributeError):
            del value.terms
        again = get()
        assert (again.arity, dict(again.terms)) == (arity, terms), name


@pytest.mark.parametrize("value", [
    SparsePoly(2, {(1, 0): 3, (0, 2): Fraction(-1, 2)}),
    PolyD([1, -2, Fraction(3, 4)]),
    LinearForm(3, 2, 0, 1),
    GradedClass({(1, 0, 0, 2): 5, (0, 0, 1, 0): -1}),
    P2Class({(2, 1, 1): Fraction(7, 2)}),
], ids=lambda value: type(value).__name__)
def test_pickle_and_copies_round_trip(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value) and twin == value
        assert isinstance(twin.terms, MappingProxyType)
