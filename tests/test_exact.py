import random
from fractions import Fraction

import pytest

from nodal_atlas.exact import PolyD, binomial, format_rational


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
    assert PolyD([0, 0]).degree == -1
    assert not PolyD([0])

