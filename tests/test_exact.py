import contextlib
import copy
import math
import pickle
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from nodal_atlas import bell, checks, chow, kazarian, partitions, qseries, tables
from nodal_atlas.chow import H, L, Q_MAX, GradedClass, LinearForm, P2Class
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
    return e[0] + e[1] + 2 * e[2] <= 2 and e[3] <= Q_MAX


def _plane_keep(e):
    return e[0] <= 2 and e[1] <= Q_MAX


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
        rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, Q_MAX + 1))),
    (P2Class, _plane_keep, lambda rng: (
        rng.randint(0, 3), rng.randint(0, Q_MAX + 1), rng.choice((0, 1, 2, 127, 128, 255, 256)))),
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
        {(0, 0, 0, k): math.comb(300, k) for k in range(Q_MAX + 1)}
    )


def test_negative_exponent_raises_when_packed():
    bad = SparsePoly(2, {(1, -1): 1})
    good = SparsePoly(2, {(1, 0): 1})
    for op in (lambda: bad * good, lambda: good * bad, lambda: bad**2):
        with pytest.raises(ValueError):
            op()


def test_powers_multiply_through_mul(monkeypatch):
    # one product path: a power is square-and-multiply over __mul__
    calls = []
    real = SparsePoly.__mul__
    monkeypatch.setattr(SparsePoly, "__mul__", lambda a, b: calls.append(b) or real(a, b))
    assert PolyD([1, 1]) ** 5 == PolyD([1, 5, 10, 10, 5, 1])
    assert calls
    calls.clear()
    assert (1 + H) ** 3 == GradedClass({(0, 0, 0, k): math.comb(3, k) for k in range(4)})
    assert calls


@pytest.mark.parametrize("make", [
    lambda: SparsePoly(1, {(1,): 0.1}),
    lambda: PolyD([1, 0.5]),
    lambda: LinearForm(0.1, 0, 0, 1),
    lambda: GradedClass({(0, 0, 0, 1): 0.5}),
    lambda: qseries.PowerSeries([0.1, 2]),
    lambda: checks.complete_bell_by_signatures(2, [0.1, 0]),
], ids=["SparsePoly", "PolyD", "LinearForm", "GradedClass", "PowerSeries", "signature_oracle"])
def test_float_coefficients_are_refused(make):
    # Fraction(0.1) would keep the binary fraction 3602879701896397/2^55
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make", [
    lambda: SparsePoly(1, {(1,): "1/3"}),
    lambda: qseries.PowerSeries(["1/3", 2]),
    lambda: format_rational("1/3"),
], ids=["SparsePoly", "PowerSeries", "format_rational"])
def test_str_coefficients_are_refused(make):
    # coefficients are int or Fraction; no constructor parses text
    with pytest.raises(TypeError, match=r"cannot interpret '1/3' as an exact rational"):
        make()


# Every polynomial a cache hands out, shared by all its callers.
CACHED_VALUES = {
    "complete_bell": lambda: bell.complete_bell(4),
    "partial_bell": lambda: bell.partial_bell(6, 3),
    "class_table": lambda: chow._class_table()[1],
    "plane_table": lambda: chow._plane_table()[2],
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


_FORMS = tables.all_forms()
_P2 = tables.ChernNumbers.p2(5)

# every public top-level function of the package that takes a size, by
# (function, argument): the call with v in that argument's place.
# tests/test_layout.py holds this table to the package's signatures
SIZE_CALLS = {
    ("complete_bell", "r"): lambda v: bell.complete_bell(v),
    ("partial_bell", "n"): lambda v: bell.partial_bell(v, 1),
    ("partial_bell", "l"): lambda v: bell.partial_bell(3, v),
    ("complete_bell_by_signatures", "r"): lambda v: checks.complete_bell_by_signatures(v, [1, 2, 3]),
    ("node_count_by_signatures", "r"): lambda v: checks.node_count_by_signatures(v, _P2),
    ("pushforward_to_Y", "n"): lambda v: chow.pushforward_to_Y(chow.H ** 3, v),
    ("q_general", "n"): lambda v: chow.q_general(v),
    ("c_correction", "n"): lambda v: chow.c_correction(v),
    ("q_p2_extraction", "n"): lambda v: chow.q_p2_extraction(v),
    ("q_p2_closed", "n"): lambda v: chow.q_p2_closed(v),
    ("c_correction_p2", "n"): lambda v: chow.c_correction_p2(v),
    ("multiple_point_degree", "r"): lambda v: chow.multiple_point_degree(v, 5),
    ("multiple_point_degree", "d"): lambda v: chow.multiple_point_degree(2, v),
    ("binomial", "n"): lambda v: binomial(v, 1),
    ("tabulated_types", "codim"): lambda v: kazarian.tabulated_types(v),
    ("iter_partitions", "r"): lambda v: list(partitions.iter_partitions(v)),
    ("enumerate_partitions", "r"): lambda v: partitions.enumerate_partitions(v),
    ("partition_rows", "r"): lambda v: list(partitions.partition_rows(v)),
    ("signature_tree", "n"): lambda v: partitions.signature_tree(v),
    ("eisenstein_g2", "order"): lambda v: qseries.eisenstein_g2(v),
    ("discriminant", "order"): lambda v: qseries.discriminant(v),
    ("recover_log_b1", "order"): lambda v: qseries.recover_log_b1(v, _FORMS),
    ("recover_log_b1_direct", "order"): lambda v: qseries.recover_log_b1_direct(v, _FORMS),
    ("recover_b1", "order"): lambda v: qseries.recover_b1(v, _FORMS),
    ("recover_log_b2", "order"): lambda v: qseries.recover_log_b2(v, _FORMS),
    ("recover_b2", "order"): lambda v: qseries.recover_b2(v, _FORMS),
    ("gyz_channel_residual", "order"): lambda v: qseries.gyz_channel_residual("d", v, _FORMS),
    ("a_form", "i"): lambda v: tables.a_form(v),
    ("tilde_consistency", "i"): lambda v: tables.tilde_consistency(v),
    ("node_counts", "r"): lambda v: tables.node_counts(v, _P2),
    ("node_count", "r"): lambda v: tables.node_count(v, _P2),
    ("node_count_bruteforce", "r"): lambda v: tables.node_count_bruteforce(v, _P2),
    ("node_polynomial", "r"): lambda v: tables.node_polynomial(v),
    ("severi_degree_p2", "d"): lambda v: tables.severi_degree_p2(v, 0),
    ("severi_degree_p2", "r"): lambda v: tables.severi_degree_p2(5, v),
    ("a_decomposition_check", "i"): lambda v: checks.a_decomposition_check(v),
}


# views of one other function, which refuses the size in its own name
REFUSED_BY = {"node_count": "node_counts", "enumerate_partitions": "iter_partitions"}


@pytest.mark.parametrize("value", [3.0, True, Fraction(3)], ids=["float", "bool", "fraction"])
@pytest.mark.parametrize("key", SIZE_CALLS, ids="-".join)
def test_size_arguments_must_be_ints(key, value):
    # a float, bool or Fraction size used to be read as the int it equals,
    # or to fail deep inside; it is refused by name before any work, even
    # where a cache keyed by sizes already holds the int's entry
    function, argument = key
    call = SIZE_CALLS[key]
    with contextlib.suppress(ValueError):  # 1 is out of range for some
        call(int(value))
    refuser = REFUSED_BY.get(function, function)
    with pytest.raises(TypeError, match=rf"^{refuser}: {argument} must be an int, got "):
        call(value)


# the range of each bounded size in SIZE_CALLS, (lo, hi) or (lo, None) with
# no upper bound; partial_bell's l is called with n = 3, and each table
# reader with the 15 shipped rows
SIZE_BOUNDS = {
    ("complete_bell", "r"): (1, bell.MAX_R),
    ("partial_bell", "n"): (1, bell.MAX_R),
    ("partial_bell", "l"): (1, 3),
    ("complete_bell_by_signatures", "r"): (0, bell.MAX_R),
    ("node_count_by_signatures", "r"): (0, tables.MAX_I),
    ("pushforward_to_Y", "n"): (0, Q_MAX),
    ("q_general", "n"): (1, Q_MAX),
    ("c_correction", "n"): (1, 4),
    ("q_p2_extraction", "n"): (1, Q_MAX),
    ("q_p2_closed", "n"): (1, None),
    ("c_correction_p2", "n"): (1, 4),
    ("multiple_point_degree", "r"): (1, 4),
    ("multiple_point_degree", "d"): (1, None),
    ("binomial", "n"): (0, None),
    ("iter_partitions", "r"): (1, partitions.MAX_R),
    ("enumerate_partitions", "r"): (1, partitions.MAX_R),
    ("partition_rows", "r"): (1, partitions.MAX_R),
    ("signature_tree", "n"): (0, partitions.MAX_SIGNATURE_SIZE),
    ("eisenstein_g2", "order"): (0, qseries.MAX_ORDER),
    ("discriminant", "order"): (0, qseries.MAX_ORDER),
    ("recover_log_b1", "order"): (0, tables.MAX_I),
    ("recover_log_b1_direct", "order"): (0, tables.MAX_I),
    ("recover_b1", "order"): (0, tables.MAX_I),
    ("recover_log_b2", "order"): (0, tables.MAX_I),
    ("recover_b2", "order"): (0, tables.MAX_I),
    ("gyz_channel_residual", "order"): (0, tables.MAX_I),
    ("a_form", "i"): (1, tables.MAX_I),
    ("tilde_consistency", "i"): (1, tables.MAX_I),
    ("node_counts", "r"): (0, tables.MAX_I),
    ("node_count", "r"): (0, tables.MAX_I),
    ("node_count_bruteforce", "r"): (0, partitions.MAX_R),
    ("node_polynomial", "r"): (1, tables.MAX_I),
    ("severi_degree_p2", "d"): (1, None),
    ("severi_degree_p2", "r"): (0, tables.MAX_I),
    ("a_decomposition_check", "i"): (2, 4),
}

# sizes that no range bounds: a codimension with no tabulated type has none
UNBOUNDED_SIZES = {("tabulated_types", "codim")}


def test_every_size_is_bounded_or_named_unbounded():
    assert set(SIZE_BOUNDS) | UNBOUNDED_SIZES == set(SIZE_CALLS)
    assert not set(SIZE_BOUNDS) & UNBOUNDED_SIZES


# one value below each range and one above each upper bound
OUT_OF_RANGE = [(key, lo - 1) for key, (lo, hi) in SIZE_BOUNDS.items()]
OUT_OF_RANGE += [(key, hi + 1) for key, (lo, hi) in SIZE_BOUNDS.items() if hi is not None]


@pytest.mark.parametrize("key, value", OUT_OF_RANGE, ids=[f"{'-'.join(k)}-{v}" for k, v in OUT_OF_RANGE])
def test_size_arguments_must_be_in_range(key, value):
    # every size is refused outside its range by one rule, before any work,
    # in the name of the function that refuses it and with one wording
    function, argument = key
    lo, hi = SIZE_BOUNDS[key]
    span = f">= {lo}" if hi is None else rf"in {lo}\.\.{hi}"
    refuser = REFUSED_BY.get(function, function)
    with pytest.raises(ValueError, match=rf"^{refuser}: {argument} must be {span}, got {value}$"):
        SIZE_CALLS[key](value)


def test_power_exponents_follow_the_size_rule():
    # a bool exponent used to be read as 0 or 1, and a float one failed
    # inside the bit arithmetic
    for e in (True, 2.0, Fraction(2)):
        with pytest.raises(TypeError, match=r"^GradedClass\.__pow__: e must be an int, got "):
            L ** e
    with pytest.raises(ValueError, match=r"^SparsePoly\.__pow__: e must be >= 0, got -1$"):
        SparsePoly(1, {(1,): 1}) ** -1
    assert L ** 1 == L
