import hashlib
import math
import random
from fractions import Fraction

import pytest

from nodal_atlas import qseries
from nodal_atlas.qseries import (
    CHANNELS,
    TABLE_ORDER,
    PowerSeries,
    discriminant,
    eisenstein_g2,
    gyz_channel_residual,
    recover_b1,
    recover_b2,
    recover_log_b1,
    recover_log_b1_direct,
    recover_log_b2,
    series_exp,
    series_log,
)
from nodal_atlas.tables import all_forms

# sigma_1(n) for n = 1..16
SIGMA = [1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28, 14, 24, 24, 31]

# Fourier coefficients tau(n) of the weight-12 cusp form, n = 1..17
TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920,
       534612, -370944, -577738, 401856, 1217160, 987136, -6905934]


def _mul(a, b):
    """Dense product of two series, or of a series and a scalar, truncated to
    the smaller order: the oracle for the module's integer kernels."""
    if not isinstance(b, PowerSeries):
        return PowerSeries([c * b for c in a.coeffs], a.order)
    t = min(a.order, b.order)
    out = [Fraction(0)] * (t + 1)
    for i, x in enumerate(a.coeffs[: t + 1]):
        for j, y in enumerate(b.coeffs[: t + 1 - i]):
            out[i + j] += x * y
    return PowerSeries(out, t)


def _add(*series):
    """Sum of series, truncated to the smallest order."""
    t = min(s.order for s in series)
    return PowerSeries([sum(cs) for cs in zip(*(s.coeffs[: t + 1] for s in series))], t)


def test_eisenstein_g2_coefficients():
    g2 = eisenstein_g2(16)
    assert g2[0] == Fraction(-1, 24)
    assert g2.coeffs[1:] == [Fraction(s) for s in SIGMA]


def test_discriminant_coefficients():
    d = discriminant(17)
    assert d[0] == 0
    assert d.coeffs[1:] == [Fraction(t) for t in TAU]


def test_discriminant_matches_product_formula():
    # Jacobi's identity against the definition q prod (1 - q^m)^24, expanded
    # one factor (1 - q^m) at a time
    prod = [1] + [0] * 59
    for m in range(1, 60):
        for _ in range(24):
            for n in range(59, m - 1, -1):
                prod[n] -= prod[n - m]
    for order in range(1, 61):
        delta = discriminant(order)
        assert delta.order == order
        assert delta.coeffs == [0] + prod[:order]


def test_exp_log_round_trips():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 10)
        u = PowerSeries(
            [1] + [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)], n
        )
        assert series_exp(series_log(u)) == u
        v = PowerSeries([0] + u.coeffs[1:], n)
        assert series_log(series_exp(v)) == v


def test_exp_log_preconditions():
    with pytest.raises(ValueError):
        series_exp(PowerSeries([1, 1], 1))
    with pytest.raises(ValueError):
        series_log(PowerSeries([0, 1], 1))


def test_series_mul_and_pow():
    a = PowerSeries([1, 1], 5)
    a4 = _mul(_mul(_mul(a, a), a), a)
    assert _mul(a4, a) == _mul(_mul(a, a), _mul(_mul(a, a), a))
    assert _mul(a4, a).coeffs == [Fraction(math.comb(5, k)) for k in range(6)]
    assert _mul(PowerSeries([1, 2, 3]), PowerSeries([1, 1], 1)).coeffs == [1, 3]


def test_dg2_power_coeff_vs_convolution():
    # the integer powers of D G_2, built once through q^TABLE_ORDER and read
    # by prefix, against a brute-force r-fold convolution of the coefficient list
    t = [Fraction(0)] + [Fraction(n * s) for n, s in enumerate(SIGMA[:10], start=1)]
    powers = qseries._inputs()[0]
    for r in range(1, 6):
        for n in range(r, 11):
            acc = {0: Fraction(1)}
            for _ in range(r):
                nxt = {}
                for deg, c in acc.items():
                    for m in range(1, 11 - deg):
                        nxt[deg + m] = nxt.get(deg + m, Fraction(0)) + c * t[m]
                acc = nxt
            want = acc.get(n, Fraction(0))
            assert powers[r - 1][n] == want
    assert powers[2][2] == 0


def test_qseries_inputs_are_built_once():
    # every reader at every order reads a prefix of the one set of series
    # built at the extent of the coefficient table; no order builds its own
    qseries._inputs.cache_clear()
    qseries._table_series.cache_clear()
    forms = all_forms()
    for order in range(TABLE_ORDER + 1):
        for channel in CHANNELS:
            gyz_channel_residual(channel, order, forms)
        for read in (recover_b1, recover_b2, recover_log_b1, recover_log_b2):
            read(order, forms)
    for cache in (qseries._inputs, qseries._table_series):
        info = cache.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
    assert all(len(p) == TABLE_ORDER + 1 for p in qseries._inputs()[0])
    series = qseries._table_series(tuple(forms))
    assert all(len(cs) == TABLE_ORDER + 1 for cs in series.values())


def test_dg2_low_coefficients():
    assert qseries._dg2(6) == (0, 1, 6, 12, 28, 30, 72)


def test_divisor_sieve_equals_the_naive_sums():
    # G_2 and D G_2 read their divisor sums from one sieve
    naive = [0] + [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, 301)]
    assert naive[1:17] == SIGMA
    for order in (0, 1, 16, 300):
        assert qseries._sigmas(order) == naive[: order + 1]
    assert eisenstein_g2(300).coeffs[1:] == naive[1:]
    assert qseries._dg2(300) == tuple(n * sigma for n, sigma in enumerate(naive))


def test_channel_residual_d_vanishes():
    assert gyz_channel_residual("d", TABLE_ORDER, all_forms()).is_zero()


def test_channel_residual_x_vanishes_through_14():
    res = gyz_channel_residual("x", 14, all_forms())
    assert res.is_zero()


def test_channel_residuals_by_construction():
    forms = all_forms()
    assert gyz_channel_residual("k", TABLE_ORDER, forms).is_zero()
    # the s channel cancels down to the x channel (log B1 subtracts F - G),
    # so the two residuals are identical series
    assert gyz_channel_residual("s", TABLE_ORDER, forms) == gyz_channel_residual(
        "x", TABLE_ORDER, forms
    )
    assert gyz_channel_residual("s", 14, forms).is_zero()


def test_only_the_d_and_x_channels_are_summed(monkeypatch):
    # k is the zero series and s the x residual by construction, so k reads
    # no table and a residual reads one channel series at most
    forms = all_forms()
    series = qseries._table_series(tuple(forms))

    def refuse(rows):
        raise AssertionError("the k channel read the table")

    monkeypatch.setattr(qseries, "_table_series", refuse)
    assert gyz_channel_residual("k", TABLE_ORDER, forms).is_zero()
    reads = []

    class Recorder(dict):
        def __getitem__(self, name):
            reads.append(name)
            return super().__getitem__(name)

    monkeypatch.setattr(qseries, "_table_series", lambda rows: Recorder(series))
    counts = {}
    for channel in CHANNELS:
        reads.clear()
        gyz_channel_residual(channel, TABLE_ORDER, forms)
        counts[channel] = list(reads)
    assert counts == {"d": ["d"], "k": [], "s": ["x"], "x": ["x"]}
    for order in range(TABLE_ORDER + 1):
        s = gyz_channel_residual("s", order, forms)
        assert (s.order, s.coeffs) == (order, gyz_channel_residual("x", order, forms).coeffs)


def _dense_channel_sum(t, coeffs):
    """sum_l (-1)^{l-1} coeffs[l-1] t^l / l by dense series products."""
    acc, t_pow = PowerSeries([], t.order), PowerSeries([1], t.order)
    for l in range(1, t.order + 1):
        t_pow = _mul(t_pow, t)
        acc = _add(acc, _mul(t_pow, Fraction((-1) ** (l - 1) * coeffs[l - 1], l)))
    return acc


def _composed(order, forms):
    """Every channel residual, log B_1 and log B_2 of the table `forms`
    through q^order, by the Fraction series composition the integer
    numerators replaced; it reads none of the module's caches."""
    D, E, F, G = ([getattr(f, c) for f in forms] for c in "DEFG")
    t = PowerSeries([0] + [n * SIGMA[n - 1] for n in range(1, order + 1)], order)
    log_dg2 = series_log(PowerSeries([(n + 1) * SIGMA[n] for n in range(order + 1)]))
    d2g2_over_q = PowerSeries([(n + 1) ** 2 * SIGMA[n] for n in range(order + 1)])
    delta_over_q = PowerSeries(discriminant(order + 1).coeffs[1:])
    log_disc = series_log(_mul(delta_over_q, d2g2_over_q))
    modular = _add(_mul(log_dg2, Fraction(-1, 12)), _mul(log_disc, Fraction(1, 24)))
    log_b1 = _dense_channel_sum(t, [f - g for f, g in zip(F, G)])
    log_b2 = _add(_dense_channel_sum(t, E), _mul(log_dg2, Fraction(1, 2)))
    return {
        "d": _add(_dense_channel_sum(t, D), _mul(log_dg2, Fraction(-1, 2))),
        "k": _add(_dense_channel_sum(t, E), _mul(log_dg2, Fraction(1, 2)), _mul(log_b2, -1)),
        "s": _add(_dense_channel_sum(t, F), modular, _mul(log_b1, -1)),
        "x": _add(_dense_channel_sum(t, G), modular),
        "log_b1": log_b1,
        "log_b2": log_b2,
    }


def test_integer_residuals_equal_the_series_composition():
    # every channel residual, both recovered logs and the Horner route to
    # log B_1 against the Fraction series composition the integer numerators
    # replaced, at every order
    forms = all_forms()
    for order in range(TABLE_ORDER + 1):
        want = _composed(order, forms)
        for channel in CHANNELS:
            got = gyz_channel_residual(channel, order, forms)
            assert (got.order, got.coeffs) == (order, want[channel].coeffs), (channel, order)
        for got, series in ((recover_log_b1(order, forms), want["log_b1"]),
                            (recover_log_b1_direct(order, forms), want["log_b1"]),
                            (recover_log_b2(order, forms), want["log_b2"])):
            assert (got.order, got.coeffs) == (order, series.coeffs), order


# every series read from the coefficient table, by name
READERS = {
    "d": lambda order, forms: gyz_channel_residual("d", order, forms),
    "x": lambda order, forms: gyz_channel_residual("x", order, forms),
    "log_b1": recover_log_b1,
    "log_b2": recover_log_b2,
    "b1": recover_b1,
    "b2": recover_b2,
}


def _read_all(forms):
    return {name: [read(order, forms).coeffs for order in range(TABLE_ORDER + 1)]
            for name, read in READERS.items()}


def _composed_reads(forms):
    want = _composed(TABLE_ORDER, forms)
    want["b1"], want["b2"] = series_exp(want["log_b1"]), series_exp(want["log_b2"])
    return {name: want[name].coeffs for name in READERS}


def test_series_caches_key_on_the_table_values():
    # one cell of row l changed in a copy of the table: every series read
    # from the copy is the composition of the copy, at every order, so it
    # moves exactly where the composition moves, and never below q^l
    shipped = all_forms()
    before, want_shipped = _read_all(shipped), _composed_reads(shipped)
    for l, cell in ((1, "G"), (9, "D"), (9, "E"), (15, "F")):
        changed = list(shipped)
        changed[l - 1] = shipped[l - 1]._replace(**{cell: getattr(shipped[l - 1], cell) + 1})
        got, want = _read_all(changed), _composed_reads(changed)
        moved_somewhere = False
        for name in READERS:
            for order in range(TABLE_ORDER + 1):
                assert got[name][order] == want[name][: order + 1], (l, cell, name, order)
                moved = want[name][: order + 1] != want_shipped[name][: order + 1]
                assert (got[name][order] != before[name][order]) == moved, (l, cell, name, order)
                assert not (moved and order < l), (l, cell, name, order)
                moved_somewhere |= moved
        assert moved_somewhere, (l, cell)
        assert _read_all(shipped) == before


def test_series_caches_stay_bounded_and_hand_out_fresh_series():
    shipped = all_forms()
    cache = qseries._table_series
    distinct = cache.cache_parameters()["maxsize"] + 2
    before = cache.cache_info().misses
    for j in range(1, distinct + 1):
        changed = [shipped[0]._replace(D=shipped[0].D + j, F=shipped[0].F + j)] + shipped[1:]
        gyz_channel_residual("d", TABLE_ORDER, changed)
        recover_b1(TABLE_ORDER, changed)
    info = cache.cache_info()
    assert info.misses - before == distinct  # each new table is built once, for both reads
    assert info.currsize <= info.maxsize
    # a series changed by its caller, or the caller's table changed after a
    # read, leaves every later read as it was
    table = list(shipped)
    for read in READERS.values():
        first = read(TABLE_ORDER, table)
        want = list(first.coeffs)
        first.coeffs[1] = Fraction(7)
        first.coeffs.append(Fraction(8))
        assert read(TABLE_ORDER, table).coeffs == want
    log_b1 = recover_log_b1(TABLE_ORDER, table)
    table[0] = table[0]._replace(F=table[0].F + 1)
    assert recover_log_b1(TABLE_ORDER, table) != log_b1
    assert recover_log_b1(TABLE_ORDER, shipped) == log_b1


def test_the_horner_route_reads_no_table_cache(monkeypatch):
    # check's "two code paths" line and the benchmark's B_1 verifier compare
    # against recover_log_b1_direct, so it must stand without the tables
    forms = all_forms()
    want = [recover_log_b1(order, forms) for order in range(TABLE_ORDER + 1)]

    def refuse(*args):
        raise AssertionError("the Horner route read a table cache")

    for name in ("_inputs", "_table_series"):
        monkeypatch.setattr(qseries, name, refuse)
    with pytest.raises(AssertionError):
        recover_log_b1(TABLE_ORDER, forms)
    for order in range(TABLE_ORDER + 1):
        got = recover_log_b1_direct(order, forms)
        assert (got.order, got.coeffs) == (order, want[order].coeffs)


@pytest.mark.parametrize("order", [3.0, Fraction(3), True], ids=["float", "fraction", "bool"])
def test_orders_must_be_ints(order, monkeypatch):
    # gyz_channel_residual("d", 3.0, forms) and recover_b1(3.0, forms) used to
    # fail deep inside; order=True read order 1.  Both are refused before
    # any table or series is read
    def refuse(*args):
        raise AssertionError("read a series with a non-integer order")

    for name in ("_inputs", "_table_series", "_dg2"):
        monkeypatch.setattr(qseries, name, refuse)
    forms = all_forms()
    with pytest.raises(TypeError, match=r"gyz_channel_residual: order must be an int"):
        gyz_channel_residual("d", order, forms)
    for read in (recover_b1, recover_b2, recover_log_b1, recover_log_b2, recover_log_b1_direct):
        with pytest.raises(TypeError, match=rf"{read.__name__}: order must be an int"):
            read(order, forms)


def test_channel_validation():
    forms = all_forms()
    with pytest.raises(ValueError):
        gyz_channel_residual("y", 5, forms)
    with pytest.raises(ValueError):
        gyz_channel_residual("d", 16, forms)
    with pytest.raises(ValueError):
        gyz_channel_residual("d", 5, forms[:3])


def test_log_b1_two_paths_agree():
    forms = all_forms()
    assert recover_log_b1(TABLE_ORDER, forms) == recover_log_b1_direct(TABLE_ORDER, forms)


def test_b1_leading_coefficients():
    b1 = recover_b1(TABLE_ORDER, all_forms())
    assert b1[0] == 1
    # first coefficient from the order-1 channel matching: F_1 - G_1 = -1
    assert b1[1] == -1


def test_b2_leading_coefficients():
    forms = all_forms()
    b2 = recover_b2(TABLE_ORDER, forms)
    assert b2[0] == 1
    # order-1 matching: 1/2 * 6 + E_1 = 5
    assert recover_log_b2(TABLE_ORDER, forms)[1] == 5
    assert b2[1] == 5


def test_b_series_are_integral_so_far():
    # nothing forces integrality a priori; record that both recovered series
    # are integer sequences across the available orders
    forms = all_forms()
    for series in (recover_b1(TABLE_ORDER, forms), recover_b2(TABLE_ORDER, forms)):
        assert all(c.denominator == 1 for c in series.coeffs)


def test_power_series_equality_truncates():
    assert PowerSeries([1, 2, 3], 2) == PowerSeries([1, 2], 1)
    assert PowerSeries([1, 2], 1) != PowerSeries([1, 3], 1)


B1_15 = [1, -1, -5, 39, -345, 2961, -24866, 207759, -1737670, 14584625, -122937305,
         1040906771, -8852158628, 75598131215, -648168748072, 5577807139921]
B2_15 = [1, 5, 2, 35, -140, 986, -6643, 48248, -362700, 2802510, -22098991,
         177116726, -1438544962, 11814206036, -97940651274, 818498739637]


def test_hot_paths_multiply_no_series():
    # the residuals, both routes to log B_1, the recoveries and the
    # discriminant run on integer coefficient lists: PowerSeries is only the
    # return type and has no arithmetic of its own
    assert not {"__add__", "__mul__", "__rmul__"} & set(vars(PowerSeries))
    for obj in vars(qseries).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    forms = all_forms()
    defect = ["0"] * 15 + ["992/3"]
    for _ in range(2):  # cold, then from the caches
        for channel, want in (("d", ["0"] * 16), ("k", ["0"] * 16), ("s", defect), ("x", defect)):
            res = gyz_channel_residual(channel, 15, forms)
            assert (res.order, res.to_list()) == (15, want)
            res.coeffs[15] = Fraction(7)  # must not reach the next call
        b1, b2 = recover_b1(15, forms), recover_b2(15, forms)
        assert (b1.coeffs, b2.coeffs) == (B1_15, B2_15)
        b1.coeffs[1] = b2.coeffs[1] = Fraction(7)
        log_b2 = recover_log_b2(15, forms)
        assert log_b2[1] == 5
        log_b2.coeffs[1] = Fraction(7)
        direct = recover_log_b1_direct(15, forms)
        assert direct == recover_log_b1(15, forms)
        direct.coeffs[1] = Fraction(7)
    delta = discriminant(60)
    assert delta.order == 60
    assert hashlib.sha256(",".join(delta.to_list()).encode()).hexdigest() == (
        "c3b81785485b0302ec3abc70eddb9539c43d941cbd31ed829c8f02fc73d3234d"
    )
