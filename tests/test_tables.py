import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from integer_partitions import integer_partition_signatures, signature_count

from nodal_atlas import assets, checks, tables
from nodal_atlas.bell import SparsePoly, complete_bell_sequence, partial_bell
from nodal_atlas.checks import (
    a_decomposition_check,
    complete_bell_by_signatures,
    node_count_by_signatures,
)
from nodal_atlas.chow import LinearForm, multiple_point_degree
from nodal_atlas.exact import PolyD
from nodal_atlas.partitions import MAX_R
from nodal_atlas.tables import (
    MAX_I,
    ChernNumbers,
    NodeLinearForm,
    TILDE_EXEMPT_CELLS,
    UNDEFINED_RATIO,
    a_form,
    all_forms,
    node_count,
    node_count_bruteforce,
    node_counts,
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
    stored = json.loads((assets.data_dir() / "a_forms.json").read_text())
    for i, row in FIRST_EIGHT_ROWS.items():
        assert tuple(int(c) for c in stored[i - 1]["a"]) == row
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
    assert tables._rows()[14]["a_tilde"][3] == form.G * (-1) ** (14 - 1) * -1


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
    surfaces = _geometric_surfaces()
    for chern in surfaces:
        for r in range(0, 9):
            assert node_count_bruteforce(r, chern) == node_count(r, chern)
        for r in range(0, MAX_I + 1):
            assert node_count_by_signatures(r, chern) == node_count(r, chern)
    for chern in (surfaces[3], surfaces[-1]):
        assert node_count_bruteforce(9, chern) == node_count(9, chern)


def _set_partition_sum(elements, values):
    """Y over the given elements: the block of the first element is chosen
    with each subset of the rest, the remainder partitioned recursively."""
    if not elements:
        return 1
    rest = elements[1:]
    total = 0
    for k in range(len(rest) + 1):
        for others in itertools.combinations(rest, k):
            remaining = tuple(e for e in rest if e not in others)
            total += values[k] * _set_partition_sum(remaining, values)
    return total


def test_bruteforce_with_a_vanishing_first_row():
    # a_1 = 3d + 2k + x = 0 here, so every partition with a singleton adds 0;
    # the oracle must not divide by a_1
    chern = ChernNumbers(2, -4, 10, 2)
    assert a_form(1).evaluate(chern) == 0
    values = [a_form(i).evaluate(chern) for i in range(1, 8)]
    for r in range(0, 10):
        got = node_count_bruteforce(r, chern)
        assert got == node_count(r, chern)
        if r <= 7:
            assert got * math.factorial(r) == _set_partition_sum(tuple(range(r)), values)


def test_bruteforce_with_vanishing_first_two_rows():
    # a_1 = a_2 = 0 on (P^2, O(1)), so every partition with a block of size
    # 1 or 2 adds 0, among them each one-block placement of r-1 and r; the
    # closed form must not divide by either
    chern = ChernNumbers.p2(1)
    values = [a_form(i).evaluate(chern) for i in range(1, 8)]
    assert values[:2] == [0, 0]
    for r in range(0, 8):
        got = node_count_bruteforce(r, chern)
        assert got == node_count(r, chern)
        assert got * math.factorial(r) == _set_partition_sum(tuple(range(r)), values)


def test_bruteforce_raises_where_node_count_raises():
    # off the adjunction/Noether lattice: 511725174931/12 at r = 4
    chern = ChernNumbers(292, 48, -8, 55)
    raised = []
    for r in range(0, 10):
        try:
            want = node_count(r, chern)
        except ArithmeticError:
            raised.append(r)
            with pytest.raises(ArithmeticError):
                node_count_bruteforce(r, chern)
        else:
            assert node_count_bruteforce(r, chern) == want
    assert raised == list(range(3, 10))


def test_bruteforce_range_is_checked_before_any_enumeration(monkeypatch):
    def refuse(r):
        raise AssertionError(f"iter_partitions({r}) started")

    monkeypatch.setattr(tables, "iter_partitions", refuse)
    assert MAX_R == 12
    for r in (-1, 13):
        with pytest.raises(ValueError):
            node_count_bruteforce(r, ChernNumbers.p2(4))


# B_0, ..., B_8
BELL_NUMBERS = (1, 1, 2, 5, 15, 52, 203, 877, 4140)

# node_count_bruteforce(r, .) for r = 0..9, as the sum over all partitions of
# [r] gave them
FROZEN_BRUTEFORCE = {
    ChernNumbers.p2(4): (1, 27, 225, 675, 666, 378, 105, -54432, 1775520, -43072416),
    ChernNumbers(12, -10, 8, 4): (
        1, 20, 105, 160, 133, -1884, 46378, -1014528, 20822448, -411104432,
    ),
}


def test_bruteforce_stays_a_set_partition_sum(monkeypatch):
    # it walks exactly the B_{r-2} partitions of [r-2], never those of [r-1]
    # or [r], and reaches its values with every other route to Y_r made to raise
    from nodal_atlas import bell

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle left the set-partition sum")

    for module, name in ((tables, "node_count"), (bell, "complete_bell_sequence"),
                         (checks, "complete_bell_by_signatures")):
        monkeypatch.setattr(module, name, refuse)
    walked = []
    real = tables.iter_partitions

    def counted(n):
        walked.append([n, 0])
        for pi in real(n):
            walked[-1][1] += 1
            yield pi

    monkeypatch.setattr(tables, "iter_partitions", counted)
    for chern, frozen in FROZEN_BRUTEFORCE.items():
        for r, want in enumerate(frozen):
            walked.clear()
            assert node_count_bruteforce(r, chern) == want
            if r >= 3:
                assert walked == [[r - 2, BELL_NUMBERS[r - 2]]]
            else:
                assert walked == []


def test_newton_route_equals_bell_recurrence_over_r_factorial():
    # the box holds surfaces and numbers off the adjunction/Noether lattice;
    # node_count must raise on exactly the pairs whose Y_r/r! is fractional
    box = [
        ChernNumbers(d, k, s, x)
        for d in range(-1, 3) for k in (-1, 0, 1) for s in (0, 1) for x in (0, 1, 11)
    ]
    integral = fractional = recovered = 0
    for chern in box:
        values = [form.evaluate(chern) for form in all_forms()]
        seen_fraction = False
        for r in range(0, MAX_I + 1):
            # the binomial complete-Bell recurrence, exactly: Y_r(a_1..a_r)/r!
            want = Fraction(complete_bell_sequence(values[:r])[r], math.factorial(r))
            if want.denominator == 1:
                got = node_count(r, chern)
                assert type(got) is int and got == want, (r, chern)
                integral += 1
                recovered += seen_fraction
            else:
                with pytest.raises(ArithmeticError):
                    node_count(r, chern)
                fractional += 1
                seen_fraction = True
    # both outcomes occur, and some integral N_r follow a fractional N_m, m < r,
    # which the pass carries in Fractions
    assert integral and fractional and recovered


def _huge_chern_numbers():
    """Four seeded surfaces' worth of Chern numbers near 10^30, on the
    adjunction/Noether lattice (d + k even, s + x divisible by 12)."""
    rng = random.Random(2011)
    big = 10**30
    out = []
    for _ in range(4):
        d = rng.randint(big, 9 * big)
        k = rng.randint(-9 * big, 9 * big)
        k += (d + k) % 2
        s = rng.randint(-9 * big, 9 * big)
        x = rng.randint(-9 * big, 9 * big)
        x -= (s + x) % 12
        out.append(ChernNumbers(d, k, s, x))
    return out


def test_newton_route_matches_signature_oracle_on_huge_chern_numbers():
    for chern in _huge_chern_numbers():
        assert node_count(MAX_I, chern) == node_count_by_signatures(MAX_I, chern)


def test_node_counts_are_every_node_count_of_one_pass():
    surfaces = [ChernNumbers.p2(d) for d in range(1, 11)] + list(checks.ORACLE_SURFACES)
    for chern in surfaces + _huge_chern_numbers():
        for r in range(0, MAX_I + 1):
            counts = node_counts(r, chern)
            assert counts == [node_count(m, chern) for m in range(r + 1)], (chern, r)
            assert all(type(n) is int for n in counts)


def test_node_counts_are_fractions_where_node_count_raises():
    # off the adjunction/Noether lattice N_3..N_9 are not integral; the pass
    # carries them as exact Fractions, Y_m/m! of the binomial recurrence
    chern = ChernNumbers(292, 48, -8, 55)
    values = [form.evaluate(chern) for form in all_forms()]
    counts = node_counts(9, chern)
    assert [m for m, n in enumerate(counts) if type(n) is Fraction] == list(range(3, 10))
    assert all(type(n) is int for n in counts[:3])
    for m, n in enumerate(counts):
        assert n == Fraction(complete_bell_sequence(values[:m])[m], math.factorial(m))
        if type(n) is Fraction:
            with pytest.raises(ArithmeticError):
                node_count(m, chern)
        else:
            assert node_count(m, chern) == n


@pytest.mark.parametrize("size", [2.0, Fraction(2), True], ids=["float", "fraction", "bool"])
def test_row_and_count_sizes_must_be_ints(size, monkeypatch):
    # a_form(2.0) used to return row 2 and node_count(True, c) N_1; every
    # size is refused before the table is read
    def refuse():
        raise AssertionError("read the table with a non-integer size")

    monkeypatch.setattr(tables, "_rows", refuse)
    with pytest.raises(TypeError, match=r"a_form: i must be an int"):
        a_form(size)
    for count in (node_count, node_counts):
        with pytest.raises(TypeError, match=r"node_counts: r must be an int"):
            count(size, ChernNumbers.p2(4))


def test_node_count_rejects_non_integral_total():
    # (a_1^2 + a_2)/2 = (9 - 42)/2 on the non-geometric numbers (1, 0, 0, 0)
    with pytest.raises(ArithmeticError):
        node_count(2, ChernNumbers(1, 0, 0, 0))
    with pytest.raises(ArithmeticError):
        node_count_by_signatures(2, ChernNumbers(1, 0, 0, 0))


def test_signature_oracle_range_is_checked_before_any_form(monkeypatch):
    # r = 16 used to fail in a_form and r = -1 in complete_bell_by_signatures;
    # the oracle refuses both in its own name before reading the table
    def refuse(i):
        raise AssertionError(f"a_form({i}) evaluated")

    monkeypatch.setattr(checks, "a_form", refuse)
    for r in (16, -1):
        with pytest.raises(ValueError, match=rf"^node_count_by_signatures: r must be in 0..{MAX_I}, got {r}$"):
            node_count_by_signatures(r, ChernNumbers.p2(4))


def test_signature_oracle_memo_keys_on_the_values(monkeypatch):
    chern = ChernNumbers.p2(5)
    before = node_count_by_signatures(2, chern)
    # a table reload that changes row 2 is seen at once: the memo keys on the
    # a_i values, not on (r, chern)
    rows = dict(tables._rows())
    form = rows[2]["form"]
    rows[2] = {**rows[2], "form": form._replace(D=form.D + 2)}
    monkeypatch.setattr(tables, "_rows", lambda: rows)
    after = node_count_by_signatures(2, chern)
    assert after == node_count(2, chern) == before - chern.d
    # an integer input keeps an int sum, integral Fractions a Fraction sum
    ints = [3, -42, 1380]
    assert type(complete_bell_by_signatures(3, ints)) is int
    assert type(complete_bell_by_signatures(3, [Fraction(v) for v in ints])) is Fraction


def test_signature_oracle_refuses_short_values_and_bad_r():
    # fewer values than r used to raise a bare IndexError
    for r, values in ((3, [1, 2]), (1, []), (15, list(range(14)))):
        with pytest.raises(ValueError, match=rf"^need {r} values, got {len(values)}$"):
            complete_bell_by_signatures(r, values)
    for r in (-1, 16):
        with pytest.raises(ValueError, match=r"complete_bell_by_signatures: r must be in 0\.\.15"):
            complete_bell_by_signatures(r, list(range(20)))
    assert complete_bell_by_signatures(0, []) == 1


def test_signature_oracle_shares_no_code_with_the_recurrences(monkeypatch):
    # the oracle is a sum over the signature tree alone: Newton's identity,
    # the Bell recurrence and the symbolic polynomials are made to raise
    from nodal_atlas import bell

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle left the signature sum")

    for module, name in ((tables, "node_counts"), (tables, "node_count"),
                         (bell, "complete_bell_sequence"), (bell, "complete_bell"),
                         (bell, "_complete_bells"), (checks, "node_counts")):
        monkeypatch.setattr(module, name, refuse)
    checks._signature_sums.cache_clear()
    assert node_count_by_signatures(4, ChernNumbers.p2(4)) == 666
    assert complete_bell_by_signatures(4, [1, 1, 1, 1]) == 15


def test_signature_oracle_memo_is_bounded():
    memo = checks._signature_sums
    memo.cache_clear()
    surfaces = 600
    for d in range(1, surfaces + 1):
        node_count_by_signatures(3, ChernNumbers.p2(d))
    assert memo.cache_info().currsize < surfaces


def test_a_second_check_finds_every_signature_sum():
    # the identities benchmark runs `check` twice in one process
    memo = checks._signature_sums
    memo.cache_clear()
    checks.run_all()
    misses = memo.cache_info().misses
    checks.run_all()
    assert memo.cache_info().misses == misses


def test_route_check_runs_the_production_count_on_every_call(monkeypatch):
    # one Newton pass per surface gives every r, and a second check runs them
    # again: a memo of the production route would call node_counts fewer times
    calls = []
    real = checks.node_counts
    monkeypatch.setattr(checks, "node_counts", lambda r, chern: calls.append(r) or real(r, chern))
    for _ in range(2):
        assert checks.check_node_count_routes() == (True, "")
    assert calls == [MAX_I] * 2 * (10 + len(checks.ORACLE_SURFACES))


def test_route_check_evaluates_each_row_once_per_surface(monkeypatch):
    rows = []
    real = checks.a_form
    monkeypatch.setattr(checks, "a_form", lambda i: rows.append(i) or real(i))
    assert checks.check_node_count_routes() == (True, "")
    surfaces = 10 + len(checks.ORACLE_SURFACES)
    assert sorted(rows) == sorted(list(range(1, MAX_I + 1)) * surfaces)


def test_hot_paths_skip_partition_enumeration(monkeypatch):
    # node counts, Severi degrees and multiple-point degrees need no
    # enumerator; every module-level binding of each is made to raise
    import sys

    from nodal_atlas import partitions

    for name in ("signature_tree", "enumerate_partitions", "iter_partitions"):
        original = getattr(partitions, name)

        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called on a hot path")

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("nodal_atlas") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError):
        node_count_bruteforce(3, ChernNumbers.p2(4))
    assert node_count(15, ChernNumbers(4, 0, 0, 24)) == -15942056412959616
    assert node_count(15, ChernNumbers(12, -10, 8, 4)) == -17010954681295224
    assert severi_degree_p2(9, 15) == 2152123669483852871
    assert severi_degree_p2(4, 2) == 225
    assert [multiple_point_degree(4, d) for d in (4, 5, 8)] == [133920, 2535120, 368613000]


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
        assert max(sum(e) for e in poly.terms) == r
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
        term = SparsePoly(4, {(0, 0, 0, 0): signature_count(r, sig)})
        for size, count in sig.items():
            term = term * gens[size - 1] ** count
        acc = acc + term
    return acc * Fraction(1, math.factorial(r))


def test_node_polynomial_matches_signature_powers():
    for r in range(1, 10):
        assert node_polynomial(r).terms == _node_polynomial_by_signature_powers(r).terms


def _bell_ys_by_four_variable_recurrence():
    """Reference table: the complete Bell recurrence
    Y_n = sum_{k=1}^{n} C(n-1, k-1) a_k Y_{n-k}, Y_0 = 1, run directly on
    the four-variable linear forms a_k over packed exponents, with no
    channel tables and no convolution."""
    ys = [{0: 1}]
    for n in range(1, MAX_I + 1):
        y = {}
        for k in range(1, n + 1):
            form = a_form(k)
            weight = math.comb(n - 1, k - 1) * form.sign_factorial()
            prev = ys[n - k]
            for unit, coeff in zip(tables._UNITS, (form.D, form.E, form.F, form.G)):
                if not coeff:
                    continue
                c = weight * coeff
                for key, v in prev.items():
                    key += unit
                    y[key] = y.get(key, 0) + c * v
        ys.append(y)
    return ys


def test_node_polynomial_matches_four_variable_recurrence():
    reference = _bell_ys_by_four_variable_recurrence()
    assert tables._bell_ys() == reference
    for r in range(1, MAX_I + 1):
        r_factorial = math.factorial(r)
        want = {tables._unpack(key): Fraction(c, r_factorial) for key, c in reference[r].items()}
        assert node_polynomial(r).terms == want, r


def test_channel_tables_are_partial_bell_sums():
    # P_n(z) = sum_j B_{n,j}(w) z^j, with B_{n,j} from the signature
    # enumeration in `bell`, at each channel's signed coefficients w
    forms = all_forms()
    for channel in range(4):
        weights = [f.sign_factorial() * (f.D, f.E, f.F, f.G)[channel] for f in forms]
        table = tables._channel_table(weights)
        assert table[0] == [1]
        for n in range(1, MAX_I + 1):
            want = [0] + [partial_bell(n, j).evaluate(weights[:n]) for j in range(1, n + 1)]
            assert table[n] == want, (channel, n)


def test_node_polynomial_results_are_shared_and_read_only():
    # the terms are the cached ones, shared: an in-place change raises, and
    # the next call returns them whole
    first = node_polynomial(6)
    want = dict(first.terms)
    with pytest.raises(AttributeError):
        first.terms.clear()
    with pytest.raises(TypeError):
        first.terms[(9, 9, 9, 9)] = Fraction(1)
    assert node_polynomial(6).terms == want
    assert node_polynomial(7).evaluate([16, -12, 9, 3]) == node_count(7, ChernNumbers.p2(4))


def test_node_polynomial_is_one_object_per_r():
    # the cached, immutable polynomial itself, not a new wrapper per call
    assert node_polynomial(5) is node_polynomial(5)
    assert node_polynomial(5) is not node_polynomial(6)


def test_packed_exponents_round_trip():
    # one byte per variable: an exponent of Y_n is at most n <= MAX_I, so
    # lifting MAX_I to 256 or more must fail here rather than carry a field
    # silently into the next one
    assert MAX_I < 256
    y15 = tables._bell_ys()[15]
    poly = node_polynomial(15)
    assert {tables._unpack(key) for key in y15} == set(poly.terms)
    for key in y15:
        expo = tables._unpack(key)
        assert max(expo) <= 15
        assert int.from_bytes(bytes(expo), "little") == key


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


def test_severi_refuses_an_unknown_row_before_warning():
    # r = 16 used to be warned about as virtual and then refused by
    # node_counts; it is refused first, in severi_degree_p2's name
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^severi_degree_p2: r must be in 0\.\.{MAX_I}, got 16$"):
            severi_degree_p2(5, 16)


def test_integrality_grid():
    for d in range(1, 11):
        chern = ChernNumbers.p2(d)
        for r in range(0, MAX_I + 1):
            assert isinstance(node_count(r, chern), int)


def _inverse_eta_power(order):
    """[q^0..q^order] of prod_{n>=1} (1 - q^n)^-24, with integers: one
    geometric series 1/(1 - q^n) multiplied in at a time."""
    coeffs = [1] + [0] * order
    for n in range(1, order + 1):
        for _ in range(24):
            for m in range(n, order + 1):
                coeffs[m] += coeffs[m - n]
    return coeffs


def test_k3_node_counts_are_the_yau_zaslow_numbers():
    # a K3 surface with a genus-g system: (d, k, s, x) = (2g - 2, 0, 0, 24),
    # and N_g is [q^g] of the Euler product (Yau-Zaslow, Beauville), through
    # g = 14, the rows the G-cell defect leaves alone
    want = _inverse_eta_power(14)
    for g in range(1, 15):
        assert node_count(g, (2 * g - 2, 0, 0, 24)) == want[g], g


def test_k3_node_count_at_g15_carries_the_published_table_defect():
    # the published row-15 G cell is 4960 too large, and N_15 reads it as
    # 24 G_15 / 15: exactly 7936 over the Yau-Zaslow number
    assert node_count(15, (28, 0, 0, 24)) - _inverse_eta_power(15)[15] == 7936 == 24 * 4960 // 15


def test_abelian_node_counts_are_the_bryan_leung_numbers():
    # an abelian surface with L^2 = 2n: (d, k, s, x) = (2n, 0, 0, 0), and
    # N_{n-1} = n^2 sigma(n) (Bryan-Leung); s = x = 0 never reads row 15's defect
    for n in range(1, 17):
        sigma = sum(m for m in range(1, n + 1) if n % m == 0)
        assert node_count(n - 1, (2 * n, 0, 0, 0)) == n * n * sigma, n


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
        assert type(rep.left) is type(rep.right) is LinearForm, i
    with pytest.raises(ValueError):
        a_decomposition_check(5)


def test_node_linear_form_signs():
    form = NodeLinearForm(3, 5, 7, 1, 2)
    assert form.sign_factorial() == 2
    assert form.linear_form().specialize_p2() == PolyD([2 * (9 * 1 + 3 * 2), 2 * -3 * 7, 2 * 5])


# SHA-256 of the shipped data assets, which stay verbatim.
SHIPPED_ASSETS = {
    "a_forms.json": "9bab37634fdba90eb359884cd6eeb19bd845a9bfa9f9252f399c4994e305d6a9",
    "kazarian.json": "136b934e0f39b865069b37bdc327b5da1c6af7d068612737f51154541e5faad2",
}


def test_shipped_assets_are_pinned():
    data = Path(tables.__file__).parent / "data"
    for name, digest in SHIPPED_ASSETS.items():
        assert hashlib.sha256((data / name).read_bytes()).hexdigest() == digest, name
