import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import nodal_atlas.kazarian as kz
from nodal_atlas.chow import (
    H,
    K,
    L,
    X,
    GradedClass,
    LinearForm,
    c_correction,
    critical_class,
    excess_a1a2,
    excess_a1a2_p2,
    inverse_tangent_chern,
    pushforward_to_Y,
    q_general,
)
from nodal_atlas.exact import PolyD
from nodal_atlas.kazarian import (
    aut_order,
    count_multisingular,
    parse_type,
    s_alpha,
    tabulated_types,
    type_key,
)
from nodal_atlas.tables import ChernNumbers, a_form, node_count

TABLE_TYPES = [
    "A1", "A2", "A1^2", "A3", "A1*A2", "A1^3",
    "A4", "D4", "A1*A3", "A2^2", "A1^2*A2", "A1^4",
]


def test_parse_and_key():
    alpha = parse_type("A2*A1^2")
    assert alpha == ("A1", "A1", "A2")
    assert type_key(alpha) == "A1^2*A2"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_type("A5")
    with pytest.raises(ValueError):
        parse_type("")
    with pytest.raises(ValueError):
        parse_type("A1^")


def test_parse_bounds_the_exponent_before_expanding():
    assert len(parse_type("A1^4")) == 4
    for text in ("A1^5", "A1^13", "A2*A1^" + "9" * 40):
        with pytest.raises(ValueError, match="exceeds 4"):
            parse_type(text)


def test_aut_order():
    assert aut_order(parse_type("A1*A2")) == 1
    assert aut_order(parse_type("A1^2")) == 2
    assert aut_order(parse_type("A1^4")) == 24
    assert aut_order(parse_type("A1^2*A2^2")) == 4
    assert aut_order("A1^2*A2^2") == 4


def test_table_forms():
    assert s_alpha("A1") == LinearForm(3, 2, 0, 1)
    assert s_alpha("A2") == LinearForm(12, 12, 2, 2)
    assert s_alpha("A1*A2") == LinearForm(-240, -288, -72, -24)
    assert s_alpha("A1^4") == LinearForm(-72360, -95670, -28842, -3888)


def test_missing_type():
    with pytest.raises(KeyError):
        s_alpha("A1*A4")  # codimension 5, beyond the table


def test_single_node_stack_matches_enumerator_rows():
    # S with only nodes agrees with the enumerator's coefficient table
    for i in range(1, 5):
        alpha = ("A1",) * i
        assert s_alpha(alpha) == a_form(i).linear_form()


def test_pure_nodes_reproduce_node_counts():
    surfaces = [ChernNumbers.p2(d) for d in range(1, 11)]
    surfaces += [
        ChernNumbers(2 * a * b, -2 * (a + b), 8, 4)
        for a in range(1, 6)
        for b in range(a, 6)
    ]
    for chern in surfaces[:20]:
        for r in range(1, 5):
            alpha = ("A1",) * r
            assert count_multisingular(alpha, chern) == node_count(r, chern)


def test_node_plus_cusp_expansion():
    chern = ChernNumbers.p2(5)
    got = count_multisingular("A1*A2", chern)
    want = (
        s_alpha("A1").evaluate(chern) * s_alpha("A2").evaluate(chern)
        + s_alpha("A1*A2").evaluate(chern)
    )
    assert got == want


def _ordered_partitions(r):
    """All ordered tuples of disjoint nonempty blocks covering {0..r-1}."""
    if r == 0:
        yield ()
        return
    elements = list(range(r))
    for pi in _set_partitions(elements):
        for perm in itertools.permutations(pi):
            yield perm


def _set_partitions(elements):
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def _ordered_count(alpha, chern):
    """The count of a sorted label tuple from ordered set partitions, each
    unordered one counted l! times: it reads neither the partition
    enumerator nor the module's plan."""
    by_length = {}
    for ordered in _ordered_partitions(len(alpha)):
        prod = Fraction(1)
        for block in ordered:
            # the blocks come in any order, so sort each sub-type here
            sub = tuple(sorted(alpha[i] for i in block))
            prod *= s_alpha(sub).evaluate(chern)
        by_length[len(ordered)] = by_length.get(len(ordered), Fraction(0)) + prod
    total = sum(v / math.factorial(l) for l, v in by_length.items())
    return total / aut_order(alpha)


def _seeded_surfaces(count, seed):
    """Half on the adjunction/Noether lattice (L^2 + L.K even, K^2 + c_2 = 0
    mod 12), half drawn freely, where counts need not be integral."""
    rng = random.Random(seed)
    surfaces = []
    for i in range(count):
        d, k, s, x = (rng.randint(-400, 400) for _ in range(4))
        if i % 2 == 0:
            d += (d + k) % 2
            x -= (s + x) % 12
        surfaces.append(ChernNumbers(d, k, s, x))
    return surfaces


def test_partition_sum_vs_ordered_bruteforce():
    # every tabulated type, on and off the lattice
    surfaces = [ChernNumbers(7, -3, 2, 5)] + _seeded_surfaces(20, seed=31)
    assert any((c.s + c.x) % 12 for c in surfaces)
    assert any((c.d + c.k) % 2 == 0 and (c.s + c.x) % 12 == 0 for c in surfaces)
    for text in TABLE_TYPES:
        alpha = parse_type(text)
        for chern in surfaces:
            assert count_multisingular(alpha, chern) == _ordered_count(alpha, chern), (text, chern)


def test_a_reloaded_table_changes_the_count(tmp_path, monkeypatch):
    # the plan holds only the combinatorics of the labels, so clearing the
    # table's own cache is enough for every count to read the new rows
    src = Path(kz.__file__).parent / "data" / "kazarian.json"
    rows = json.loads(src.read_text())
    assert rows[0]["labels"] == "A1"
    rows[0]["d"] = str(int(rows[0]["d"]) + 1)
    (tmp_path / "kazarian.json").write_text(json.dumps(rows))
    chern = ChernNumbers(7, -3, 2, 5)
    before = {text: count_multisingular(text, chern) for text in TABLE_TYPES}
    monkeypatch.setenv("NODAL_ATLAS_DATA", str(tmp_path))
    kz._table.cache_clear()
    try:
        for text in TABLE_TYPES:
            alpha = parse_type(text)
            after = count_multisingular(alpha, chern)
            assert after == _ordered_count(alpha, chern)
            assert (after != before[text]) == ("A1" in alpha), text
    finally:
        monkeypatch.delenv("NODAL_ATLAS_DATA")
        kz._table.cache_clear()
    assert {text: count_multisingular(text, chern) for text in TABLE_TYPES} == before


def test_counts_integral_on_plane():
    for d in range(3, 9):
        chern = ChernNumbers.p2(d)
        for text in TABLE_TYPES:
            value = count_multisingular(text, chern)
            assert value.denominator == 1, (text, d, value)


def test_cusp_excess_identity():
    lhs = s_alpha("A1*A2").specialize_p2()
    rhs = (excess_a1a2_p2() * Fraction(1, 2) + s_alpha("A3").specialize_p2()) * -3
    assert lhs == rhs
    # the same identity in all four Chern numbers
    assert s_alpha("A1*A2") == (excess_a1a2() * Fraction(1, 2) + s_alpha("A3")) * -3


def test_low_rows_follow_from_the_coefficient_table_and_the_chow_layer():
    # the decompositions of a_2 and a_3 with the cusp excess identity fix
    # S_A2, S_A3 and S_A1A2 exactly in all four Chern numbers
    a2, a3 = a_form(2).linear_form(), a_form(3).linear_form()
    excess = excess_a1a2()
    s_a2 = (-a2 - q_general(2)) * Fraction(1, 2)
    s_a3 = (a3 - (q_general(3) + c_correction(3)) * 2 - excess * 9) * Fraction(1, 12)
    s_a1a2 = (excess * Fraction(1, 2) + s_a3) * -3
    assert s_a2 == s_alpha("A2") == LinearForm(12, 12, 2, 2)
    assert s_a3 == s_alpha("A3") == LinearForm(50, 64, 17, 5)
    assert s_a1a2 == s_alpha("A1*A2") == LinearForm(-240, -288, -72, -24)


def _zeta_product(*factors):
    """Product of polynomials in zeta = c_1(O(1)) on P(T_S), each a list of
    surface classes indexed by the power of zeta."""
    out = [1]
    for factor in factors:
        prod = [0] * (len(out) + len(factor) - 1)
        for i, p in enumerate(out):
            for j, q in enumerate(factor):
                prod[i + j] = prod[i + j] + p * q
        out = prod
    return out


def _push_to_surface(poly):
    """pi_* from P(T_S): pi_* 1 = 0 and pi_* zeta^(1+i) = s_i, the surface-degree-i
    part of s(T) = 1 + K + (K^2 - x)."""
    segre = inverse_tangent_chern()

    def part(i):
        return GradedClass({e: c for e, c in segre.terms.items() if e[0] + e[1] + 2 * e[2] == i})

    return sum((c * part(j - 1) for j, c in enumerate(poly) if j), GradedClass())


def test_single_singularity_rows_follow_from_jet_bundles():
    # every single-singularity row of the Thom table, from the jet bundle
    # J^1 L(H) (critical_class) and its refinements, reading neither the
    # table nor the coefficient table; m = L + H and u = 1 + m
    m = L + H
    u = 1 + m
    crit = critical_class()
    # the Hessian kills the kernel line zeta, and the cubic vanishes on it
    a3 = _zeta_product([crit], [m * m + K * m + X, 2 * m + K, 1], [m, 3])
    forms = {
        "A1": pushforward_to_Y(crit, 1),
        # the Hessian's degeneracy class
        "A2": pushforward_to_Y(crit * 2 * (K + m), 2),
        "A3": pushforward_to_Y(_push_to_surface(a3), 3),
        # the discriminant of the (y^2, x^2 y, x^4) part on the A3 locus
        "A4": pushforward_to_Y(_push_to_surface(_zeta_product(a3, [2 * (K + m), 2])), 4),
        # the degree-6 part of c(J^2 L(H))
        "D4": pushforward_to_Y(u * (u**2 + u * K + X) * (u**2 + 2 * u * K + 4 * X) * (u + K), 4),
    }
    rows = {"A1": (3, 2, 0, 1), "A2": (12, 12, 2, 2), "A3": (50, 64, 17, 5),
            "A4": (180, 280, 100, 0), "D4": (15, 20, 5, 5)}
    for label, form in forms.items():
        assert form == s_alpha(label), label
        assert (form.d, form.k, form.s, form.x) == rows[label], label
    assert forms["D4"].specialize_p2() == PolyD([60, -60, 15])  # 15 (d - 2)^2 on P^2


def test_tabulated_types_by_codimension():
    by_codim = [[type_key(alpha) for alpha in tabulated_types(c)] for c in range(1, 6)]
    assert sum(by_codim, []) == TABLE_TYPES
    assert by_codim[3] == ["A4", "D4", "A1*A3", "A2^2", "A1^2*A2", "A1^4"]
    assert by_codim[4] == []


def test_tabulated_types_returns_a_new_list_on_every_call():
    # the grouping is parsed once, and each call hands out its own list
    first = tabulated_types(4)
    first.clear()
    types = tabulated_types(4)
    assert [type_key(alpha) for alpha in types] == ["A4", "D4", "A1*A3", "A2^2", "A1^2*A2", "A1^4"]
    assert types is not tabulated_types(4)
    assert types == tabulated_types(4)


def test_parse_type_inverts_type_key_on_every_tabulated_type():
    types = [alpha for c in range(1, 5) for alpha in tabulated_types(c)]
    assert len(types) == 12
    for alpha in types:
        assert alpha == tuple(sorted(alpha))
        assert parse_type(type_key(alpha)) == alpha


def test_an_unsorted_tuple_is_the_same_type_as_the_sorted_one():
    chern = ChernNumbers(7, -3, 2, 5)
    for text in ("A1^2*A2", "A1*A3", "A2^2", "A1^4"):
        alpha = parse_type(text)
        for perm in set(itertools.permutations(alpha)):
            assert s_alpha(perm) == s_alpha(alpha)
            assert count_multisingular(perm, chern) == count_multisingular(alpha, chern)
            assert aut_order(perm) == aut_order(alpha)
            assert count_multisingular(list(perm), chern) == count_multisingular(text, chern)


def test_unknown_label_and_empty_type_raise_value_error():
    chern = ChernNumbers.p2(4)
    for fn in (s_alpha, aut_order, lambda alpha: count_multisingular(alpha, chern)):
        with pytest.raises(ValueError, match="unknown singularity label 'A9'"):
            fn(("A1", "A9"))
        # the labels are sorted before they are checked: the first unknown
        # one in sorted order is named
        with pytest.raises(ValueError, match="unknown singularity label 'A8'"):
            fn(("A9", "A8"))
        with pytest.raises(ValueError, match="at least one label"):
            fn(())
        with pytest.raises(ValueError, match="at least one label"):
            fn([])


def test_type_outside_the_table_keeps_its_key_error_text():
    for alpha in ("A1*A4", ("A4", "A1"), ["A1"] * 5):
        with pytest.raises(KeyError, match="is not in the table"):
            s_alpha(alpha)
    with pytest.raises(KeyError) as info:
        count_multisingular(("A4", "A1"), ChernNumbers.p2(4))
    assert info.value.args == ("multisingularity type A1*A4 is not in the table (codimension 5)",)
