"""The package's five records are tuple records with the reprs, immutability,
equality and hashing of the frozen dataclasses they replaced, and importing
the package or its CLI loads no `dataclasses` (nor, through it, `inspect`,
`ast` or `dis`); importing the package alone loads none of its modules."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import nodal_atlas
from nodal_atlas.checks import CheckResult, DecompositionReport, a_decomposition_check
from nodal_atlas.chow import LinearForm, q_general
from nodal_atlas.kazarian import count_multisingular, s_alpha
from nodal_atlas.tables import (
    ChernNumbers,
    NodeLinearForm,
    RatioRow,
    a_form,
    node_count,
    node_count_bruteforce,
    ratio_table,
)

# Each record with the repr the frozen dataclasses printed.
RECORDS = [
    (ChernNumbers(25, -15, 9, 3), "ChernNumbers(d=25, k=-15, s=9, x=3)"),
    (NodeLinearForm(3, 690, 788, 188, 69), "NodeLinearForm(i=3, D=690, E=788, F=188, G=69)"),
    (
        RatioRow(1, Fraction(14), Fraction(39, 2), None, Fraction(7)),
        "RatioRow(n=1, D=Fraction(14, 1), E=Fraction(39, 2), F=None, G=Fraction(7, 1))",
    ),
    (
        DecompositionReport(2, LinearForm(42, 39, 6, 7), LinearForm(42, 39, 6, 7)),
        "DecompositionReport(i=2, left=42d + 39k + 6s + 7x, right=42d + 39k + 6s + 7x)",
    ),
    (CheckResult("x", False, "d"), "CheckResult(name='x', ok=False, detail='d')"),
]


def _modules_loaded_by(statement):
    """The modules a fresh interpreter loads for `statement`: compared with a
    snapshot, since `site` may import modules before any package code."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ)
    src = str(Path(nodal_atlas.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_dataclasses():
    added = _modules_loaded_by("import nodal_atlas, nodal_atlas.cli")
    assert {"nodal_atlas.tables", "nodal_atlas.checks", "nodal_atlas.cli"} <= added
    assert not added & {"dataclasses", "inspect", "ast", "dis"}


def test_importing_the_package_loads_none_of_its_modules():
    # library code imports each name from its module; the package binds none
    added = _modules_loaded_by("import nodal_atlas")
    assert "nodal_atlas" in added
    assert not {name for name in added if name.startswith("nodal_atlas.")}


@pytest.mark.parametrize("record, text", RECORDS, ids=[text.split("(")[0] for _, text in RECORDS])
def test_record_behaviour(record, text):
    assert repr(record) == text
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    twin = type(record)(*record)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert twin != record._replace(**{field: 99})


def test_records_built_by_the_library():
    assert a_form(3) == RECORDS[1][0]
    assert ratio_table()[0] == RECORDS[2][0]
    assert repr(a_decomposition_check(2)) == RECORDS[3][1]
    assert a_decomposition_check(2).ok
    assert CheckResult("x", True).detail == ""


def test_count_error_names_the_surface_by_its_repr():
    with pytest.raises(ArithmeticError, match=r"chern=ChernNumbers\(d=1, k=0, s=0, x=0\)"):
        node_count(2, ChernNumbers(1, 0, 0, 0))


@pytest.mark.parametrize("cells, field", [
    ((16.0, -12, 9, 3), "d"), ((16, True, 9, 3), "k"), ((16, -12, Fraction(9), 3), "s"),
    ((16, -12, 9, 3.0), "x"),
])
def test_chern_numbers_take_integers_only(cells, field):
    # a float would flow through node_count as a float count (225.0)
    with pytest.raises(TypeError, match=rf"ChernNumbers\.{field} must be an int"):
        ChernNumbers(*cells)
    with pytest.raises(TypeError, match=r"ChernNumbers\.d must be an int"):
        ChernNumbers.p2(4.0)
    assert node_count(2, ChernNumbers(16, -12, 9, 3)) == 225


def test_every_build_and_count_reads_chern_numbers_through_the_check():
    # namedtuple's _make and _replace build with tuple.__new__ unless routed
    # through the class; the counts read any 4-sequence through ChernNumbers
    with pytest.raises(TypeError, match=r"ChernNumbers\.d must be an int, got 16\.0"):
        ChernNumbers.p2(4)._replace(d=16.0)
    with pytest.raises(TypeError, match=r"ChernNumbers\.d must be an int, got 16\.0"):
        ChernNumbers._make([16.0, -12, 9, 3])
    assert ChernNumbers.p2(4)._replace(d=25) == ChernNumbers(25, -12, 9, 3)
    counts = (node_count, node_count_bruteforce, lambda r, chern: count_multisingular("A1", chern))
    for count in counts:
        with pytest.raises(TypeError, match=r"ChernNumbers\.d must be an int, got 16\.0"):
            count(2, (16.0, -12, 9, 3))
        with pytest.raises(TypeError):
            count(2, (16, -12, 9))
    # integer sequences keep working, on the adjunction/Noether lattice or off it
    assert node_count(2, (16, -12, 9, 3)) == node_count_bruteforce(2, [16, -12, 9, 3]) == 225
    assert count_multisingular("A1", (16, -12, 9, 3)) == 27
    assert node_count(1, (1, 0, 0, 0)) == node_count_bruteforce(1, (1, 0, 0, 0)) == 3


def test_every_form_evaluator_reads_chern_numbers_through_the_check():
    # the public evaluators take what the counts take, a ChernNumbers or any
    # 4-sequence of ints, and refuse a float as the counts do
    evaluators = (a_form(2).evaluate, a_form(2).linear_form().evaluate, q_general(2).evaluate,
                  s_alpha("A1").evaluate)
    chern = ChernNumbers(16, -12, 9, 3)
    for evaluate in evaluators:
        with pytest.raises(TypeError, match=r"ChernNumbers\.d must be an int, got 16\.0"):
            evaluate((16.0, -12, 9, 3))
        assert evaluate((16, -12, 9, 3)) == evaluate(chern)
        assert type(evaluate(chern)) in (int, Fraction)
    with pytest.raises(TypeError):
        q_general(2).evaluate(SimpleNamespace(d=16.0, k=-12, s=9, x=3))
    assert a_form(2).evaluate(chern) == -279
    assert s_alpha("A1").evaluate((16, -12, 9, 3)) == 27
    # a record is read as it is
    assert ChernNumbers._make(chern) is chern
