"""Thom polynomials for multisingularities of codimension <= 4 and the
partition-sum counting formula for curves with a prescribed multisingularity.

Which products of tabulated forms the formula sums, and how often, depends
on the type alone, so one walk of its set partitions builds the type's plan
once; a count then evaluates each sub-type of the plan once at the surface's
Chern numbers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from . import assets
from .chow import ChernNumbers, LinearForm
from .exact import require_ints
from .partitions import iter_partitions

CODIM = {"A1": 1, "A2": 2, "A3": 3, "A4": 4, "D4": 4}

# A label is a key of CODIM.  An exponent of 0 does not parse: A1^0*A2 is not A2.
_LABEL_RE = re.compile(rf"^({'|'.join(CODIM)})(?:\^(0*[1-9]\d*))?$")
# Every label has codimension >= 1, so no exponent can exceed the largest codimension.
MAX_CODIM = max(CODIM.values())


@lru_cache(maxsize=256)
def parse_type(text):
    """The sorted label tuple of a string like 'A1^2*A2' or 'A1*A3'."""
    labels = []
    for token in text.split("*"):
        m = _LABEL_RE.match(token.strip())
        if not m:
            raise ValueError(f"cannot parse multisingularity token {token!r}")
        power = int(m.group(2) or 1)
        if power > MAX_CODIM:
            raise ValueError(
                f"exponent {power} in {token.strip()!r} exceeds {MAX_CODIM}, the "
                f"largest codimension in the table"
            )
        labels.extend([m.group(1)] * power)
    return tuple(sorted(labels))


def type_key(labels):
    """Canonical text of a type, multiplicities folded into exponents."""
    parts = []
    for lab in sorted(set(labels)):
        m = labels.count(lab)
        parts.append(lab if m == 1 else f"{lab}^{m}")
    return "*".join(parts)


def _as_type(alpha):
    """A type given as text or as any iterable of labels, as its sorted
    label tuple; an unknown label or an empty type raises ValueError."""
    if isinstance(alpha, str):
        return parse_type(alpha)
    labels = tuple(sorted(alpha))
    for lab in labels:
        if lab not in CODIM:
            raise ValueError(f"unknown singularity label {lab!r}")
    if not labels:
        raise ValueError("a multisingularity type needs at least one label")
    return labels


def aut_order(alpha):
    """Order of the symmetry group permuting identical labels."""
    labels = _as_type(alpha)
    return math.prod(math.factorial(labels.count(lab)) for lab in set(labels))


@lru_cache(maxsize=None)
def _table():
    """The validated Thom table, keyed by sorted label tuple, each entry its
    form and the form's integer row (d, k, s, x), and those tuples grouped
    by codimension in table order; malformed data raises ValueError naming
    the file and the row.  Callers must not mutate it."""
    table, by_codim = {}, {}

    def parse_row(position, row):
        labels = parse_type(row["labels"])
        if labels in table:
            raise ValueError(f"duplicate type {type_key(labels)}")
        ints = tuple(assets.integer(row[c]) for c in "dksx")
        table[labels] = LinearForm(*ints), ints
        by_codim.setdefault(sum(map(CODIM.get, labels)), []).append(labels)

    assets.load_rows("kazarian.json", ("labels", "d", "k", "s", "x"), parse_row)
    return table, by_codim


def tabulated_types(codim):
    """The tabulated types of the given codimension, in table order; a new list per call."""
    require_ints("tabulated_types", codim=codim)
    return list(_table()[1].get(codim, ()))


def _entry(labels):
    """The tabulated (form, integer row) of a sorted label tuple."""
    entry = _table()[0].get(labels)
    if entry is None:
        raise KeyError(
            f"multisingularity type {type_key(labels)} is not in the table "
            f"(codimension {sum(map(CODIM.get, labels))})"
        )
    return entry


def s_alpha(alpha):
    """The tabulated linear form for a type of codimension <= 4."""
    return _entry(_as_type(alpha))[0]


@lru_cache(maxsize=64)
def _plan(labels):
    """The counting formula's combinatorics for a sorted label tuple, from
    one walk of the set partitions of its indices: (|Aut|, the sub-types of
    its blocks, ((sub-type indices, multiplicity), ...)), one entry per
    multiset of sub-types that a partition induces.  It holds no table data,
    so reloading the table cannot leave a count stale."""
    subs, terms = {}, {}
    for pi in iter_partitions(len(labels)):
        # a block's indices increase, so its labels stay sorted
        key = tuple(sorted(subs.setdefault(tuple(labels[i - 1] for i in block), len(subs))
                           for block in pi.blocks))
        terms[key] = terms.get(key, 0) + 1
    return aut_order(labels), tuple(subs), tuple(terms.items())


def count_multisingular(alpha, chern):
    """Number of curves with the prescribed multisingularity through the
    expected number of general points.

    Sum over unordered set partitions of the label index set of products of
    the tabulated forms on the induced sub-multisets, divided by the
    automorphism order of the type.  Exact rational; integral for geometric
    Chern numbers, which are read through ChernNumbers like node_count's.
    """
    chern = ChernNumbers._make(chern)
    labels = _as_type(alpha)
    _entry(labels)  # a type outside the table fails before any enumeration
    aut, subs, terms = _plan(labels)
    d, k, s, x = chern
    rows = (_entry(sub)[1] for sub in subs)
    values = [rd * d + rk * k + rs * s + rx * x for rd, rk, rs, rx in rows]
    total = 0
    for key, term in terms:
        for i in key:
            term *= values[i]
        total += term
    return Fraction(total, aut)
