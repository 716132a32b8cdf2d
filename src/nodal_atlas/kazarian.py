"""Thom polynomials for multisingularities of codimension <= 4 and the
partition-sum counting formula for curves with a prescribed multisingularity.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from . import assets
from .chow import LinearForm
from .partitions import iter_partitions

CODIM = {"A1": 1, "A2": 2, "A3": 3, "A4": 4, "D4": 4}

# An exponent of 0 does not parse: A1^0*A2 is not A2.
_LABEL_RE = re.compile(r"^(A[1-4]|D4)(?:\^(0*[1-9]\d*))?$")
# Every label has codimension >= 1 and the table stops at codimension 4.
MAX_CODIM = 4


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
    """The validated Thom table, keyed by sorted label tuple, and those
    tuples grouped by codimension in table order; malformed data raises
    ValueError naming the file and the row.  Callers must not mutate it."""
    table, by_codim = {}, {}

    def parse_row(position, row):
        labels = parse_type(row["labels"])
        if labels in table:
            raise ValueError(f"duplicate type {type_key(labels)}")
        table[labels] = LinearForm(*(assets.integer(row[c]) for c in "dksx"))
        by_codim.setdefault(sum(map(CODIM.get, labels)), []).append(labels)

    assets.load_rows("kazarian.json", ("labels", "d", "k", "s", "x"), parse_row)
    return table, by_codim


def tabulated_types(codim):
    """The tabulated types of the given codimension, in table order; a new list per call."""
    return list(_table()[1].get(codim, ()))


def _form(labels):
    """The tabulated form of a sorted label tuple."""
    form = _table()[0].get(labels)
    if form is None:
        raise KeyError(
            f"multisingularity type {type_key(labels)} is not in the table "
            f"(codimension {sum(map(CODIM.get, labels))})"
        )
    return form


def s_alpha(alpha):
    """The tabulated linear form for a type of codimension <= 4."""
    return _form(_as_type(alpha))


def count_multisingular(alpha, chern):
    """Number of curves with the prescribed multisingularity through the
    expected number of general points.

    Sum over unordered set partitions of the label index set of products of
    the tabulated forms on the induced sub-multisets, divided by the
    automorphism order of the type.  Exact rational; integral for geometric
    Chern numbers.
    """
    labels = _as_type(alpha)
    # the one-block term, looked up first so that a type outside the table
    # fails before any enumeration
    total = Fraction(_form(labels).evaluate(chern))
    values = {}  # block -> its Thom form at chern, each evaluated once
    # the restricted-growth order puts the one-block partition first
    for pi in islice(iter_partitions(len(labels)), 1, None):
        prod = Fraction(1)
        for block in pi.blocks:
            value = values.get(block)
            if value is None:
                # a block's indices increase, so its labels stay sorted
                sub = tuple(labels[i - 1] for i in block)
                value = values[block] = _form(sub).evaluate(chern)
            prod *= value
        total += prod
    return total / aut_order(labels)
