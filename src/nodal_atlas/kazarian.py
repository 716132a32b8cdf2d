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


class MultisingularityType:
    """An unordered multiset of singularity labels, e.g. A1^2*A2."""

    __slots__ = ("labels",)

    def __init__(self, labels):
        labels = tuple(sorted(labels))
        for lab in labels:
            if lab not in CODIM:
                raise ValueError(f"unknown singularity label {lab!r}")
        if not labels:
            raise ValueError("a multisingularity type needs at least one label")
        self.labels = labels

    @classmethod
    def parse(cls, text):
        """Parse strings like 'A1^2*A2' or 'A1*A3'."""
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
        return cls(labels)

    def __eq__(self, other):
        return isinstance(other, MultisingularityType) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __len__(self):
        return len(self.labels)

    @property
    def codim(self):
        return sum(CODIM[lab] for lab in self.labels)

    def key(self):
        """Canonical string, multiplicities folded into exponents."""
        parts = []
        for lab in sorted(set(self.labels)):
            m = self.labels.count(lab)
            parts.append(lab if m == 1 else f"{lab}^{m}")
        return "*".join(parts)

    def sub_type(self, indices):
        return MultisingularityType([self.labels[i] for i in indices])

    def __repr__(self):
        return f"MultisingularityType({self.key()!r})"


def aut_order(alpha):
    """Order of the symmetry group permuting identical labels."""
    n = 1
    for lab in set(alpha.labels):
        n *= math.factorial(alpha.labels.count(lab))
    return n


@lru_cache(maxsize=None)
def _table():
    """The validated Thom table, keyed by canonical type, and the labels of
    its types grouped by codimension in table order; malformed data raises
    ValueError naming the file and the row.  Callers must not mutate it."""
    table, by_codim = {}, {}

    def parse_row(position, row):
        alpha = MultisingularityType.parse(row["labels"])
        key = alpha.key()
        if key in table:
            raise ValueError(f"duplicate type {key}")
        table[key] = LinearForm(*(assets.integer(row[c]) for c in "dksx"))
        by_codim.setdefault(alpha.codim, []).append(alpha.labels)

    assets.load_rows("kazarian.json", ("labels", "d", "k", "s", "x"), parse_row)
    return table, by_codim


def tabulated_types(codim):
    """The tabulated types of the given codimension, in table order; new
    objects on every call, built from the labels parsed once."""
    return [MultisingularityType(labels) for labels in _table()[1].get(codim, ())]


def s_alpha(alpha):
    """The tabulated linear form for a type of codimension <= 4."""
    if isinstance(alpha, str):
        alpha = MultisingularityType.parse(alpha)
    form = _table()[0].get(alpha.key())
    if form is None:
        raise KeyError(
            f"multisingularity type {alpha.key()} is not in the table "
            f"(codimension {alpha.codim})"
        )
    return form


def count_multisingular(alpha, chern):
    """Number of curves with the prescribed multisingularity through the
    expected number of general points.

    Sum over unordered set partitions of the label index set of products of
    the tabulated forms on the induced sub-multisets, divided by the
    automorphism order of the type.  Exact rational; integral for geometric
    Chern numbers.
    """
    if isinstance(alpha, str):
        alpha = MultisingularityType.parse(alpha)
    # the one-block term, looked up first so that a type outside the table
    # fails before any enumeration
    total = Fraction(s_alpha(alpha).evaluate(chern))
    values = {}  # block -> its Thom form at chern, each evaluated once
    # the restricted-growth order puts the one-block partition first
    for pi in islice(iter_partitions(len(alpha)), 1, None):
        prod = Fraction(1)
        for block in pi.blocks:
            value = values.get(block)
            if value is None:
                sub = alpha.sub_type([i - 1 for i in block])
                value = values[block] = s_alpha(sub).evaluate(chern)
            prod *= value
        total += prod
    return total / aut_order(alpha)
