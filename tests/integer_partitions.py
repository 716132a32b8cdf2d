"""Block-size signatures enumerated one by one, the tests' independent
oracle for `partitions.signature_tree`: a signature maps block size to
multiplicity, and its count is given by the closed formula."""

import math

from nodal_atlas.exact import require_ints


def signature_count(r, sig):
    """Number of set partitions of an r-set with j_i blocks of size i.

    sig maps block size to multiplicity; sizes with zero multiplicity may be
    omitted.  Formula: r! / (prod_i (i!)^{j_i} j_i!).
    """
    require_ints("signature_count", r=r)
    total = sum(i * j for i, j in sig.items())
    if total != r:
        raise ValueError(f"signature {sig} is inconsistent with r={r}")
    denom = 1
    for i, j in sig.items():
        if j < 0 or i < 1:
            raise ValueError(f"signature {sig} has an invalid entry")
        denom *= math.factorial(i) ** j * math.factorial(j)
    return math.factorial(r) // denom


def integer_partition_signatures(r):
    """All signatures {size: count} with sum size*count == r, deterministic order."""
    require_ints("integer_partition_signatures", r=r)
    out = []

    def descend(remaining, max_part, acc):
        if remaining == 0:
            out.append(dict(acc))
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc[part] = acc.get(part, 0) + 1
            descend(remaining - part, part, acc)
            acc[part] -= 1
            if acc[part] == 0:
                del acc[part]

    descend(r, r, {})
    return out
