"""The benchmark's four workloads: seeded job lists, the library calls that
run them, and the untimed verification of every result.

A job is a plain tuple ``(kind, *args)`` so that job lists compare, print
and hash the same way on every commit.  Every library call goes through a
module attribute (``tables.node_count``, not a name imported from it), so
that the tracer's wrappers see it.

Verification never reuses the code path that produced a result: it uses an
independent path in the library or a closed form computed here with plain
integers and rationals.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
from fractions import Fraction

from nodal_atlas import bell, chow, cli, kazarian, partitions, qseries, tables

# Every multisingularity type of codimension <= 4 in the shipped Thom table.
TYPES = (
    "A1", "A2", "A1^2", "A3", "A1*A2", "A1^3",
    "A4", "D4", "A1*A3", "A2^2", "A1^2*A2", "A1^4",
)
FORMATS = ("text", "json", "csv")

# Node counts per r in `sweep`: skewed towards r >= 10, where Bell
# evaluation costs the most.  Fixed quotas keep the cost of a job list the
# same for every seed; the seed picks surfaces and the order.
SWEEP_QUOTA = {**{r: 16 for r in range(0, 10)}, **{r: 40 for r in range(10, 16)}}

# The x (and hence s) channel of the log generating identity misses by
# 992/3 at q^15 against the published row-15 x-cell; d and k vanish.
DEFECT_ORDER = 15
DEFECT_RESIDUAL = "992/3"
DEFECT_CHECK = "generating-identity channel residuals (d, x)"
DEFECT_DETAIL = "x-channel nonzero at [(15, '992/3')] (known published-table defect)"

# Plane correction terms C_n and the cuspidal excess, constant term first.
REFERENCE_C_P2 = {1: [], 2: [], 3: [-72, 96, -30], 4: [-1158, 1425, -420]}
REFERENCE_EXCESS = [144, -192, 60]


# ---------------------------------------------------------------- inputs

def general_surface(rng):
    """Chern numbers (d, k, s, x) of a polarized surface.

    Adjunction makes L^2 + L.K even and Noether makes K^2 + c_2 divisible
    by 12; off that lattice node counts are not integral and the library
    rightly raises.
    """
    s = rng.randint(-20, 20)
    x = 12 * rng.randint(1, 20) - s
    d = rng.randint(1, 400)
    k = rng.randint(-60, 60)
    k += (d + k) % 2
    return (d, k, s, x)


def plane_surface(rng):
    """(P^2, O(degree)) for a seeded degree."""
    degree = rng.randint(1, 60)
    return (degree * degree, -3 * degree, 9, 3)


def _surface(rng, i):
    return plane_surface(rng) if i % 2 else general_surface(rng)


def make_jobs(workload, seed):
    """The job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _MAKERS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def _sweep_jobs(rng):
    jobs = [
        ("node_count", r, _surface(rng, i))
        for r, n in SWEEP_QUOTA.items()
        for i in range(n)
    ]
    for label in TYPES:
        jobs.append(("count_multisingular", label, general_surface(rng)))
        jobs.append(("count_multisingular", label, plane_surface(rng)))
        r = rng.randint(1, 15)
        jobs.append(("severi_degree_p2", rng.randint(r // 2 + 1, 60), r))
    return jobs


def _expand_jobs(rng):
    jobs = [("node_polynomial", r) for r in range(1, 16)]
    jobs += [("complete_bell", n) for n in range(1, 16)]
    jobs += [("partial_bell", n, l) for n in range(1, 16) for l in range(1, n + 1)]
    for kind in ("q_general", "q_p2_extraction", "q_p2_closed"):
        jobs += [(kind, n) for n in range(1, 9)]
    jobs += [("c_correction_p2", n) for n in range(1, 5)]
    jobs.append(("excess_a1a2_p2",))
    degrees = rng.sample(range(3, 41), 6)
    jobs += [("multiple_point_degree", r, d) for r in range(1, 5) for d in degrees]
    return jobs


def _identities_jobs(rng):
    jobs = [("cli", ("check", "--format", "json")), ("cli", ("check",))]
    for channel in "dksx":
        for order in range(1, 16):
            for fmt in rng.sample(FORMATS, 2):
                jobs.append(("cli", ("series", "--gyz-check", "--channel", channel,
                                     "--order", str(order), "--format", fmt)))
    for which in ("b1", "b2"):
        for order in range(1, 16):
            for fmt in rng.sample(FORMATS, 2):
                jobs.append(("cli", ("series", f"--{which}", "--order", str(order),
                                     "--format", fmt)))
    for which in ("delta", "g2"):
        for order in range(1, 17):
            jobs.append(("cli", ("series", f"--{which}", "--order", str(order),
                                 "--format", rng.choice(FORMATS))))
    return jobs


def _lattice_jobs(rng):
    jobs = [("partition_lattice", r) for r in range(1, 11)]
    jobs += [("node_count_bruteforce", r, _surface(rng, i))
             for r in range(1, 10) for i in range(3)]
    jobs += [("count_multisingular", label, _surface(rng, i))
             for label in TYPES for i in range(15)]
    jobs.append(("cli", ("partitions", "--r", "9", "--mobius")))
    return jobs


_MAKERS = {
    "sweep": _sweep_jobs,
    "expand": _expand_jobs,
    "identities": _identities_jobs,
    "lattice": _lattice_jobs,
}
WORKLOADS = tuple(_MAKERS)


# ---------------------------------------------------------------- running

def _chern(t):
    return tables.ChernNumbers(*t)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _partition_lattice(r):
    return [(pi, partitions.mobius_coefficient(pi)) for pi in partitions.enumerate_partitions(r)]


_RUNNERS = {
    "node_count": lambda r, c: tables.node_count(r, _chern(c)),
    "node_count_bruteforce": lambda r, c: tables.node_count_bruteforce(r, _chern(c)),
    "severi_degree_p2": lambda d, r: tables.severi_degree_p2(d, r),
    "count_multisingular": lambda label, c: kazarian.count_multisingular(label, _chern(c)),
    "node_polynomial": lambda r: tables.node_polynomial(r),
    "complete_bell": lambda n: bell.complete_bell(n),
    "partial_bell": lambda n, l: bell.partial_bell(n, l),
    "q_general": lambda n: chow.q_general(n),
    "q_p2_extraction": lambda n: chow.q_p2_extraction(n),
    "q_p2_closed": lambda n: chow.q_p2_closed(n),
    "c_correction_p2": lambda n: chow.c_correction_p2(n),
    "excess_a1a2_p2": lambda: chow.excess_a1a2_p2(),
    "multiple_point_degree": lambda r, d: chow.multiple_point_degree(r, d),
    "partition_lattice": _partition_lattice,
    "cli": _run_cli,
}


def runner(job):
    """A no-argument callable that runs the job against the library."""
    fn = _RUNNERS[job[0]]
    args = job[1:]
    return lambda: fn(*args)


# ------------------------------------------------- independent closed forms

def bell_numbers(n):
    """B_0..B_n by the Bell triangle."""
    out, row = [1], [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


def stirling2(n, k):
    table = [[1]]
    for m in range(1, n + 1):
        prev = table[-1] + [0]
        table.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, m + 1)])
    return table[n][k] if 0 <= k <= n else 0


def complete_bell_value(values):
    """Y_r(x_1..x_r) by Y_{n+1} = sum_k C(n,k) x_{k+1} Y_{n-k}."""
    y = [1]
    for n in range(len(values)):
        y.append(sum(math.comb(n, k) * values[k] * y[n - k] for k in range(n + 1)))
    return y[-1]


def expected_node_count(r, chern):
    """Y_r(a_1..a_r) / r! with a_i = (-1)^{i-1} (i-1)! (D d + E k + F s + G x)."""
    d, k, s, x = chern
    values = []
    for i in range(1, r + 1):
        f = tables.a_form(i)
        values.append((-1) ** (i - 1) * math.factorial(i - 1)
                      * (f.D * d + f.E * k + f.F * s + f.G * x))
    return Fraction(complete_bell_value(values), math.factorial(r))


def set_partitions(items):
    """All set partitions of a list, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def expected_multisingular(label, chern):
    labels = [tok.split("^")[0] for tok in label.split("*")
              for _ in range(int(tok.split("^")[1]) if "^" in tok else 1)]
    total = Fraction(0)
    for blocks in set_partitions(list(range(len(labels)))):
        prod = Fraction(1)
        for block in blocks:
            form = kazarian.s_alpha("*".join(labels[i] for i in block))
            prod *= form.d * chern[0] + form.k * chern[1] + form.s * chern[2] + form.x * chern[3]
        total += prod
    aut = math.prod(math.factorial(labels.count(lab)) for lab in set(labels))
    return total / aut


def series_exp(log_coeffs):
    """exp of sum_{n>=1} c_n q^n, by n b_n = sum_k k c_k b_{n-k}."""
    order = len(log_coeffs) - 1
    b = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        b[n] = sum(k * log_coeffs[k] * b[n - k] for k in range(1, n + 1)) / n
    return b


def _sigma(n, p=1):
    return sum(d ** p for d in range(1, n + 1) if n % d == 0)


def _mul_trunc(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def expected_g2(order):
    return [Fraction(-1, 24)] + [_sigma(n) for n in range(1, order + 1)]


def expected_delta(order):
    """(E_4^3 - E_6^2) / 1728, from the divisor sums sigma_3 and sigma_5."""
    e4 = [1] + [240 * _sigma(n, 3) for n in range(1, order + 1)]
    e6 = [1] + [-504 * _sigma(n, 5) for n in range(1, order + 1)]
    cube = _mul_trunc(_mul_trunc(e4, e4, order), e4, order)
    square = _mul_trunc(e6, e6, order)
    return [Fraction(c - s, 1728) for c, s in zip(cube, square)]


def _as_strings(coeffs):
    return [str(Fraction(c)) for c in coeffs]


# ------------------------------------------------------------ verification

def oracle_sample(jobs, rng):
    """Indices of the jobs also checked against the slow brute-force oracle:
    one seeded `node_count` job for each r in 1..8, so that every seed checks
    the same sizes and costs the same memory."""
    by_r = {}
    for index, job in enumerate(jobs):
        if job[0] == "node_count" and 1 <= job[1] <= 8:
            by_r.setdefault(job[1], []).append(index)
    return {rng.choice(indices) for _, indices in sorted(by_r.items())}


def oracle_agrees(job, result):
    """The result equals the brute-force oracle's (jobs from oracle_sample)."""
    return tables.node_count_bruteforce(job[1], _chern(job[2])) == result


def verify(job, result, rng):
    """(ok, canonical) for one job's result.

    ``canonical`` is the text the run digest is taken over; ``rng`` draws
    the seeded inputs some checks need.
    """
    return _VERIFIERS[job[0]](rng, *job[1:], result=result)


def _verify_count(rng, r, chern, result):
    return isinstance(result, int) and result == expected_node_count(r, chern), str(result)


def _verify_bruteforce(rng, r, chern, result):
    return result == expected_node_count(r, chern), str(result)


def _verify_severi(rng, d, r, result):
    return result == expected_node_count(r, (d * d, -3 * d, 9, 3)), str(result)


def _verify_multisingular(rng, label, chern, result):
    ok = result.denominator == 1 and result == expected_multisingular(label, chern)
    return ok, str(result)


def _verify_node_polynomial(rng, r, result):
    chern = general_surface(rng)
    value = Fraction(0)
    for expo, c in result.terms.items():
        value += c * math.prod(v ** e for v, e in zip(chern, expo))
    ok = value == tables.node_count(r, _chern(chern))
    return ok, str(result)


def _bell_shape_ok(poly, n, blocks=None):
    for expo in poly.terms:
        if sum(i * j for i, j in enumerate(expo, start=1)) != n:
            return False
        if blocks is not None and sum(expo) != blocks:
            return False
    return True


def _verify_complete_bell(rng, n, result):
    ok = _bell_shape_ok(result, n) and sum(result.terms.values()) == bell_numbers(n)[n]
    return ok, str(result)


def _verify_partial_bell(rng, n, l, result):
    ok = _bell_shape_ok(result, n, l) and sum(result.terms.values()) == stirling2(n, l)
    return ok, str(result)


def _verify_q_general(rng, n, result):
    return result.specialize_p2() == chow.q_p2_closed(n), str(result)


def _verify_q_extraction(rng, n, result):
    return result == chow.q_p2_closed(n), str(result)


def _verify_q_closed(rng, n, result):
    return result == chow.q_p2_extraction(n), str(result)


def _verify_correction(rng, n, result):
    return list(result.coeffs) == REFERENCE_C_P2[n], str(result)


def _verify_excess(rng, result):
    lhs = kazarian.s_alpha("A1*A2").specialize_p2()
    rhs = (result * Fraction(1, 2) + kazarian.s_alpha("A3").specialize_p2()) * -3
    return list(result.coeffs) == REFERENCE_EXCESS and lhs == rhs, str(result)


@functools.lru_cache(maxsize=None)
def _plane_q(i):
    """Q_i on the plane through the general-surface path, not the closed form."""
    return chow.q_general(i).specialize_p2()


def _verify_multiple_point(rng, r, d, result):
    values = []
    for i in range(1, r + 1):
        q = _plane_q(i)(d)
        c = sum(Fraction(v) * d ** e for e, v in enumerate(REFERENCE_C_P2[i]))
        values.append((-1) ** (i - 1) * math.factorial(i - 1) * (q + c))
    return result == complete_bell_value(values), str(result)


def _verify_lattice(rng, r, result):
    by_blocks = [0] * (r + 1)
    mu_sum = mu_abs = 0
    for pi, mu in result:
        by_blocks[len(pi.blocks)] += 1
        mu_sum += mu
        mu_abs += abs(mu)
        if mu != math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in pi.blocks):
            return False, "bad mobius"
    distinct = len({pi.blocks for pi, _ in result})
    ok = (
        distinct == len(result) == bell_numbers(r)[r]
        and by_blocks == [stirling2(r, k) for k in range(r + 1)]
        and mu_sum == (1 if r == 1 else 0)
        and mu_abs == math.factorial(r)  # sum of prod (|B|-1)! counts permutations
    )
    return ok, f"{by_blocks} {mu_sum} {mu_abs}"


def _coefficients(fmt, out):
    if fmt == "json":
        return json.loads(out)["coefficients"]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        if [int(n) for n, _ in rows] != list(range(len(rows))):
            raise ValueError("csv rows out of order")
        return [c for _, c in rows]
    return out.strip().split(", ")


def _verify_series(argv, code, out):
    fmt = argv[argv.index("--format") + 1]
    order = int(argv[argv.index("--order") + 1])
    if argv[1] == "--gyz-check":
        channel = argv[argv.index("--channel") + 1]
        want = ["0"] * (order + 1)
        if channel in "sx" and order >= DEFECT_ORDER:
            want[DEFECT_ORDER] = DEFECT_RESIDUAL
        zero = all(c == "0" for c in want)
        if fmt == "text":
            text = "residual: 0" if zero else f"residual: {want}"
            return code == (0 if zero else 3) and out == text + "\n"
        return code == (0 if zero else 3) and _coefficients(fmt, out) == want
    which = argv[1][2:]
    forms = tables.all_forms()
    if which == "g2":
        want = expected_g2(order)
    elif which == "delta":
        want = expected_delta(order)
    elif which == "b1":
        want = series_exp(qseries.recover_log_b1_direct(order, forms).coeffs)
    else:
        want = series_exp(qseries.recover_log_b2(order, forms).coeffs)
    return code == 0 and _coefficients(fmt, out) == _as_strings(want)


def _verify_check(argv, code, out):
    if "json" in argv:
        results = json.loads(out)["results"]
        rows = [(r["name"], r["ok"], r["detail"]) for r in results]
        failed = [row for row in rows if not row[1]]
        ok = code == 3 and len(rows) > 1 and failed == [(DEFECT_CHECK, False, DEFECT_DETAIL)]
        return ok, json.dumps(rows)
    lines = out.splitlines()
    failed = [line for line in lines if not line.startswith("[PASS] ")]
    ok = code == 3 and len(lines) > 1 and failed == [f"[FAIL] {DEFECT_CHECK}: {DEFECT_DETAIL}"]
    return ok, out


def _verify_partitions_cli(argv, code, out):
    r = int(argv[argv.index("--r") + 1])
    seen = set()
    for line in out.splitlines():
        text, mobius = line.split("  mobius=")
        blocks = tuple(tuple(int(ch) for ch in block) for block in text.split("|"))
        if sorted(e for b in blocks for e in b) != list(range(1, r + 1)):
            return False
        want = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in blocks)
        if int(mobius) != want:
            return False
        seen.add(blocks)
    return code == 0 and len(seen) == len(out.splitlines()) == bell_numbers(r)[r]


def _verify_cli(rng, argv, result):
    code, out, err = result
    if argv[0] == "check":
        return _verify_check(argv, code, out)
    if argv[0] == "series":
        ok = _verify_series(argv, code, out)
    else:
        ok = _verify_partitions_cli(argv, code, out)
    return ok and not err, f"{code}\n{out}"


_VERIFIERS = {
    "node_count": _verify_count,
    "node_count_bruteforce": _verify_bruteforce,
    "severi_degree_p2": _verify_severi,
    "count_multisingular": _verify_multisingular,
    "node_polynomial": _verify_node_polynomial,
    "complete_bell": _verify_complete_bell,
    "partial_bell": _verify_partial_bell,
    "q_general": _verify_q_general,
    "q_p2_extraction": _verify_q_extraction,
    "q_p2_closed": _verify_q_closed,
    "c_correction_p2": _verify_correction,
    "excess_a1a2_p2": _verify_excess,
    "multiple_point_degree": _verify_multiple_point,
    "partition_lattice": _verify_lattice,
    "cli": _verify_cli,
}
