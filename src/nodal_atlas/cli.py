"""Command-line front-end: every computation in the package behind one
batch-oriented executable with exact text/JSON/CSV output.

Exit codes: 0 success, 2 validation failure (bad arguments), 3 internal
consistency failure (an exact identity that should hold does not).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import lru_cache
from itertools import chain, repeat

from . import checks
from .bell import MAX_R, complete_bell, eval_complete_bell, partial_bell
from .chow import Q_MAX, c_correction_p2, q_general, q_p2_closed, q_p2_extraction
from .exact import format_rational
from .kazarian import count_multisingular, parse_type, s_alpha, type_key
from .partitions import format_partition, iter_partitions, mobius_coefficient
from .qseries import (
    TABLE_ORDER,
    discriminant,
    eisenstein_g2,
    gyz_channel_residual,
    recover_b1,
    recover_b2,
)
from .tables import (
    MAX_I,
    ChernNumbers,
    all_forms,
    node_count,
    node_count_bruteforce,
    node_polynomial,
    ratio_table,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3

# Largest `series --order`; at this order the slowest series (--delta) takes
# well under a second from a cold start.
MAX_SERIES_ORDER = 60
# Largest `qn --n`: the plane quadratic at n = 1000 has coefficients of about
# 800 digits and prints in well under a second in every format; far larger n
# runs for seconds and then overflows Python's int-to-string digit limit.
MAX_QN_N = 1000
# Largest `partitions --r`: B_10 = 115975 lines.  Every format streams one
# partition at a time, but B_12 would be about 4.2M lines of output.
MAX_PARTITIONS_R = 10
# Largest node count `count --oracle` also checks by enumerating every set
# partition (B_9 = 21147 of them); the signature-sum oracle covers every r.
MAX_BRUTEFORCE_NODES = 9


class ConsistencyError(Exception):
    """An exact identity that must hold numerically failed."""


def _check_range(flag, value, lo, hi):
    """Refuse an out-of-range argument, naming its flag, before any work."""
    if not lo <= value <= hi:
        raise ValueError(f"{flag} must be in {lo}..{hi}, got {value}")


def _parse_chern(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"--chern wants four comma-separated integers, got {text!r}")
    d, k, s, x = (int(p) for p in parts)
    if (d + k) % 2:
        raise ValueError(f"--chern {text}: adjunction needs L^2 + L.K = d + k even, got {d + k}")
    if (s + x) % 12:
        raise ValueError(
            f"--chern {text}: Noether's formula needs K^2 + c_2 = s + x divisible by 12, "
            f"got {s + x}"
        )
    return ChernNumbers(d, k, s, x)


def _surface(args):
    if args.degree is not None and args.chern is not None:
        raise ValueError("give either --degree (plane curves) or --chern, not both")
    if args.degree is not None:
        if args.degree < 1:
            raise ValueError(f"--degree must be >= 1, got {args.degree}")
        return ChernNumbers.p2(args.degree)
    if args.chern is not None:
        return _parse_chern(args.chern)
    raise ValueError("a surface is required: --degree D for the plane, or --chern d,k,s,x")


def _emit(args, text_lines, payload, csv_rows=None):
    if args.format == "text":
        sys.stdout.writelines(f"{line}\n" for line in text_lines)
    elif args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(csv_rows or [])


def _emit_form(args, payload, form):
    """A linear form in (d, k, s, x) as text, as payload["form"] or as a CSV row."""
    cells = form.to_dict()
    _emit(args, [str(form)], dict(payload, form=cells), [list(cells), list(cells.values())])


def _emit_coefficients(args, text, payload, coefficients, index):
    """A coefficient list as `text`, as payload["coefficients"] or as CSV rows."""
    rows = [[index, "coefficient"], *enumerate(coefficients)]
    _emit(args, [text], dict(payload, coefficients=coefficients), rows)


def _cmd_count(args):
    _check_range("--nodes", args.nodes, 0, MAX_I)
    chern = _surface(args)
    value = node_count(args.nodes, chern)
    if args.oracle:
        oracle = checks.node_count_by_signatures(args.nodes, chern)
        if oracle != value:
            raise ConsistencyError(
                f"oracle disagreement at r={args.nodes}: {value} vs signature sum {oracle}"
            )
        if args.nodes <= MAX_BRUTEFORCE_NODES:
            brute = node_count_bruteforce(args.nodes, chern)
            if brute != value:
                raise ConsistencyError(
                    f"oracle disagreement at r={args.nodes}: {value} vs brute-force {brute}"
                )
    payload = {
        "command": "count",
        "nodes": args.nodes,
        "chern": {"d": str(chern.d), "k": str(chern.k), "s": str(chern.s), "x": str(chern.x)},
        "count": str(value),
    }
    _emit(args, [str(value)], payload, [["nodes", "count"], [args.nodes, value]])
    return EXIT_OK


def _cmd_zr(args):
    _check_range("--r", args.r, 1, MAX_I)
    poly = node_polynomial(args.r)
    names = ["d", "k", "s", "x"]
    payload = {"command": "zr", "r": args.r, "terms": poly.to_records()}
    rows = [["e_d", "e_k", "e_s", "e_x", "coefficient"]]
    for rec in poly.to_records():
        rows.append(rec["exponents"] + [rec["coefficient"]])
    _emit(args, [poly.__str__(names=names)], payload, rows)
    return EXIT_OK


def _cmd_qn(args):
    clash = [f"--{flag}" for flag in ("p2", "extraction", "oracle") if getattr(args, flag)]
    if args.general and clash:
        raise ValueError(f"--general cannot be combined with {', '.join(clash)}")
    _check_range("--n", args.n, 1, MAX_QN_N)
    for flag in ("general", "extraction", "oracle"):
        if getattr(args, flag):
            _check_range(f"--n with --{flag}", args.n, 1, Q_MAX)
    if args.general:
        _emit_form(args, {"command": "qn", "n": args.n, "surface": "general"}, q_general(args.n))
        return EXIT_OK
    closed = q_p2_closed(args.n)
    if args.oracle or args.extraction:
        extracted = q_p2_extraction(args.n)
        if args.oracle and closed != extracted:
            raise ConsistencyError(
                f"closed formula and coefficient extraction disagree at n={args.n}"
            )
        if args.extraction:
            closed = extracted
    payload = {"command": "qn", "n": args.n, "surface": "p2"}
    _emit_coefficients(args, str(closed), payload, closed.to_list(), "degree")
    return EXIT_OK


def _cmd_cn(args):
    _check_range("--n", args.n, 1, 4)  # no correction term is known past C_4
    poly = c_correction_p2(args.n)
    _emit_coefficients(args, str(poly), {"command": "cn", "n": args.n}, poly.to_list(), "degree")
    return EXIT_OK


def _cmd_bell(args):
    _check_range("--n", args.n, 1, MAX_R)
    if args.kind == "complete":
        poly = complete_bell(args.n)
    else:
        if args.blocks is None:
            raise ValueError("partial Bell polynomials need --blocks")
        _check_range("--blocks", args.blocks, 1, args.n)
        poly = partial_bell(args.n, args.blocks)
    payload = {
        "command": "bell",
        "kind": args.kind,
        "n": args.n,
        "terms": poly.to_records(),
    }
    if args.kind == "partial":
        payload["blocks"] = args.blocks
    rows = [["exponents", "coefficient"]] + [
        [" ".join(map(str, rec["exponents"])), rec["coefficient"]]
        for rec in poly.to_records()
    ]
    _emit(args, [str(poly)], payload, rows)
    return EXIT_OK


def _cmd_partitions(args):
    _check_range("--r", args.r, 1, MAX_PARTITIONS_R)
    parts = iter_partitions(args.r)
    if args.format == "text":
        if args.mobius:
            lines = (f"{format_partition(pi)}  mobius={mobius_coefficient(pi)}" for pi in parts)
        else:
            lines = map(format_partition, parts)
        _emit(args, lines, None)
    elif args.format == "json":  # streamed, in the bytes of json.dumps(..., indent=2)
        head = {"command": "partitions", "r": args.r,
                "count": eval_complete_bell(args.r, [1] * args.r)}  # Bell number B_r
        sys.stdout.write(json.dumps(head, indent=2)[:-2] + ',\n  "partitions": [')
        record = '%s\n    {\n      "partition": %s,\n      "blocks": %d,\n      "mobius": "%d"\n    }'
        sys.stdout.writelines(
            record % (sep, json.dumps(format_partition(pi)), len(pi), mobius_coefficient(pi))
            for sep, pi in zip(chain([""], repeat(",")), parts))
        sys.stdout.write("\n  ]\n}\n")
    else:
        rows = ([format_partition(pi), len(pi), mobius_coefficient(pi)] for pi in parts)
        _emit(args, [], None, chain([["partition", "blocks", "mobius"]], rows))
    return EXIT_OK


def _cmd_kazarian(args):
    alpha = parse_type(args.type)
    key = type_key(alpha)
    if args.degree is None and args.chern is None:
        _emit_form(args, {"command": "kazarian", "type": key}, s_alpha(alpha))
        return EXIT_OK
    chern = _surface(args)
    value = count_multisingular(alpha, chern)
    if value.denominator != 1:
        raise ConsistencyError(
            f"multisingularity count is not integral for {key}: {value}"
        )
    payload = {"command": "kazarian", "type": key, "count": str(value.numerator)}
    _emit(args, [str(value.numerator)], payload, [["type", "count"], [key, value.numerator]])
    return EXIT_OK


# `series --NAME` at (--order, --order capped at the extent of the table)
_SERIES = {
    "g2": lambda order, table_order: eisenstein_g2(order),
    "delta": lambda order, table_order: discriminant(order),
    "b1": lambda order, table_order: recover_b1(table_order, all_forms()),
    "b2": lambda order, table_order: recover_b2(table_order, all_forms()),
}


def _cmd_series(args):
    order = args.order
    _check_range("--order", order, 0, MAX_SERIES_ORDER)
    # the series read from the coefficient table stop where the table does
    table_order = min(order, TABLE_ORDER)
    if args.gyz_check:
        if args.channel is None:
            raise ValueError("--gyz-check needs --channel (one of d, k, s, x)")
        residual = gyz_channel_residual(args.channel, table_order, all_forms())
        ok = residual.is_zero()
        coefficients = residual.to_list()
        text = "residual: 0" if ok else f"residual: {coefficients}"
        payload = {
            "command": "series",
            "series": "gyz-residual",
            "channel": args.channel,
            "order": table_order,
            "zero": ok,
        }
        _emit_coefficients(args, text, payload, coefficients, "n")
        return EXIT_OK if ok else EXIT_INCONSISTENT
    series = _SERIES[args.which](order, table_order)
    coefficients = series.to_list()
    payload = {"command": "series", "series": args.which, "order": series.order}
    _emit_coefficients(args, ", ".join(coefficients), payload, coefficients, "n")
    return EXIT_OK


def _cmd_ratios(args):
    table = ratio_table()
    lines = []
    records = []
    rows = [["n", "D", "E", "F", "G"]]
    for row in table:
        rendered = row.rendered()
        exact = {
            col: (None if v is None else format_rational(v))
            for col, v in (("D", row.D), ("E", row.E), ("F", row.F), ("G", row.G))
        }
        records.append({"n": row.n, "rendered": rendered, "exact": exact})
        cells = [rendered[c] for c in ("D", "E", "F", "G")]
        rows.append([row.n] + cells)
        lines.append(f"{row.n:2d}  " + "  ".join(f"{c:>6s}" for c in cells))
    payload = {"command": "ratios", "rows": records}
    _emit(args, lines, payload, rows)
    return EXIT_OK


def _cmd_check(args):
    # malformed data assets are a validation error, not failing checks
    all_forms()
    s_alpha("A1")
    results = checks.run_all()
    lines = []
    rows = [["check", "status", "detail"]]
    ok_all = True
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        ok_all = ok_all and res.ok
        lines.append(f"[{status}] {res.name}" + (f": {res.detail}" if res.detail else ""))
        rows.append([res.name, status, res.detail])
    payload = {
        "command": "check",
        "passed": ok_all,
        "results": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    _emit(args, lines, payload, rows)
    return EXIT_OK if ok_all else EXIT_INCONSISTENT


@lru_cache(maxsize=1)  # a parser keeps no state between parses; build it once
def build_parser():
    parser = argparse.ArgumentParser(
        prog="nodal-atlas",
        description="Exact node counts, node polynomials and q-series identities "
        "for curves on surfaces.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="number of r-nodal curves")
    p.add_argument("--nodes", "-r", type=int, required=True)
    p.add_argument("--degree", "-d", type=int, help="plane curves of this degree")
    p.add_argument("--chern", help="surface as d,k,s,x")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the signature-sum oracle and, for "
                   f"r <= {MAX_BRUTEFORCE_NODES}, the sum over all set partitions")
    p.set_defaults(run=_cmd_count)

    p = sub.add_parser("zr", parents=[common],
                       help="universal node polynomial in (d, k, s, x)")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(run=_cmd_zr)

    p = sub.add_parser("qn", parents=[common], help="diagonal equivalence terms")
    p.add_argument("--n", type=int, required=True,
                   help=f"1..{MAX_QN_N} (--general, --extraction and --oracle stop at {Q_MAX})")
    p.add_argument("--general", action="store_true",
                   help="general surface (linear form) instead of the plane")
    p.add_argument("--p2", action="store_true", help="plane specialization (default)")
    p.add_argument("--extraction", action="store_true",
                   help="use coefficient extraction instead of the closed formula")
    p.add_argument("--oracle", action="store_true",
                   help="verify closed formula against extraction")
    p.set_defaults(run=_cmd_qn)

    p = sub.add_parser("cn", parents=[common], help="correction terms for the plane")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_cn)

    p = sub.add_parser("bell", parents=[common], help="Bell polynomials")
    p.add_argument("kind", choices=("complete", "partial"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--blocks", "-l", type=int, help="block count for partial")
    p.set_defaults(run=_cmd_bell)

    p = sub.add_parser("partitions", parents=[common], help="set partitions of {1..r}")
    p.add_argument("--r", type=int, required=True, help=f"ground set size, 1..{MAX_PARTITIONS_R}")
    p.add_argument("--mobius", action="store_true",
                   help="annotate each partition with its Moebius coefficient")
    p.set_defaults(run=_cmd_partitions)

    p = sub.add_parser("kazarian", parents=[common],
                       help="multisingularity forms and counts")
    p.add_argument("--type", required=True, help="e.g. A1^2*A2")
    p.add_argument("--degree", "-d", type=int, help="count on plane curves of this degree")
    p.add_argument("--chern", help="count on the surface d,k,s,x")
    p.set_defaults(run=_cmd_kazarian)

    p = sub.add_parser("series", parents=[common], help="exact q-series")
    which = p.add_mutually_exclusive_group()
    for name in _SERIES:
        which.add_argument(f"--{name}", dest="which", action="store_const", const=name)
    which.add_argument("--gyz-check", dest="gyz_check", action="store_true",
                       help="residual of one channel of the log generating identity")
    p.add_argument("--channel", choices=("d", "k", "s", "x"))
    p.add_argument("--order", type=int, default=TABLE_ORDER,
                   help=f"truncation order, 0..{MAX_SERIES_ORDER} (--b1, --b2 and "
                   f"--gyz-check stop at {TABLE_ORDER})")
    p.set_defaults(run=_cmd_series, which="g2", gyz_check=False)

    p = sub.add_parser("ratios", parents=[common],
                       help="consecutive-row ratios of the coefficient table")
    p.set_defaults(run=_cmd_ratios)

    p = sub.add_parser("check", parents=[common],
                       help="run the full table-reproduction and identity suite")
    p.set_defaults(run=_cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        return EXIT_OK
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its argument, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, AssertionError, ConsistencyError) as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
