"""Command-line entry point.

One subcommand per capability: graph enumeration, induced-density queries,
certificate verification, lower-bound profile emission, exhaustive search,
and the degree-triple inequality scan.  Every report is plain text ending in
``key=value`` trailer lines so scripts can assert on outcomes without
scraping prose.

Exit status: 0 success / verified, 1 verification failure or counterexample
found, 2 usage or input error.  Reports are deterministic: identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .certificates import (
    compare_with_golden,
    load_certificate,
    load_golden,
    parse_certificate,
    parse_golden,
    verify_certificate,
)
from .constructions import profile_csv, profile_table
from .exactmath import frac
from .graphs import (
    MAX_ORDER,
    SmallGraph,
    _level,
    check_order,
    count_induced,
    emit_paircode,
    induced_density,
    parse_graph,
    to_graph6,
)
from .oracle import (
    SEARCH_CSV_HEADER,
    max_density_search,
    max_density_table,
    want_inequality_scan,
)


class UsageError(Exception):
    """Bad arguments or unreadable input; maps to exit status 2."""


def _read(source: str, parse, load):
    """``-`` is document text on standard input, never a file name."""
    return parse(sys.stdin.read()) if source == "-" else load(source)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_enumerate(args: argparse.Namespace) -> int:
    check_order(args.order)  # then print each class as it is listed, not the whole order
    count = 0
    for count, mask in enumerate(_level(args.order, 0, 0), 1):
        g = SmallGraph(args.order, mask)
        print(to_graph6(g) if args.graph6 else emit_paircode(g))
    print(f"count={count}")
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    h = parse_graph(args.h)
    g = parse_graph(args.g)
    dens = induced_density(h, g)
    print(f"pattern: {emit_paircode(h)}")
    print(f"host: {emit_paircode(g)}")
    print(f"count={count_induced(h, g)}")
    print(f"density={dens}")
    print(f"density_approx={float(dens):.9f}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.cert == "-" and args.golden == "-":
        raise UsageError("only one of --cert and --golden may read standard input")
    cert = _read(args.cert, parse_certificate, load_certificate)
    if args.golden is not None:  # bad input stops before any report line
        golden = _read(args.golden, parse_golden, load_golden)
        golden.check_certificate(cert)
    report = verify_certificate(cert, k0=args.k0)
    for line in report.lines():
        print(line)
    mismatches: list[str] = []
    if args.golden is not None:
        mismatches = compare_with_golden(report, golden)
        print(f"golden mismatches: {len(mismatches)}")
        for m in mismatches:
            print(f"  {m}")
    print(f"verdict={report.verdict}")
    if report.max_coefficient is not None:
        print(f"max_coefficient={report.max_coefficient}")
    if report.k0 is not None:
        print(f"k0={report.k0}")
    print(f"zero_set_size={len(report.zero_set)}")
    if args.golden is not None:
        print(f"golden_mismatches={len(mismatches)}")
    return 0 if report.passed and not mismatches else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    points = profile_table(args.from_, args.to, args.step)
    text = profile_csv(points)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote {len(points)} points to {args.out}")
        print(f"points={len(points)}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    h = parse_graph(args.h)
    if args.edges is not None:
        rows = [max_density_search(h, args.n, args.edges)]
    else:
        rows = list(max_density_table(h, args.n))
    print(SEARCH_CSV_HEADER)
    for row in rows:
        print(row.csv_row())
    best = max(rows, key=lambda r: r.max_count)
    print(f"max_count={best.max_count}")
    print(f"density={best.density}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    try:
        ks = [frac(tok) for tok in args.k.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--k expects comma-separated rationals, got {args.k!r}")
    report = want_inequality_scan(ks, args.nmax)
    for line in report.lines():
        print(line)
    print(f"verdict={'PASS' if report.passed else 'FAIL'}")
    print(f"triples_checked={report.triples_checked}")
    print(f"violations={len(report.violations)}")
    print(f"tight_points={len(report.turan_equalities)}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flagcert",
        description="exact verification of density certificates and bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all isomorphism classes of an order")
    p.add_argument("--order", type=int, required=True, help=f"vertex count (1..{MAX_ORDER})")
    p.add_argument("--graph6", action="store_true", help="emit graph6 instead of pair codes")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("density", help="induced density of a pattern in a host")
    p.add_argument("--h", required=True, help="pattern graph (graph6 or pair code)")
    p.add_argument("--g", required=True, help="host graph (graph6 or pair code)")
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("--cert", required=True, help="certificate path, bundled name, or - for stdin")
    p.add_argument("--k0", type=frac, default=None, help="ray base point for parametric certificates")
    p.add_argument("--golden", default=None, help="reference table: path, bundled name, or - for stdin")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("profile", help="emit the lower-bound profile curve as CSV")
    p.add_argument("--from", dest="from_", type=frac, required=True, metavar="Q")
    p.add_argument("--to", type=frac, required=True, metavar="Q")
    p.add_argument("--step", type=frac, required=True, metavar="Q")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("oracle", help="exhaustive max induced-count search at small order")
    p.add_argument("--h", required=True, help="pattern graph (graph6 or pair code)")
    p.add_argument("--n", type=int, required=True, help=f"host order (1..{MAX_ORDER})")
    p.add_argument("--edges", type=int, default=None, help="restrict hosts to this edge count")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("scan", help="exhaustive degree-triple inequality scan")
    p.add_argument("--k", required=True, help="comma-separated rationals, each >= 3")
    p.add_argument("--nmax", type=int, required=True, help="largest vertex count to scan")
    p.set_defaults(handler=_cmd_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, ValueError, ZeroDivisionError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
