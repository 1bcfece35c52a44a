"""Command-line front end: run suites, emit value tables, dump constructions.

Exit codes: 0 all checks pass, 1 any verification failure, 2 usage error
(any size ``verify.size_error`` refuses: past a minimum, an int64 guard
or the memory budget of the series or tables),
3 internal error (an exception escaped the command; stderr names it).
Rationals always render as "p/q"; JSON reports follow the documented schema
{"suite", "parameters": {"order", "max"}, "checks": [...]}.

Import layers: this module loads only the standard library and the per-n
layer (``oracles``, ``quadforms.hurwitz_H``, ``report``), so ``table``,
``--help`` and every usage error that argparse or ``table`` reports run
without numpy.  ``verify`` imports the batch stack (``verify``, and through
it ``_kernels``, ``series`` and numpy) inside ``cmd_verify``, and
``bijection`` imports ``bijections``, which needs only the per-n layer, so
``bijection`` runs without numpy too.  No path calls BLAS, so
``cmd_verify`` loads numpy with one OpenBLAS thread, unless numpy is already
loaded or the user set ``OPENBLAS_NUM_THREADS``, and restores ``os.environ``
right after the import (library imports of ``qident.verify`` are
unaffected).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import oracles
from .quadforms import hurwitz_H
from .report import SUITE_NAMES

# each column's value at n, computed only when the column is asked for
_COLUMN_VALUES = {
    "n": lambda n: n,
    "a": lambda n: oracles.signed_rep_count(n),
    "b": lambda n: oracles.rep_count(n),
    "r3": lambda n: oracles.rep_squares(3, n),
    "H": lambda n: hurwitz_H(n),
    "H4": lambda n: hurwitz_H(4 * n),
    "sigma0": lambda n: oracles.sigma(0, n) if n > 0 else None,
}
TABLE_COLUMNS = tuple(_COLUMN_VALUES)


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _print_report_text(report, out):
    params = ", ".join(f"{k}={v}" for k, v in report.parameters.items())
    print(f"suite: {report.suite} ({params})", file=out)
    for c in report.checks:
        if c.passed:
            print(f"  [pass] {c.name}", file=out)
        else:
            print(f"  [FAIL] {c.name} at {c.locus}: "
                  f"expected {c.expected}, got {c.actual}", file=out)
    n_fail = len(report.failures)
    verdict = "PASS" if n_fail == 0 else f"FAIL ({n_fail} failing)"
    print(f"result: {verdict} ({len(report.checks)} checks)", file=out)


def _import_verify():
    """``qident.verify``, with numpy loaded without the idle OpenBLAS
    worker pool if this import is the one that loads it.

    No path computes in floats, so BLAS never runs; its pool of one worker
    per core would still start with numpy and spin on the other cores, a
    fixed 0.05 to 0.2 s of CPU per run on a 2-core host.  OpenBLAS reads
    ``OPENBLAS_NUM_THREADS`` once, when it loads, so the variable is set
    only for the import and ``os.environ`` is the user's again after it.
    A value the user set wins.
    """
    if "numpy" in sys.modules or "OPENBLAS_NUM_THREADS" in os.environ:
        from . import verify
        return verify
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        from . import verify
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    return verify


def cmd_verify(args) -> int:
    verify = _import_verify()

    error = verify.size_error(args.suite, args.order, args.max)
    if error is not None:
        return _usage_error(error)
    reports = verify.run_suites(args.suite, args.order, args.max)
    if args.format == "json":
        payload = [r.to_dict() for r in reports]
        json.dump(payload[0] if len(payload) == 1 else payload,
                  sys.stdout, indent=2)
        print()
    else:
        for r in reports:
            _print_report_text(r, sys.stdout)
    return 0 if all(r.passed for r in reports) else 1


def _table_row(n: int, columns) -> dict:
    return {c: _COLUMN_VALUES[c](n) for c in columns}


def cmd_table(args) -> int:
    if args.max < 0:
        return _usage_error("--max must be >= 0")
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    if not columns:
        return _usage_error("--columns names no column")
    for col in columns:
        if col not in TABLE_COLUMNS:
            return _usage_error(f"unknown column {col!r}; "
                                f"choose from {', '.join(TABLE_COLUMNS)}")
    rows = [_table_row(n, columns) for n in range(args.max + 1)]
    if args.format == "json":
        payload = [{c: (None if r[c] is None else
                        (r[c] if isinstance(r[c], int) else str(r[c])))
                    for c in columns} for r in rows]
        json.dump(payload, sys.stdout, indent=2)
        print()
    elif args.format == "csv":
        sys.stdout.write(",".join(columns) + "\n")
        for r in rows:
            cells = ["" if r[c] is None else str(r[c]) for c in columns]
            sys.stdout.write(",".join(cells) + "\n")
    else:
        widths = {c: max(len(c), max((len(str(r[c])) if r[c] is not None
                                      else 1) for r in rows))
                  for c in columns}
        print("  ".join(c.rjust(widths[c]) for c in columns))
        for r in rows:
            print("  ".join(("-" if r[c] is None else str(r[c]))
                            .rjust(widths[c]) for c in columns))
    return 0


def cmd_bijection(args) -> int:
    from . import bijections

    n = args.n
    if n < 1 or n % 4 == 0:
        return _usage_error(f"n = {n} is outside the supported residue "
                            "classes (need positive n with n != 0 mod 4)")
    try:
        triples = bijections.solution_triples(n)
    except OverflowError as exc:
        return _usage_error(str(exc))
    report = bijections.verify_case(n)
    entries = []
    for tr in triples:
        cat = bijections.classify_triple(tr)
        form = bijections.map_triple(tr)
        case = bijections.case_of(n, tr.r)
        if case in bijections.FORM_CATEGORY_OF_TRIPLE:
            fcat = bijections.classify_form(form, case, n)
        else:
            fcat = None
        entries.append((tr, cat, form, fcat, case))

    if args.format == "json":
        payload = {
            "n": n,
            "triples": [{
                "triple": [tr.r, tr.s, tr.t],
                "shape": tr.shape,
                "case": case,
                "category": cat,
                "form": [form.a, form.b, form.c],
                "form_category": fcat,
            } for tr, cat, form, fcat, case in entries],
            "summary": report.to_dict(),
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        for tr, cat, form, fcat, case in entries:
            catname = "all-equal" if cat == bijections.ALL_EQUAL else f"cat{cat}"
            tail = f" cat{fcat}" if fcat is not None else ""
            print(f"({tr.r},{tr.s},{tr.t}) {catname} -> "
                  f"({form.a},{form.b},{form.c}){tail}  [case {case}]")
        _print_report_text(report, sys.stdout)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qident",
        description="Exact verification of theta/class-number identities "
                    "for x^2 + 2y^2 + 2z^2 representation counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all",
                          choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--order", type=int, default=200,
                          help="series truncation order (default 200)")
    p_verify.add_argument("--max", type=int, default=1000,
                          help="sweep bound for per-n checks (default 1000)")
    p_verify.add_argument("--format", default="text", choices=("text", "json"))
    p_verify.set_defaults(fn=cmd_verify)

    p_table = sub.add_parser("table", help="tabulate count/class-number values")
    p_table.add_argument("--max", type=int, default=30)
    p_table.add_argument("--columns", default=",".join(TABLE_COLUMNS))
    p_table.add_argument("--format", default="text",
                         choices=("text", "json", "csv"))
    p_table.set_defaults(fn=cmd_table)

    p_bij = sub.add_parser("bijection",
                           help="list the triple-to-form construction at n")
    p_bij.add_argument("n", type=int)
    p_bij.add_argument("--format", default="text", choices=("text", "json"))
    p_bij.set_defaults(fn=cmd_bijection)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except Exception as exc:
        # an escaped exception is a fault of the program, not a failed check
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
