"""Command-line front end.

Exit codes: 0 success, 1 validation failure, 2 parse or usage failure
(an unreadable FILE included), 3 a computed property that the theory
guarantees failed to hold (a bug witness, never silent).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import checks, generate, report
from .cup import CertificateError, cup_table
from .hochschild import CochainComplex, HHTable
from .presentation import ParseError, basis_P, parse_file, validate
from .resolution import ApConstructionError, Resolution

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_VIOLATION = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ApConstructionError as exc:
        print(f"AP construction failed: {exc}", file=sys.stderr)
        for w in exc.witnesses:
            print(f"witness: {w}", file=sys.stderr)
        return EXIT_VIOLATION
    except CertificateError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (OSError, UnicodeDecodeError) as exc:
        path = vars(args).get("file")
        # FILE is the one file opened and the one text decoded; an error
        # writing the output names no file and is not caught here
        if path is None or getattr(exc, "filename", path) != path:
            raise
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"cannot read {path}: {reason}", file=sys.stderr)
        return EXIT_PARSE


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged.  This saves time only where main runs repeatedly in one
    process, such as the in-process benchmark; a command-line run calls
    main once."""
    parser = argparse.ArgumentParser(
        prog="stringcoh",
        description="Hochschild cohomology of triangular string algebras",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("validate", help="parse and check the hypotheses")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hh", help="cohomology dimension table")
    p.add_argument("file")
    p.add_argument("--max-degree", type=_at_least(0), default=None)
    p.add_argument("--method", choices=("formula", "matrix", "both"),
                   default="both")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("ap", help="list the resolution's support sets")
    p.add_argument("file")
    p.add_argument("--max-degree", type=_at_least(0), default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ap)

    p = sub.add_parser("cup", help="certify cup products vanish")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cup)

    p = sub.add_parser("check", help="run the full property audit")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="emit a random valid presentation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertices", type=_at_least(2), default=8)
    p.add_argument("--arrows", type=_at_least(1), default=10)
    p.add_argument("--tree", action="store_true")
    p.add_argument("--quadratic", action="store_true")
    p.set_defaults(func=cmd_gen)

    return parser


def _at_least(low: int):
    """An argparse int type with a lower bound: a smaller value is a
    usage error that names its option, exit 2."""
    def bounded(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value

    bounded.__name__ = "int"  # argparse's "invalid int value" message
    return bounded


def _load(args):
    """Parse and validate; returns (presentation, validation report)."""
    pres = parse_file(args.file)
    return pres, validate(pres)


def _emit(args, payload: dict, started: float):
    if args.json:
        payload["elapsed_ms"] = int(1000 * (time.monotonic() - started))
        sys.stdout.write(report.to_json(payload))


def cmd_validate(args) -> int:
    started = time.monotonic()
    pres, vreport = _load(args)
    payload = {
        "presentation": report.presentation_section(pres, None),
        "validation": report.validation_section(vreport),
    }
    if not args.json:
        for name, ok, detail in vreport.checks:
            line = f"{name}: {'ok' if ok else 'FAIL'}"
            if detail:
                line += f" ({detail})"
            print(line)
    _emit(args, payload, started)
    return EXIT_OK if vreport.passed else EXIT_INVALID


def _build_tower(pres, max_degree=None):
    """Build the full tower.  A degree cap computes one degree beyond it so
    every reported dimension stays exact; callers slice the reports."""
    basis = basis_P(pres)
    cap = None if max_degree is None else max_degree + 1
    res = Resolution(pres, basis, cap)
    return basis, res, CochainComplex(res)


def cmd_hh(args) -> int:
    started = time.monotonic()
    pres, vreport = _load(args)
    if not vreport.passed:
        _print_validation_failures(vreport)
        return EXIT_INVALID
    basis, res, cx = _build_tower(pres, args.max_degree)
    table = cx.hh_table()
    if args.max_degree is not None:
        table = HHTable([r for r in table.rows if r.degree <= args.max_degree],
                        table.top)
    payload = {
        "presentation": report.presentation_section(pres, basis),
        "validation": report.validation_section(vreport),
        "ap": report.ap_section(res, max_degree=args.max_degree),
        "hh": report.hh_section(table),
    }
    status = EXIT_OK
    if not args.json:
        dims = (table.dims_formula if args.method == "formula"
                else table.dims_matrix)
        # the trailing 0 stands for all degrees above the top, so a table
        # capped below the top leaves it off
        zero = [0] if len(dims) > table.top else []
        print("HH: " + " ".join(str(d) for d in dims + zero))
        if args.method == "both":
            for row in table.rows:
                print(f"  degree {row.degree}: formula {row.dim_formula}, "
                      f"matrix {row.dim_matrix}, "
                      f"{'agree' if row.agree else 'DISAGREE'}")
    if args.method == "both" and not table.agree:
        status = EXIT_VIOLATION
        for row in table.rows:
            if not row.agree:
                print(
                    f"witness: degree {row.degree}, "
                    f"formula {row.dim_formula} != matrix {row.dim_matrix}, "
                    f"counts {row.counts}, "
                    f"rank F_{row.degree} = {cx.rank(row.degree) if row.degree >= 1 else 0}, "
                    f"nullity F_{row.degree + 1} = {cx.nullity(row.degree + 1)}",
                    file=sys.stderr,
                )
    _emit(args, payload, started)
    return status


def cmd_ap(args) -> int:
    started = time.monotonic()
    pres, vreport = _load(args)
    if not vreport.passed:
        _print_validation_failures(vreport)
        return EXIT_INVALID
    basis, res, cx = _build_tower(pres, args.max_degree)
    payload = {
        "presentation": report.presentation_section(pres, basis),
        "validation": report.validation_section(vreport),
        "ap": report.ap_section(res, include_elements=True,
                                max_degree=args.max_degree),
    }
    # A mismatch of the two greedy runs exits 3 while the tower is built.
    payload["ap"]["matches_dual"] = True
    shown = res.ap if args.max_degree is None else res.ap[: args.max_degree + 1]
    if not args.json:
        fmt = pres.quiver.format_word
        for n, layer in enumerate(shown):
            print(f"degree {n}: {len(layer)} element(s)")
            for e in layer:
                chain = " ".join(map(fmt, e.chain))
                op = " ".join(map(fmt, e.op_chain))
                line = f"  {fmt(e.word, e.source)}"
                if e.degree >= 2:
                    line += f"  chain[{chain}]  dual[{op}]"
                print(line)
        print("dual construction matches: True")
    _emit(args, payload, started)
    return EXIT_OK


def cmd_cup(args) -> int:
    started = time.monotonic()
    pres, vreport = _load(args)
    if not vreport.passed:
        _print_validation_failures(vreport)
        return EXIT_INVALID
    basis, res, cx = _build_tower(pres)
    cup_report = cup_table(cx)
    payload = {
        "presentation": report.presentation_section(pres, basis),
        "validation": report.validation_section(vreport),
        "cup": report.cup_section(cup_report),
    }
    if not args.json:
        if not cup_report.class_dims or all(
            d == 0 for d in cup_report.class_dims.values()
        ):
            print("no positive-degree classes")
        elif cup_report.all_zero:
            print("all cup products vanish "
                  f"(pairs checked: {cup_report.pairs_checked})")
        else:
            print("cup product NOT zero in cohomology:")
            for e in cup_report.failures():
                print(f"  degrees ({e.deg_g},{e.deg_f}) "
                      f"representatives ({e.idx_g},{e.idx_f})")
    _emit(args, payload, started)
    return EXIT_OK if cup_report.all_zero else EXIT_VIOLATION


def cmd_check(args) -> int:
    started = time.monotonic()
    pres, vreport = _load(args)
    if not vreport.passed:
        _print_validation_failures(vreport)
        return EXIT_INVALID
    auditor = checks.Auditor(pres, report=vreport)
    results = auditor.run_all()
    payload = {
        "presentation": report.presentation_section(pres, auditor.basis),
        "validation": report.validation_section(vreport),
        "ap": report.ap_section(auditor.res),
        "hh": report.hh_section(auditor.cx.hh_table()),
        "cup": report.cup_section(auditor.cup_report),
        "properties": report.properties_section(results),
    }
    if not args.json:
        for r in results:
            line = f"{r.name}: {'ok' if r.passed else 'FAIL'}"
            if r.detail:
                line += f" ({r.detail})"
            print(line)
    _emit(args, payload, started)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION


def cmd_gen(args) -> int:
    text = generate.generate_dsl(
        args.seed,
        max_vertices=args.vertices,
        max_arrows=args.arrows,
        tree=args.tree,
        quadratic=args.quadratic,
    )
    sys.stdout.write(text)
    return EXIT_OK


def _print_validation_failures(vreport):
    for name, detail in vreport.failures():
        line = f"validation failed: {name}"
        if detail:
            line += f" ({detail})"
        print(line, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
