"""Command-line front end.

Exit codes: 0 success, 1 validation failure, 2 parse or usage failure
(an unreadable FILE included), 3 a computed property that the theory
guarantees failed to hold (a bug witness, never silent).

hh, ap, cup and check pass one validation gate, _load_valid, and build
their tower with checks.build_tower.  Each command but gen returns its
exit code and one payload and prints its text from it; main alone reads
the clock and writes the JSON.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import checks, generate, report
from .cup import CertificateError, cup_table
from .presentation import ParseError, parse_file, validate
from .resolution import ApConstructionError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_VIOLATION = 3


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        status, payload = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _Invalid as exc:
        for name, detail in exc.args[0].failures():
            print(f"validation failed: {name}"
                  + (f" ({detail})" if detail else ""), file=sys.stderr)
        return EXIT_INVALID
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
    if payload is not None and args.json:
        payload["elapsed_ms"] = int(1000 * (time.monotonic() - started))
        sys.stdout.write(report.to_json(payload))
    return status


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


class _Invalid(Exception):
    """A gated command's input fails validation: args[0] is the report."""


def _load_valid(args):
    """Parse and validate: (presentation, validation report), or _Invalid
    (exit 1) when the presentation fails validation."""
    pres = parse_file(args.file)
    vreport = validate(pres)
    if not vreport.passed:
        raise _Invalid(vreport)
    return pres, vreport


def _head(pres, basis, vreport) -> dict:
    """The presentation and validation sections of a payload."""
    return {"presentation": report.presentation_section(pres, basis),
            "validation": report.verdict_section(vreport.checks)}


def _print_verdicts(section: dict):
    for check in section["checks"]:
        detail = check["detail"]
        print(f"{check['name']}: {'ok' if check['passed'] else 'FAIL'}"
              + (f" ({detail})" if detail else ""))


def cmd_validate(args):
    pres = parse_file(args.file)
    vreport = validate(pres)
    payload = _head(pres, None, vreport)
    if not args.json:
        _print_verdicts(payload["validation"])
    return EXIT_OK if vreport.passed else EXIT_INVALID, payload


def cmd_hh(args):
    pres, vreport = _load_valid(args)
    basis, res, cx = checks.build_tower(pres, args.max_degree)
    payload = _head(pres, basis, vreport) | {
        "ap": report.ap_section(res, max_degree=args.max_degree),
        "hh": report.hh_section(cx.hh_table(), max_degree=args.max_degree),
    }
    hh = payload["hh"]
    if not args.json:
        dims = hh["dims_formula" if args.method == "formula" else "dims"]
        # the trailing 0 stands for all degrees above the top, so a table
        # capped below the top leaves it off
        zero = [0] if len(dims) > payload["ap"]["top"] else []
        print("HH: " + " ".join(str(d) for d in dims + zero))
        if args.method == "both":
            for row in hh["rows"]:
                print(f"  degree {row['degree']}: formula {row['formula']}, "
                      f"matrix {row['matrix']}, "
                      f"{'agree' if row['agree'] else 'DISAGREE'}")
    if args.method != "both" or hh["agree"]:
        return EXIT_OK, payload
    for row in hh["rows"]:
        if not row["agree"]:
            n = row["degree"]
            print(f"witness: degree {n}, "
                  f"formula {row['formula']} != matrix {row['matrix']}, "
                  f"counts {row['counts']}, "
                  f"rank F_{n} = {cx.rank(n) if n >= 1 else 0}, "
                  f"nullity F_{n + 1} = {cx.nullity(n + 1)}",
                  file=sys.stderr)
    return EXIT_VIOLATION, payload


def cmd_ap(args):
    pres, vreport = _load_valid(args)
    basis, res, cx = checks.build_tower(pres, args.max_degree)
    payload = _head(pres, basis, vreport) | {
        "ap": report.ap_section(res, include_elements=True,
                                max_degree=args.max_degree),
    }
    if not args.json:
        for layer in payload["ap"]["degrees"]:
            n, elements = layer["degree"], layer["elements"]
            print(f"degree {n}: {len(elements)} element(s)")
            for e in elements:
                line = f"  {e['support']}"
                if n >= 2:
                    line += (f"  chain[{' '.join(e['chain'])}]"
                             f"  dual[{' '.join(e['op_chain'])}]")
                print(line)
        print(f"dual construction matches: {payload['ap']['matches_dual']}")
    return EXIT_OK, payload


def cmd_cup(args):
    pres, vreport = _load_valid(args)
    basis, res, cx = checks.build_tower(pres)
    payload = _head(pres, basis, vreport) | {
        "cup": report.cup_section(cup_table(cx))}
    cup = payload["cup"]
    if not args.json:
        if not any(cup["positive_class_dims"].values()):
            print("no positive-degree classes")
        elif cup["all_zero"]:
            print("all cup products vanish "
                  f"(pairs checked: {cup['pairs_checked']})")
        else:
            print("cup product NOT zero in cohomology:")
            for e in cup["failures"]:
                print("  degrees ({},{}) representatives ({},{})".format(
                    *e["degrees"], *e["representatives"]))
    return EXIT_OK if cup["all_zero"] else EXIT_VIOLATION, payload


def cmd_check(args):
    pres, vreport = _load_valid(args)
    auditor = checks.Auditor(pres, report=vreport)
    results = auditor.run_all()
    payload = _head(pres, auditor.basis, vreport) | {
        "ap": report.ap_section(auditor.res),
        "hh": report.hh_section(auditor.cx.hh_table()),
        "cup": report.cup_section(auditor.cup_report),
        "properties": report.verdict_section(results),
    }
    if not args.json:
        _print_verdicts(payload["properties"])
    return (EXIT_OK if payload["properties"]["passed"] else EXIT_VIOLATION,
            payload)


def cmd_gen(args):
    text = generate.generate_dsl(
        args.seed,
        max_vertices=args.vertices,
        max_arrows=args.arrows,
        tree=args.tree,
        quadratic=args.quadratic,
    )
    sys.stdout.write(text)
    return EXIT_OK, None


if __name__ == "__main__":
    sys.exit(main())
