"""Command-line front end.

Verbs: build, verify, gram, norton, radical, certify, catalog.
Targets: m4a, m4b, dihedral:<TYPE>.  Parameters are exact rationals
("p/q" or integer strings; decimals are rejected).

Each verb parses its arguments and returns its report from one call;
certify builds every certification report and decides every verdict.
run() emits the report in one place: --out writes it as JSON, otherwise
a human-readable summary is printed.  Exit codes: 1 when the report, or
a dict row of a list report, has "pass": false; 0 otherwise; 2 on a
usage or build error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import certify as cert
from .catalog import DIHEDRAL_TYPES, dihedral, dihedral_dimension
from .errors import AxiaError
from .m4 import build_m4a, build_m4b
from .scalars import parse_rational
from .serialize import algebra_to_json, dump_json


class UsageError(Exception):
    pass


def _target(name):
    """The builder and the verification suite of a target: m4a, m4b or
    dihedral:<TYPE>.  Both are looked up at call time, so a function
    rebound on this module or on certify is the one that runs."""
    if name == "m4a":
        return build_m4a, cert.verify_m4a
    if name == "m4b":
        return build_m4b, cert.verify_m4b
    kind, _, typ = name.partition(":")
    if kind == "dihedral" and typ in DIHEDRAL_TYPES:
        return (lambda: dihedral(typ)), (lambda: cert.verify_dihedral(typ))
    raise UsageError(f"unknown target {name!r}; expected m4a, m4b or "
                     f"dihedral:<TYPE> with TYPE one of "
                     f"{', '.join(DIHEDRAL_TYPES)}")


def _points(args, verb=None):
    """The exact points of --t or --grid.  A verb that reads no point
    passes its name, and then a given point is an error."""
    if verb is not None:
        if args.t is not None or args.grid is not None:
            raise UsageError(f"{verb} takes no --t or --grid")
        return []
    if args.t is not None:
        parts = [args.t]
    elif args.grid is not None:
        parts = args.grid.split(",")
    else:
        raise UsageError("provide --t P/Q or --grid P/Q,P/Q,...")
    try:
        return [parse_rational(part) for part in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc))


def _fails(report):
    """The exit rule: a report fails when it, or a dict row of a list
    report, has "pass": false."""
    rows = report if isinstance(report, list) else [report]
    return any(isinstance(r, dict) and r.get("pass") is False for r in rows)


def _print_human(report, target):
    if isinstance(report, list):
        for row in report:
            _print_human(row, target)
    elif "mul_table" in report:
        print(f"{target}: dimension {len(report['labels'])} "
              f"over {report['field']}")
        print("labels:", " ".join(report["labels"]))
    elif "checks" in report:
        print(f"{report['target']}: {'PASS' if report['pass'] else 'FAIL'}")
        for c in report["checks"]:
            mark = "ok " if c["pass"] else "FAIL"
            print(f"  [{mark}] {c['name']}: expected {c['expected']}, "
                  f"got {c['actual']}")
    else:
        # the scalar fields as one k=v row, then each list field under
        # "key:", one item per line
        lists = [k for k, v in report.items() if isinstance(v, list)]
        if len(lists) < len(report):
            print(_pairs({k: v for k, v in report.items() if k not in lists}))
        for key in lists:
            print(f"{key}:")
            for item in report[key]:
                print("  " + (_pairs(item) if isinstance(item, dict)
                              else str(item)))


def _pairs(row):
    return ", ".join(f"{k}={v}" for k, v in row.items())


# ---------------------------------------------------------------------------
# verbs: each returns its report
# ---------------------------------------------------------------------------

def _cmd_build(args):
    built = _target(args.target)[0]()
    return algebra_to_json(built.algebra, built.form)


def _cmd_verify(args):
    return _target(args.target)[1]()


def _cmd_gram(args):
    return cert.gram_report()


def _cmd_radical(args):
    return cert.radical_report(_points(args))


def _cmd_norton(args):
    if args.symbolic:
        _points(args, "norton --symbolic")
        return cert.norton_symbolic_report()
    return cert.norton_grid_report(_points(args))


def _cmd_certify(args):
    if args.what in ("v4a", "grid"):
        _points(args, f"certify {args.what}")
        return (cert.v4a_certify() if args.what == "v4a"
                else cert.grid_report())
    points = _points(args)
    if args.what == "majorana":
        return [cert.majorana_certify(t0).to_json() for t0 in points]
    return [cert.quotient_certify(t0) for t0 in points]


def _cmd_catalog(args):
    if args.target is not None:
        typ = args.target.partition(":")[2]
        if typ not in DIHEDRAL_TYPES:
            raise UsageError(f"unknown dihedral type {typ!r}; expected one "
                             f"of {', '.join(DIHEDRAL_TYPES)}")
        return _cmd_build(args)
    return [{"type": name, "dimension": dihedral_dimension(name)}
            for name in DIHEDRAL_TYPES]


# ---------------------------------------------------------------------------

@functools.cache
def _make_parser():
    """The argument parser, built on the first run of the process."""
    parser = argparse.ArgumentParser(
        prog="axia",
        description="Exact construction and certification of the axial "
                    "algebras of Monster type (dihedral catalog, M_4B, "
                    "M_4A over Q(t)).")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, func, help, points=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if points:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--t", help="exact rational parameter p/q")
            group.add_argument("--grid", help="comma-separated rational list")
        return p

    target = "m4a, m4b or dihedral:<TYPE>"
    verb("build", _cmd_build, "construct an algebra").add_argument(
        "target", help=target)
    verb("verify", _cmd_verify, "run the verification suite").add_argument(
        "target", help=target)
    verb("gram", _cmd_gram, "symbolic Gram determinant, LDLT diagonal and "
                            "interval certificates")
    verb("radical", _cmd_radical, "radical dimension of M(t0)", points=True)
    verb("norton", _cmd_norton, "Norton-inequality verdicts",
         points=True).add_argument("--symbolic", action="store_true",
                                   help="symbolic LDLT over Q(t)")
    verb("certify", _cmd_certify, "certification reports",
         points=True).add_argument(
        "what", choices=["majorana", "quotient", "v4a", "grid"])
    verb("catalog", _cmd_catalog, "list or export dihedral algebras"
         ).add_argument("target", nargs="?", metavar="type",
                        type=lambda typ: f"dihedral:{typ}",
                        help="dihedral type, e.g. 4A; exports what "
                             "build dihedral:TYPE does")
    for p in sub.choices.values():
        p.add_argument("--out", help="write a JSON report to this path")
    return parser


_VALUE_OPTIONS = ("--t", "--grid")
_NEGATIVE_VALUE = re.compile(r"-\d")


def _attach_negative_values(argv):
    """Write "--grid -1/10,0" as "--grid=-1/10,0": argparse takes a
    separate value that starts with a minus sign and a digit for an
    option unless it is a plain negative number."""
    out = []
    for arg in argv:
        if out and out[-1] in _VALUE_OPTIONS and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv) -> int:
    """Parse argv, build the verb's report and emit it; returns the exit
    code."""
    parser = _make_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report = args.func(args)
        if args.out is not None:
            dump_json(report, args.out)
        else:
            _print_human(report, vars(args).get("target"))
    except (UsageError, AxiaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if _fails(report) else 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
