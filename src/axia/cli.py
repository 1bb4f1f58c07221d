"""Command-line front end.

Verbs: build, verify, gram, norton, radical, certify, catalog.
Targets: m4a, m4b, dihedral:<TYPE>.  Parameters are exact rationals
("p/q" or integer strings; decimals are rejected).  --out writes a JSON
report, otherwise a human-readable summary is printed.  Exit codes:
0 = all checks pass, 1 = a check failed, 2 = usage or build error.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import certify as cert
from .catalog import DIHEDRAL_TYPES, dihedral, dihedral_dimension
from .errors import AxiaError
from .m4 import build_m4a, build_m4b
from .scalars import format_rational, parse_rational
from .serialize import algebra_to_json, dump_json


def _parse_t(value):
    try:
        return parse_rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc))


def _parse_grid(value):
    return [_parse_t(part) for part in value.split(",")]


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


def _emit(report, out):
    if out:
        dump_json(report, out)
        return
    _print_human(report)


def _print_human(report, indent=""):
    if isinstance(report, dict) and "checks" in report:
        print(f"{indent}{report.get('target', 'report')}: "
              f"{'PASS' if report.get('pass') else 'FAIL'}")
        for c in report["checks"]:
            mark = "ok " if c["pass"] else "FAIL"
            print(f"{indent}  [{mark}] {c['name']}: expected {c['expected']}"
                  f", got {c['actual']}")
    elif isinstance(report, list):
        for item in report:
            _print_human(item, indent)
    elif isinstance(report, dict):
        print(indent + ", ".join(f"{k}={v}" for k, v in report.items()))
    else:
        print(f"{indent}{report}")


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------

def _cmd_build(args):
    build, _ = _target(args.target)
    built = build()
    alg = built.algebra
    doc = algebra_to_json(alg, built.form)
    if args.out:
        dump_json(doc, args.out)
    else:
        print(f"{args.target}: dimension {alg.dim} over {alg.field.kind}")
        print("labels:", " ".join(alg.labels))
    return 0


def _cmd_verify(args):
    _, verify = _target(args.target)
    report = verify()
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _cmd_gram(args):
    det, diag = cert.gram_analysis()
    certs = cert.certify_psd_interval(diag)
    det_ok = det == cert.gram_det_closed_form()
    all_ok = det_ok and all(
        c.verdict != cert.IntervalCertificate.FAILS for c in certs)
    report = {
        "target": "gram",
        "determinant": str(det),
        "determinant_matches_closed_form": det_ok,
        "ldlt_diagonal": [str(d) for d in diag],
        "interval_certificates": [c.to_json() for c in certs],
        "pass": all_ok,
    }
    _emit(report, args.out)
    return 0 if all_ok else 1


def _cmd_radical(args):
    points = _points_from(args)
    report = [{"t0": format_rational(t0),
               "radical_dim": cert.radical_dimension(t0)} for t0 in points]
    _emit(report, args.out)
    return 0


def _cmd_norton(args):
    if args.symbolic:
        _no_points(args, "norton --symbolic")
        rep = cert.norton_symbolic()
        report = {"target": "norton-symbolic", "status": rep["status"],
                  "columns_processed": rep["columns_processed"],
                  "diagonal": [str(d) for d in rep["diagonal"]]}
        _emit(report, args.out)
        return 0
    _emit(cert.norton_grid_report(_points_from(args)), args.out)
    return 0


def _cmd_certify(args):
    what = args.what
    if what == "majorana":
        points = _points_from(args)
        report = [cert.majorana_certify(t0).to_json() for t0 in points]
        _emit(report, args.out)
        return 0
    if what == "quotient":
        points = _points_from(args)
        report = [cert.quotient_certify(t0) for t0 in points]
        _emit(report, args.out)
        return 0 if all(r.get("pass") for r in report) else 1
    if what in ("v4a", "grid"):
        _no_points(args, f"certify {what}")
    if what == "v4a":
        report = cert.v4a_certify()
        _emit(report, args.out)
        return 0 if report["pass"] else 1
    if what == "grid":
        report = {"definiteness": cert.definiteness_report(),
                  "norton": cert.norton_grid_report()}
        _emit(report, args.out)
        return 0
    raise UsageError(f"unknown certification {what!r}")


def _cmd_catalog(args):
    if not args.type:
        report = [{"type": name, "dimension": dihedral_dimension(name)}
                  for name in DIHEDRAL_TYPES]
        _emit(report, args.out)
        return 0
    build, _ = _target(f"dihedral:{args.type}")
    d = build()
    doc = algebra_to_json(d.algebra, d.form)
    if args.out:
        dump_json(doc, args.out)
    else:
        print(f"{args.type}: dimension {d.algebra.dim}, "
              f"labels {' '.join(d.algebra.labels)}")
    return 0


def _points_from(args):
    if args.t is not None:
        return [_parse_t(args.t)]
    if args.grid is not None:
        return _parse_grid(args.grid)
    raise UsageError("provide --t P/Q or --grid P/Q,P/Q,...")


def _no_points(args, verb):
    if args.t is not None or args.grid is not None:
        raise UsageError(f"{verb} takes no --t or --grid")


# ---------------------------------------------------------------------------

def _make_parser():
    parser = argparse.ArgumentParser(
        prog="axia",
        description="Exact construction and certification of the axial "
                    "algebras of Monster type (dihedral catalog, M_4B, "
                    "M_4A over Q(t)).")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_out(p):
        p.add_argument("--out", help="write a JSON report to this path")

    def add_points(p):
        points = p.add_mutually_exclusive_group()
        points.add_argument("--t", help="exact rational parameter p/q")
        points.add_argument("--grid", help="comma-separated rational list")

    p = sub.add_parser("build", help="construct an algebra")
    p.add_argument("target", help="m4a, m4b or dihedral:<TYPE>")
    add_out(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("target", help="m4a, m4b or dihedral:<TYPE>")
    add_out(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gram", help="symbolic Gram determinant, LDLT "
                                    "diagonal and interval certificates")
    add_out(p)
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("radical", help="radical dimension of M(t0)")
    add_points(p)
    add_out(p)
    p.set_defaults(func=_cmd_radical)

    p = sub.add_parser("norton", help="Norton-inequality verdicts")
    add_points(p)
    p.add_argument("--symbolic", action="store_true",
                   help="symbolic LDLT over Q(t)")
    add_out(p)
    p.set_defaults(func=_cmd_norton)

    p = sub.add_parser("certify", help="certification reports")
    p.add_argument("what", choices=["majorana", "quotient", "v4a", "grid"])
    add_points(p)
    add_out(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("catalog", help="list or export dihedral algebras")
    p.add_argument("type", nargs="?", help="dihedral type, e.g. 4A")
    add_out(p)
    p.set_defaults(func=_cmd_catalog)

    return parser


_VALUE_OPTIONS = ("--t", "--grid")
_NEGATIVE_VALUE = re.compile(r"-\d")


def _attach_negative_values(argv):
    """Write "--grid -1/10,0" as "--grid=-1/10,0": argparse takes a
    separate value that starts with a minus sign and a digit for an
    option unless it is a plain negative number."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if (arg in _VALUE_OPTIONS and i + 1 < len(argv)
                and _NEGATIVE_VALUE.match(argv[i + 1])):
            out.append(f"{arg}={argv[i + 1]}")
            i += 2
            continue
        out.append(arg)
        i += 1
    return out


def run(argv) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, AxiaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
