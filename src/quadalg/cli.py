"""Command-line front end.

Subcommands: normalize, mul, serre-reduce, dims, star, dual, dirac,
singular-vector, verify.  Exit codes: 0 on success, 1 when a
verification check fails, 2 on usage, parse or arithmetic errors (such
as a scalar that is not a Laurent polynomial where one is required) and
on input nested too deeply for the interpreter's recursion limit.

A request whose first argument names a subcommand is parsed by that
subcommand's parser alone.  Any other request, and any request that
leaves arguments over, goes to the whole parser tree, so help texts and
usage errors read the same either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import dirac, transform, uq, verma
from .aq import AqElement
from .parse import KINDS, ParseError, combine, parse_expression
from .suites import DEFAULT_CONVENTION, SUITES, run_suite
from .uq import UqElement


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(text + "\n")


def cmd_normalize(args) -> int:
    kind, value = parse_expression(args.expr)
    text = str(value)
    _emit(args, {"kind": kind, "normal_form": text}, text)
    return 0


def cmd_mul(args) -> int:
    _, left = parse_expression(args.left)
    _, right = parse_expression(args.right)
    out = combine(left, right, "*", 0)
    text = str(out)
    _emit(args, {"kind": KINDS[type(out)], "product": text}, text)
    return 0


def cmd_serre_reduce(args) -> int:
    kind, value = parse_expression(args.expr)
    if kind == "scalar":
        value = UqElement.one().scale(value)
    elif kind != "uq":
        raise ParseError("serre-reduce expects an expression in Fm/Fn/Fb/Em/En/Eb/K*", 0)
    text = str(value)
    payload = {"input": args.expr, "reduced": text, "is_zero": not value}
    _emit(args, payload, "%s\nzero: %s" % (text, not value))
    return 0


def cmd_dims(args) -> int:
    if args.max_degree < 0:
        raise ValueError("--max-degree must be >= 0")
    dims = uq.graded_dimensions(args.max_degree)
    payload = {"max_degree": args.max_degree, "dimensions": dims}
    _emit(args, payload, " ".join(str(d) for d in dims))
    return 0


_STAR_SYMBOLS = {name: s for name, s in uq.GENERATOR_SYMBOLS.items() if s[1] != uq.BETA}


def cmd_star(args) -> int:
    symbol = _STAR_SYMBOLS.get(args.k)
    if symbol is None:
        raise ParseError("star generator must be one of %s" % sorted(_STAR_SYMBOLS), 0)
    text = str(uq.star_act(symbol, AqElement.generator(args.w)))
    _emit(args, {"k": args.k, "w": args.w, "result": text}, text)
    return 0


def cmd_dual(args) -> int:
    which = args.generator if args.generator == "box" else int(args.generator)
    closed = str(transform.right_dual_closed(which))
    ok = transform.verify_dual(which, args.check_degree)
    payload = {
        "generator": str(args.generator),
        "closed_form": closed,
        "check_degree": args.check_degree,
        "oracle_agrees": ok,
    }
    _emit(
        args,
        payload,
        "%s\noracle through degree %d: %s"
        % (closed, args.check_degree, "agrees" if ok else "DISAGREES"),
    )
    return 0 if ok else 1


def cmd_dirac(args) -> int:
    matrix = dirac.dirac_matrix(args.which)
    entries = [[str(matrix[i, j]) for j in (0, 1)] for i in (0, 1)]
    text = dirac.MATRIX_TEXT % (*entries[0], *entries[1])
    _emit(args, {"which": args.which, "entries": entries}, text)
    return 0


def cmd_singular_vector(args) -> int:
    lo, hi = args.scan
    xs = verma.scan_points(range(lo, hi + 1))
    if args.x is not None and not lo <= args.x <= hi:
        xs.append(args.x)  # reported, but not part of the scan
    u0 = verma.singular_candidate_plus()
    reports, vanishing = verma.scan_singular(u0, xs, args.convention)
    vanishing = [v for v in vanishing if lo <= v <= hi]
    x = args.x if args.x is not None else (vanishing[0] if vanishing else lo)
    chosen = next(r for r in reports if r.x == x)
    e_mu, e_mu_sq, e_nu, e_beta = map(
        str, (chosen.e_mu, chosen.e_mu_sq, chosen.e_nu, chosen.e_beta)
    )
    orders = list(chosen.root_of_unity_orders)
    payload = {
        "x": x,
        "convention": args.convention,
        "E_mu": e_mu,
        "E_mu_squared": e_mu_sq,
        "E_nu": e_nu,
        "E_beta": e_beta,
        "vanishing_x": vanishing,
        "root_of_unity_orders": orders,
    }
    text = (
        "x = %d (%s convention)\nE_mu:   %s\nE_mu^2: %s\nE_nu:   %s\nE_beta: %s\n"
        "generic vanishing in scan: %s\nroot-of-unity orders: %s"
        % (x, args.convention, e_mu, e_mu_sq, e_nu, e_beta, vanishing, orders)
    )
    _emit(args, payload, text)
    return 0


def cmd_verify(args) -> int:
    scan = None
    if args.scan is not None:
        scan = range(args.scan[0], args.scan[1] + 1)
    report = run_suite(
        args.suite, degree=args.degree, scan=scan, convention=args.convention
    )
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render_text() + "\n")
    return 0 if report.ok else 1


def _scan_range(text):
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("scan must look like 0..6")
    if hi < lo:
        raise argparse.ArgumentTypeError("empty scan range")
    return (lo, hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadalg",
        description="Exact computations in the quadratic algebra, its operator "
        "calculus, and the enveloping-algebra oracles behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    p = add("normalize", cmd_normalize, help="normal-order an expression")
    p.add_argument("expr")

    p = add("mul", cmd_mul, help="multiply two expressions")
    p.add_argument("left")
    p.add_argument("right")

    p = add("serre-reduce", cmd_serre_reduce, help="reduce modulo the quantum Serre ideal")
    p.add_argument("expr")

    p = add("dims", cmd_dims, help="graded dimensions of the Serre quotient")
    p.add_argument("--max-degree", type=int, default=6)

    p = add("star", cmd_star, help="co-adjoint action on a w generator")
    p.add_argument("--k", required=True, help="one of Fm Em Km Km^-1 Fn En Kn Kn^-1")
    p.add_argument("--w", type=int, required=True, choices=(1, 2, 3, 4))

    p = add("dual", cmd_dual, help="closed form of a right-multiplication dual")
    p.add_argument("--generator", required=True, choices=("1", "2", "3", "4", "box"))
    p.add_argument("--check-degree", type=int, default=6)

    p = add("dirac", cmd_dirac, help="show a first-order operator matrix")
    p.add_argument("--which", required=True, choices=tuple(dirac._LAYOUT))

    p = add("singular-vector", cmd_singular_vector, help="primitive vector scan")
    p.add_argument("--x", type=int, default=None)
    p.add_argument("--scan", type=_scan_range, default=(0, 6), metavar="A..B")
    p.add_argument("--convention", choices=tuple(verma.CONVENTIONS), default=DEFAULT_CONVENTION)

    p = add("verify", cmd_verify, help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--scan", type=_scan_range, default=None, metavar="A..B",
                   help="singular-vector only (default 0..6)")
    p.add_argument("--convention", choices=tuple(verma.CONVENTIONS), default=None,
                   help="singular-vector only (default %s)" % DEFAULT_CONVENTION)

    return parser


@lru_cache(maxsize=None)
def _shared_parser():
    """The argparse tree, built once per process, and its name -> subparser table."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, commands.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _shared_parser()
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
    if sub is None or rest:
        args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, ArithmeticError, RecursionError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
