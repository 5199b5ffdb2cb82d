"""Command-line interface.

Three commands:

* ``eval EXPR U V``: print the expression's value at (U, V) with 12
  significant digits. Exit 1 on a parse/semantic error in the
  expression, 2 on an evaluation error.
* ``grid EXPR N OUT``: discretize the expression to an N x N
  checkerboard and write the CSV mass file. Exit 3 on I/O failure.
* ``verify SUITE``: run a verification suite, print the text report,
  and write both text and JSON report files. Exit 0 iff every check
  passed, 1 otherwise, 2 on configuration errors.

All numeric settings travel as flags; there are no environment
variables, and identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .copulas import (
    ConstructionError,
    CopulaError,
    DomainError,
    FormatError,
    grid_from_copula,
    write_grid_csv,
)
from .dsl import ParseError, SemanticError, build_copula, build_family, parse, parse_family
from .products import NonConvergenceError, QuadratureConfig
from .verify import DEFAULT_LATTICE, SUITES, reports_to_json, reports_to_text, run_suite

__all__ = ["main", "format_value"]

# the largest grid order, lattice side and quadrature count a flag may ask
# for, so that a typo fails with a message instead of exhausting memory
MAX_SIZE = 4096


def format_value(x: float) -> str:
    """Fixed-point rendering with 12 significant digits."""
    if x == 0.0:
        return "0.000000000000"
    decimals = 11 - math.floor(math.log10(abs(x)))
    if decimals < 0:
        decimals = 0
    return f"{x:.{decimals}f}"


def _add_quadrature_flags(p: argparse.ArgumentParser):
    d = QuadratureConfig()
    p.add_argument("--subintervals", type=int, default=d.base_subintervals,
                   help="base uniform subintervals for product quadrature")
    p.add_argument("--nodes", type=int, default=d.nodes_per_subinterval,
                   help="Gauss-Legendre nodes per subinterval")
    p.add_argument("--qtol", type=float, default=d.adaptive_tol,
                   help="adaptive quadrature tolerance")


def _quad_config(args) -> QuadratureConfig:
    for flag, value in (("--subintervals", args.subintervals), ("--nodes", args.nodes)):
        if value > MAX_SIZE:
            raise ConstructionError(f"{flag} must be at most {MAX_SIZE}, got {value}")
    return QuadratureConfig(
        base_subintervals=args.subintervals,
        nodes_per_subinterval=args.nodes,
        adaptive_tol=args.qtol,
    )


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="copulalg",
        description="evaluate copula expressions and verify product laws",
    )
    sub = top.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate an expression at a point")
    pe.add_argument("expr", help="copula expression, e.g. 'star(M, fgm(0.5))'")
    pe.add_argument("u", type=float)
    pe.add_argument("v", type=float)
    _add_quadrature_flags(pe)

    pg = sub.add_parser("grid", help="export an N x N checkerboard CSV")
    pg.add_argument("expr")
    pg.add_argument("n", type=int, help=f"grid order, 1..{MAX_SIZE}")
    pg.add_argument("out", help="output CSV path")
    _add_quadrature_flags(pg)

    # verify fixes per check whether its products take fast paths
    for p in (pe, pg):
        p.add_argument("--no-fast-path", action="store_true",
                       help="disable closed-form product shortcuts")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITES + ("all",))
    pv.add_argument("--family", default=None,
                    help="override the default family corpus, e.g. 'const(fgm(1))'")
    pv.add_argument("--theta", type=float, default=None,
                    help="parameter for the fgm suite")
    pv.add_argument("--lattice", type=int, default=DEFAULT_LATTICE + 1,
                    help="points per axis for sup-distance lattices")
    pv.add_argument("--out", default=".",
                    help="directory receiving verify_<suite>.txt and .json")
    pv.add_argument("--json", action="store_true",
                    help="print the JSON document instead of text lines")
    _add_quadrature_flags(pv)

    return top


def _build(args):
    """(copula, 0) for the expression of ``args``, or (None, exit code):
    1 for a bad expression, 2 for a failed construction."""
    try:
        node = parse(args.expr)
        return build_copula(node, _quad_config(args),
                            fast_paths=not args.no_fast_path), 0
    except (ParseError, SemanticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 1
    except (CopulaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2


def _cmd_eval(args) -> int:
    cop, rc = _build(args)
    if rc:
        return rc
    try:
        val = cop.eval(args.u, args.v)
    except (CopulaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_value(val))
    return 0


def _cmd_grid(args) -> int:
    cop, rc = _build(args)
    if rc:
        return rc
    # checked after the build, so that a bad expression still exits 1
    if not 1 <= args.n <= MAX_SIZE:
        print(f"error: grid order must be in [1, {MAX_SIZE}], got {args.n}",
              file=sys.stderr)
        return 2
    try:
        g = grid_from_copula(cop, args.n)
    except CopulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        write_grid_csv(g, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args) -> int:
    if not 2 <= args.lattice <= MAX_SIZE:
        print(f"error: lattice must be in [2, {MAX_SIZE}], got {args.lattice}",
              file=sys.stderr)
        return 2
    try:
        q = _quad_config(args)
    except CopulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    families = None
    if args.family is not None:
        try:
            families = [build_family(parse_family(args.family), q)]
        except (CopulaError, OSError) as exc:
            print(f"error: bad --family: {exc}", file=sys.stderr)
            return 2
    thetas = None
    if args.theta is not None:
        thetas = [args.theta]
    try:
        reports = run_suite(args.suite, q, args.lattice - 1,
                            thetas=thetas, families=families)
    except (CopulaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = reports_to_text(reports)
    js = reports_to_json(reports)
    sys.stdout.write(js if args.json else text)
    try:
        base = os.path.join(args.out, f"verify_{args.suite}")
        with open(base + ".txt", "w", encoding="ascii") as fh:
            fh.write(text)
        with open(base + ".json", "w", encoding="ascii") as fh:
            fh.write(js)
    except OSError as exc:
        print(f"error: cannot write reports under {args.out}: {exc}",
              file=sys.stderr)
        return 2
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "grid":
        return _cmd_grid(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
