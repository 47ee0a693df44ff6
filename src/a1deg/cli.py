"""Command-line front end for degree and Euler-characteristic computations.

Subcommands:
  global  --field Q --vars x1,x2 --system "x1*x2; x1+x2"
  local   --field Q --vars x1,x2 --system "..." --point "x1; x2"
  euler   --r 2 --n 4 [--field Q] [--seed 0]
  table   [--max-n 7] [--field Q] [--format text|json|csv]

Field specs: Q, F<p>, Q(<name>), F<p>(<name>).  Systems and point generators
are ';'-separated polynomials in the declared variables.  The default field
comes from the A1DEG_FIELD environment variable (Q if unset).

Success prints the class (text grammar 'kH + <u1,...,ur>', zero parts
elided) or its JSON rendering and exits 0; failures print one line on stderr
naming the failing stage and exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .degree import global_degree, local_degree
from .errors import (
    A1DegError,
    DegenerateFormError,
    FieldMismatchError,
    IncompleteCoverError,
    NonSquareSystemError,
    NotZeroDimensionalError,
    ParseError,
    PointNotOnZeroLocusError,
    RetriesExhaustedError,
    RingMismatchError,
    UnsupportedFieldError,
    ZeroInputError,
)
from .fields import Field, parse_field
from .grassmannian import closed_form_table, euler_characteristic
from .gw import GWClass, render_text
from .polynomials import Poly, PolyRing, parse_poly

_STAGES: list[tuple[type, str]] = [
    (ParseError, "parse"),
    (UnsupportedFieldError, "field"),
    (FieldMismatchError, "field"),
    (NotZeroDimensionalError, "groebner"),
    (DegenerateFormError, "degenerate"),
    (PointNotOnZeroLocusError, "input"),
    (IncompleteCoverError, "input"),
    (NonSquareSystemError, "input"),
    (RingMismatchError, "input"),
    (RetriesExhaustedError, "retries"),
    (ZeroInputError, "input"),
    (A1DegError, "input"),
    (ValueError, "parse"),
]


def _stage_of(exc: Exception) -> str:
    for klass, stage in _STAGES:
        if isinstance(exc, klass):
            return stage
    return "internal"


def _explain(exc: Exception) -> str:
    if isinstance(exc, NotZeroDimensionalError):
        return f"{exc} (the zeros are not isolated)"
    return str(exc)


def _field_from(args: argparse.Namespace) -> Field:
    spec = args.field or os.environ.get("A1DEG_FIELD", "Q")
    return parse_field(spec)


def _parse_system(ring: PolyRing, text: str) -> list[Poly]:
    parts = [p.strip() for p in text.split(";")]
    if any(not p for p in parts):
        raise ParseError(f"empty entry in {text!r}")
    return [parse_poly(ring, p) for p in parts]


def _ring_from(args: argparse.Namespace, field: Field) -> PolyRing:
    names = [v.strip() for v in args.vars.split(",")]
    if any(not v for v in names):
        raise ParseError(f"empty variable name in {args.vars!r}")
    return PolyRing(field, names)


def _emit_class(gw: GWClass, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(gw.to_json(), sort_keys=False)
    return str(gw)


def rerender_json(payload: str) -> str:
    """Round-trip helper: the text rendering of a JSON class payload."""
    data = json.loads(payload)
    return render_text(data["hyperbolic"], data["units"])


def _run_global(args: argparse.Namespace) -> str:
    field = _field_from(args)
    ring = _ring_from(args, field)
    return _emit_class(global_degree(_parse_system(ring, args.system)), args.format)


def _run_local(args: argparse.Namespace) -> str:
    field = _field_from(args)
    ring = _ring_from(args, field)
    system = _parse_system(ring, args.system)
    point = _parse_system(ring, args.point)
    return _emit_class(local_degree(system, point), args.format)


def _run_euler(args: argparse.Namespace) -> str:
    field = _field_from(args)
    gw = euler_characteristic(field, args.r, args.n, seed=args.seed)
    return _emit_class(gw, args.format)


def _run_table(args: argparse.Namespace) -> str:
    field = _field_from(args)
    table = closed_form_table(field, args.max_n)
    if args.format == "json":
        cells = [
            {"r": r, "n": n, "class": table[(r, n)].to_json()}
            for (r, n) in sorted(table, key=lambda rn: (rn[1], rn[0]))
        ]
        return json.dumps(cells)
    if args.format == "csv":
        lines = ["r,n,class"]
        for (r, n) in sorted(table, key=lambda rn: (rn[1], rn[0])):
            lines.append(f'{r},{n},"{table[(r, n)]}"')
        return "\n".join(lines)
    max_r = args.max_n - 1
    header = ["n\\r"] + [str(r) for r in range(1, max_r + 1)]
    rows = [header]
    for n in range(2, args.max_n + 1):
        row = [str(n)]
        for r in range(1, max_r + 1):
            row.append(str(table[(r, n)]) if (r, n) in table else "")
        rows.append(row)
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a1deg",
        description="degrees of polynomial systems as bilinear-form classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--field", default=None, help="Q, F<p>, Q(t), or F<p>(t)")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output form"
        )

    p_global = sub.add_parser("global", help="global degree of a square system")
    common(p_global)
    p_global.add_argument("--vars", required=True, help="comma-separated variables")
    p_global.add_argument("--system", required=True, help="';'-separated polynomials")
    p_global.set_defaults(run=_run_global)

    p_local = sub.add_parser("local", help="local degree at one closed point")
    common(p_local)
    p_local.add_argument("--vars", required=True, help="comma-separated variables")
    p_local.add_argument("--system", required=True, help="';'-separated polynomials")
    p_local.add_argument(
        "--point", required=True, help="';'-separated generators of the point ideal"
    )
    p_local.set_defaults(run=_run_local)

    p_euler = sub.add_parser(
        "euler", help="Euler characteristic of a Grassmannian Gr(r, n)"
    )
    common(p_euler)
    p_euler.add_argument("--r", type=int, required=True)
    p_euler.add_argument("--n", type=int, required=True)
    p_euler.add_argument("--seed", type=int, default=0)
    p_euler.set_defaults(run=_run_euler)

    p_table = sub.add_parser(
        "table", help="closed-form Euler characteristics for all Gr(r, n), n <= N"
    )
    p_table.add_argument("--field", default=None, help="Q, F<p>, Q(t), or F<p>(t)")
    p_table.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    p_table.add_argument("--max-n", type=int, default=7, dest="max_n")
    p_table.set_defaults(run=_run_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.run(args)
    except Exception as exc:  # map every failure to a stage-tagged line
        print(f"a1deg: {_stage_of(exc)}: {_explain(exc)}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
