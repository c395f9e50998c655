"""Command-line surface.

Exit codes: 0 success, 1 failed mathematical validation, 2 numerical
non-convergence, 3 malformed input.  All output is deterministic for a
fixed command line: JSON objects are emitted with sorted keys and exact
rationals as "p/q" strings, tables as headerless CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import betti
from .errors import NonConvergenceError, ValidationError
from .exact import DensePoly, csv_text, parse_rational, poly_from_roots, scalar_to_json


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 3."""

    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _emit(text: str, path: str | None = None):
    if path and path != "-":
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, path: str | None = None):
    _emit(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n", path)


def _parse_alpha(text: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty length vector")
    return tuple(parse_rational(p) for p in parts)


def _positive_float(text: str) -> float:
    v = float(text)
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text!r}")
    return v


def _unit_fraction(text: str) -> float:
    v = float(text)
    if not 0 < v < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1: {text!r}")
    return v


def _positive_int(text: str) -> int:
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return v


def _import_numeric_layers():
    """Bind the point layers as globals of this module.

    Only the commands that use them call this, so the Betti commands start
    without them (~9 ms less per process).  The layers import no numpy;
    their float paths load it through `floating`.
    """
    global hitchin, quiver, spectral
    from . import hitchin, quiver, spectral


def _load_point(path: str) -> quiver.QuiverPoint:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ValueError(f"not valid JSON: {path}: {e}") from e
    try:
        return quiver.QuiverPoint.from_json_dict(obj)
    except (KeyError, TypeError, AttributeError, OverflowError) as e:
        raise ValueError(f"not a valid point file: {path}: {e}") from e


# ---------------------------------------------------------------------------
# subcommands

def _cmd_betti(args) -> int:
    pp = betti.poincare(args.r, args.n)
    if args.format == "csv":
        _emit(pp.to_csv(), args.output)
    else:
        _emit_json(
            {"r": args.r, "n": args.n, "coeffs_u": pp.coeffs_u()}, args.output
        )
    return 0


def _cmd_betti_table(args) -> int:
    if args.n_max < args.r + 1:
        raise ValueError("--n-max must be at least r + 1")
    rows = [
        (n, betti.poincare(args.r, n))
        for n in range(args.r + 1, args.n_max + 1)
    ]
    if args.format == "csv":
        _emit(csv_text(
            (args.r, n, *pair) for n, pp in rows for pair in pp.betti_numbers()
        ), args.output)
    else:
        _emit_json(
            {
                "r": args.r,
                "rows": [{"n": n, "coeffs_u": pp.coeffs_u()} for n, pp in rows],
            },
            args.output,
        )
    return 0


def _cmd_genericity(args) -> int:
    report = betti.genericity_check(args.r, args.alpha)
    witness = None
    if report.witness is not None:
        rprime, subset = report.witness
        witness = {"rprime": rprime, "S": list(subset)}
    _emit_json(
        {
            "r": args.r,
            "alpha": [scalar_to_json(a) for a in args.alpha],
            "generic": report.generic,
            "witness": witness,
        },
        args.output,
    )
    return 0


def _cmd_sample(args) -> int:
    _import_numeric_layers()
    if args.solve:
        alpha = args.alpha or tuple(Fraction(1) for _ in range(args.n))
        point = quiver.solve_real(
            args.r, args.n, alpha, seed=args.seed, tol=args.tol,
            max_iter=args.max_iter, restarts=args.restarts,
        )
    else:
        point = quiver.sample_exact(
            args.r, args.n, seed=args.seed, alpha=args.alpha
        )
    _emit(point.dumps(), args.output)
    return 0


def _cmd_hitchin(args) -> int:
    _import_numeric_layers()
    point = _load_point(args.point)
    field = hitchin.residues(point)
    base = hitchin.hitchin_map(field)
    _emit_json(base.to_json_dict(), args.output)
    return 0


def _cmd_commute(args) -> int:
    _import_numeric_layers()
    point = _load_point(args.point)
    report = hitchin.commutation_report(point)
    _emit_json(
        {
            "flavor": point.flavor,
            "all_zero": report.all_zero,
            "max_abs": report.max_abs,
            "max_rel": report.max_rel,
            "pairs": [
                [m, scalar_to_json(z0), m2, scalar_to_json(w0), a, rel]
                for (m, z0, m2, w0, a, rel) in report.pairs
            ],
        },
        args.output,
    )
    if point.flavor == "exact":
        return 0 if report.all_zero else 1
    return 0 if report.max_rel <= args.tol else 1


def _cmd_jacobian(args) -> int:
    _import_numeric_layers()
    point = _load_point(args.point)
    report = hitchin.jacobian_rank(point, threshold=args.threshold)
    _emit_json(
        {
            "rank": report.rank,
            "dim_b": report.dim_b,
            "singular_values": list(report.singular_values),
        },
        args.output,
    )
    return 0


def _cmd_spectral(args) -> int:
    _import_numeric_layers()
    point = _load_point(args.point)
    field = hitchin.residues(point)
    charpoly = spectral.spectral_charpoly(spectral.twist(field))
    if args.check_orders:
        report = spectral.order_check(charpoly)
        _emit(csv_text(
            (i, scalar_to_json(p), *rest) for i, p, *rest in report.rows
        ), args.output)
        return 0 if report.all_pass else 1
    _emit_json(charpoly.to_json_dict(), args.output)
    return 0


def _worked_point():
    """The paper's worked example: rank 2, four edges of length 1."""
    return quiver.exact_point_from_x(((1, 0, 1, 1), (0, 1, 1, 2)), alpha=[1] * 4)


def _worked_charpoly():
    return spectral.spectral_charpoly(spectral.twist(hitchin.residues(_worked_point())))


# (name, computation, frozen value): a row passes when its computation
# returns its value; local_models() validates its own fixtures
_FIXTURES = (
    ("betti-values", lambda: [betti.poincare(2, n).coeffs_u() for n in (4, 3)], [[1, 4], [1]]),
    ("rank2-oracle", lambda: [
        betti.poincare(2, n).coeffs_u() == betti.poincare_rank2(n).coeffs_u()
        for n in range(3, 9)
    ], [True] * 6),
    ("exact-sample", lambda: (
        (pt := _worked_point()).y, quiver.moment_residual(pt).complex_norm
    ), (((0, 1), (2, 0), (2, -2), (-2, 1)), 0)),
    ("base-coordinates", lambda: hitchin.hitchin_map(hitchin.residues(_worked_point())).g,
     {2: (20,)}),
    ("char-coefficient", lambda: _worked_charpoly().c[2],
     DensePoly([-10]) * poly_from_roots([1, 2, 3, 4])),
    ("order-bounds", lambda: spectral.order_check(_worked_charpoly()).all_pass, True),
    ("trace-tie", lambda: spectral.trace_consistency(hitchin.residues(_worked_point())).ok, True),
    ("bracket-zero", lambda: hitchin.poisson_bracket(
        _worked_point(), hitchin.BracketObservable(2, 5), hitchin.BracketObservable(2, 6)
    ), 0),
    ("kernel-identity", lambda: hitchin.delta_check(_worked_point(), 5, 6), 0),
    ("local-models", lambda: [m.name for m in spectral.local_models(seed=0)], ["rank3", "rank4"]),
)


def _cmd_fixtures(args) -> int:
    _import_numeric_layers()
    lines = []
    for name, compute, frozen in _FIXTURES:
        try:
            ok = compute() == frozen
        except Exception as e:
            print(f"{name}: {type(e).__name__}: {e}", file=sys.stderr)
            ok = False
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}\n")
    _emit("".join(lines), args.output)
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


def _cmd_plot_data(args) -> int:
    pp = betti.poincare(args.r, args.n)
    if args.n < args.r + 1:
        raise ValueError("edge count must be at least rank + 1")
    _emit(pp.to_csv(), args.output)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="hyperpoly")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        return p

    p = add("betti", _cmd_betti, help="Betti numbers of one space")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("betti-table", _cmd_betti_table, help="Betti numbers for a range of n")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("genericity", _cmd_genericity, help="test a length vector for genericity")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--alpha", type=_parse_alpha, required=True)

    p = add("sample", _cmd_sample, help="sample a point and print its JSON")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="exact fiber point (default)")
    mode.add_argument("--solve", action="store_true", help="solve all moment equations numerically")
    p.add_argument("--alpha", type=_parse_alpha, default=None)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--max-iter", type=_positive_int, default=2000)
    p.add_argument("--restarts", type=_positive_int, default=10)

    p = add("hitchin", _cmd_hitchin, help="base coordinates of a point file")
    p.add_argument("--point", required=True)

    p = add("commute", _cmd_commute, help="pairwise brackets of the observable family")
    p.add_argument("--point", required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-8)

    p = add("jacobian", _cmd_jacobian, help="rank of the base-coordinate differential")
    p.add_argument("--point", required=True)
    p.add_argument("--threshold", type=_unit_fraction, default=1e-8)

    p = add("spectral", _cmd_spectral, help="spectral charpoly of a point file")
    p.add_argument("--point", required=True)
    p.add_argument("--check-orders", action="store_true")

    p = add("fixtures", _cmd_fixtures, help="run the built-in fixture checks")
    p.add_argument("--check", action="store_true", help="accepted for symmetry; checks always run")

    p = add("plot-data", _cmd_plot_data, help="CSV Betti profile for plotting")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-n", type=int, required=True)

    return parser


def main(argv=None) -> int:
    return dispatch(build_parser().parse_args(argv))


def dispatch(args) -> int:
    """Run args.func(args), mapping the package's errors onto the exit
    codes above with one ``error:`` line on stderr."""
    try:
        return args.func(args)
    except NonConvergenceError as e:
        print(f"error: {e}; best residual {e.best_residual:.6e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
