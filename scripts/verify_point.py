#!/usr/bin/env python3
"""End-to-end check on one sampled quiver point.

Samples a point (exact fiber by default, numerical with --solve), then
walks the full pipeline: moment residuals, base coordinates, bracket
report and, for exact points, the spectral characteristic polynomial,
its vanishing orders and the smoothness certificate of the spectral
curve: the orders of the discriminant at the marked points, the degree of
its off-divisor part R, and the verdict, "smooth away from D" when R is
squarefree mod p and "not certified away from D" otherwise.  Float points
report the Jacobian rank instead.  A point on the nilpotent cone has an
identically zero discriminant, which the last line reports.  Failures end
as in the ``hyperpoly`` command: one ``error:`` line on stderr and its
exit code, 1 for a failed validation, 2 for non-convergence, 3 for
malformed input.
"""

import argparse
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hyperpoly import hitchin, quiver, spectral  # noqa: E402
from hyperpoly.cli import dispatch  # noqa: E402
from hyperpoly.errors import (  # noqa: E402
    DegenerateDiscriminantError,
    DegreeOverflowError,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-r", type=int, default=3)
    ap.add_argument("-n", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--solve", action="store_true")
    ap.set_defaults(func=verify)
    return dispatch(ap.parse_args())


def verify(args) -> int:
    if args.solve:
        alpha = tuple(Fraction(1) for _ in range(args.n))
        pt = quiver.solve_real(args.r, args.n, alpha, seed=args.seed)
    else:
        pt = quiver.sample_exact(args.r, args.n, seed=args.seed)
    print(f"point: r={pt.r} n={pt.n} flavor={pt.flavor}")

    res = quiver.moment_residual(pt, alpha=[1] * args.n)
    print(f"moment residual: complex={float(res.complex_norm):.3e}")

    field = hitchin.residues(pt)
    try:
        base = hitchin.hitchin_map(field)
        dims = {k: len(v) for k, v in base.g.items()}
        print(f"base coordinates: {dims} (total {base.dim})")
    except DegreeOverflowError as e:
        print(f"base coordinates: unavailable ({e})")

    rep = hitchin.commutation_report(pt)
    print(
        f"brackets: pairs={len(rep.pairs)} all_zero={rep.all_zero} "
        f"max_rel={rep.max_rel:.3e}"
    )

    if pt.flavor == "exact":
        cp = spectral.spectral_charpoly(spectral.twist(field))
        orders = spectral.order_check(cp)
        degs = {
            i: (cp.c[i].degree if not cp.c[i].is_zero() else "zero")
            for i in range(2, cp.r + 1)
        }
        print(f"charpoly degrees: {degs}")
        print(f"order bounds: all_pass={orders.all_pass}")
        try:
            probe = spectral.smoothness_probe(cp)
        except DegenerateDiscriminantError as e:  # a nilpotent-cone point
            print(f"spectral curve: {e}")
            return 0
        print(
            f"discriminant: degree {probe.discriminant_degree}, orders at the "
            f"marked points {[o for _, o in probe.orders]}"
        )
        print(
            f"off-divisor part R: degree {probe.residual_degree}, "
            f"squarefree mod p={probe.squarefree}"
        )
        print(f"spectral curve: {probe.verdict}")
    else:
        try:
            rank = hitchin.jacobian_rank(pt)
        except ValueError as e:  # n < 2r - 1
            print(f"jacobian rank: {e}")
        else:
            print(f"jacobian rank: {rank.rank} (base dim {rank.dim_b})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
