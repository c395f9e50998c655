"""Exact symmetry laws of the Higgs field of a quiver point.

Each law maps a point on the complex moment fiber to another one whose
outputs follow exactly from the first's: the gauge group GL_r x (C*)^n,
a permutation of the legs, an affine change of coordinate on the line and
the C* scaling of y.  Every check is exact, so none needs a tolerance, and
nothing here imports numpy.  The complex points these moves give also pin
the one type rule for exact scalars: every value returned is a
GaussianRational exactly where its imaginary part is nonzero.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from hyperpoly.exact import GaussianRational, poly_add, poly_mul
from hyperpoly.hitchin import (
    BracketObservable,
    commutation_report,
    delta_check,
    higgs_eval,
    hitchin_map,
    observable_grad,
    poisson_bracket,
    residues,
)
from hyperpoly.linalg import exact_rank, mat_mul, mat_scale
from hyperpoly.quiver import exact_point_from_x, sample_exact
from hyperpoly.spectral import order_check, smoothness_probe, spectral_charpoly, twist

I = GaussianRational(0, 1)
LEVELS = [(2, 5), (2, 8), (3, 7), (3, 9)]


def _point(r, n, seed):
    alpha = tuple(Fraction(k, 7) for k in range(1, n + 1))
    return sample_exact(r, n, seed=seed, alpha=alpha)


def _outputs(pt):
    field = residues(pt)
    cp = spectral_charpoly(twist(field))
    return {
        "residues": field.residues,
        "g": {k: _strip(v) for k, v in hitchin_map(field).g.items()},
        "c": {s: list(cp.c[s].coeffs) for s in range(2, pt.r + 1)},
        "orders": order_check(cp).rows,
        "smoothness": smoothness_probe(cp),
    }


def _strip(coeffs):
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def _brackets_vanish(pt):
    # every commutation bracket and the two-pole kernel identity are exactly 0
    z = max(pt.marked_points) + Fraction(1, 2)
    w = min(pt.marked_points) - Fraction(1, 3)
    return commutation_report(pt).all_zero and delta_check(pt, z, w) == 0


def _inverse(g):
    # Gauss-Jordan on [g | 1]
    r = len(g)
    rows = [list(row) + [Fraction(int(a == b)) for b in range(r)] for a, row in enumerate(g)]
    for c in range(r):
        k = next(k for k in range(c, r) if rows[k][c])
        rows[c], rows[k] = rows[k], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for k in range(r):
            if k != c and rows[k][c]:
                f = rows[k][c]
                rows[k] = [u - f * v for u, v in zip(rows[k], rows[c])]
    return tuple(tuple(row[r:]) for row in rows)


def _gauges(r, n, rng):
    """Two rational draws (g, t) and one Gaussian diag(1 + i, 1, ..., 1)."""
    out = []
    while len(out) < 2:
        g = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(r)) for _ in range(r))
        if exact_rank(g) == r:
            out.append((g, [Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 4))
                            for _ in range(n)]))
    diag = tuple(tuple((1 + I if a == 0 else 1) if a == b else 0 for b in range(r)) for a in range(r))
    out.append((diag, [Fraction(1)] * n))
    return out


def _gauged(pt, g, t):
    """(x, y) -> (g x t^-1, t y g^-1)."""
    x = tuple(tuple(v / t[i] for i, v in enumerate(row)) for row in mat_mul(g, pt.x))
    y = tuple(tuple(t[i] * v for v in row) for i, row in enumerate(mat_mul(pt.y, _inverse(g))))
    return dataclasses.replace(pt, x=x, y=y)


def _scaled_y(pt, c):
    return dataclasses.replace(pt, y=tuple(tuple(c * v for v in row) for row in pt.y))


@pytest.mark.parametrize("r,n", LEVELS)
def test_gauge_invariance(r, n):
    # (x, y) -> (g x t^-1, t y g^-1): residues conjugated by g, every base,
    # spectral and smoothness output unchanged, brackets still zero
    pt = _point(r, n, seed=1)
    want = _outputs(pt)
    for g, t in _gauges(r, n, random.Random(f"gauge:{r}:{n}")):
        gi = _inverse(g)
        moved = _gauged(pt, g, t)
        got = _outputs(moved)
        assert got["residues"] == tuple(mat_mul(mat_mul(g, m), gi) for m in want["residues"])
        for key in ("g", "c", "orders", "smoothness"):
            assert got[key] == want[key], key
        assert _brackets_vanish(moved)


@pytest.mark.parametrize("r,n", LEVELS)
def test_permuting_the_legs(r, n):
    # the legs, their marked points and lengths permuted together
    pt = _point(r, n, seed=1)
    want = _outputs(pt)
    rng = random.Random(f"legs:{r}:{n}")
    for _ in range(2):
        perm = rng.sample(range(n), n)
        moved = dataclasses.replace(
            pt,
            x=tuple(tuple(row[k] for k in perm) for row in pt.x),
            y=tuple(pt.y[k] for k in perm),
            alpha=tuple(pt.alpha[k] for k in perm),
            marked_points=tuple(pt.marked_points[k] for k in perm),
        )
        got = _outputs(moved)
        assert got["residues"] == tuple(want["residues"][k] for k in perm)
        assert got["g"] == want["g"] and got["c"] == want["c"]
        # the rows are those of the same (c_i, p_j), in the new order of p
        assert sorted(got["orders"]) == sorted(want["orders"])
        smooth, ref = got["smoothness"], want["smoothness"]
        assert sorted(smooth.orders) == sorted(ref.orders)
        assert dataclasses.replace(smooth, orders=ref.orders) == ref
        assert _brackets_vanish(moved)


def _substitute(coeffs, a, b, e):
    """a^e f((w - b) / a) for f with the given coefficients, lowest first."""
    out, u = [], [1]
    for c in coeffs:
        out = poly_add(out, [c * v for v in u])
        u = poly_mul(u, [-b / a, 1 / a])
    return [a ** e * c for c in out]


@pytest.mark.parametrize("r,n", LEVELS)
def test_affine_change_of_coordinate(r, n):
    # p -> a p + b gives phi'(a z + b) = phi(z) / a, so
    # g_k(w) -> a^(n-k) g_k((w-b)/a) and c_s(w) -> a^(s(n-1)) c_s((w-b)/a);
    # a non-integer a makes every marked point a non-integer
    pt = _point(r, n, seed=1)
    want = _outputs(pt)
    for a, b in [(Fraction(-2, 5), Fraction(1, 3)), (Fraction(3), Fraction(-7, 2))]:
        moved = dataclasses.replace(pt, marked_points=tuple(a * p + b for p in pt.marked_points))
        got = _outputs(moved)
        assert got["residues"] == want["residues"]
        assert got["g"] == {k: _substitute(v, a, b, n - k) for k, v in want["g"].items()}
        assert got["c"] == {s: _substitute(v, a, b, s * (n - 1)) for s, v in want["c"].items()}
        assert got["orders"] == tuple(
            (i, a * p + b, *rest) for i, p, *rest in want["orders"]
        )
        ref = want["smoothness"]
        assert got["smoothness"] == dataclasses.replace(
            ref, orders=tuple((a * p + b, o) for p, o in ref.orders)
        )
        assert _brackets_vanish(moved)


def _power(c, k):
    return math.prod([c] * k)


@pytest.mark.parametrize("r,n", LEVELS)
@pytest.mark.parametrize("seed", [0, 1])
def test_scaling_y(r, n, seed):
    # y -> c y, the C* action: phi_i, g_k and c_s scale by c, c^k and c^s,
    # and the vanishing orders and the smoothness verdict stay; c = i makes
    # every discriminant coefficient real, and c = 1 + i scales the
    # discriminant by a complex constant, so its squarefree test runs on
    # Gaussian integers
    pt = _point(r, n, seed)
    want = _outputs(pt)
    for c in (Fraction(3, 2), Fraction(-2), I, 1 + I):
        moved = _scaled_y(pt, c)
        got = _outputs(moved)
        assert got["residues"] == tuple(mat_scale(m, c) for m in want["residues"])
        assert got["g"] == {k: [_power(c, k) * v for v in vec] for k, vec in want["g"].items()}
        assert got["c"] == {s: [_power(c, s) * v for v in vec] for s, vec in want["c"].items()}
        assert got["orders"] == want["orders"]
        assert got["smoothness"] == want["smoothness"], c
        assert _brackets_vanish(moved)


def _complex_points(r, n):
    """The point moved by diag(1 + i, 1, ..., 1), by y -> i y and by
    y -> (1 + i) y, and a point completed from an x whose first row is
    multiplied by 1 + i."""
    pt = _point(r, n, seed=1)
    _, _, (diag, t) = _gauges(r, n, random.Random(f"gauge:{r}:{n}"))
    x = ((tuple((1 + I) * v for v in pt.x[0]),) + pt.x[1:])
    return [_gauged(pt, diag, t), _scaled_y(pt, I), _scaled_y(pt, 1 + I),
            exact_point_from_x(x, seed=1)]


def _returned_scalars(pt):
    field = residues(pt)
    top = max(pt.marked_points) + Fraction(1, 2)
    z = GaussianRational(Fraction(1, 2), 1)
    yield from (v for m in field.residues for row in m for v in row)
    for at in (top, z):
        yield from (v for row in higgs_eval(field, at) for v in row)
    yield from (c for row in field.psi.rows for e in row for c in e.coeffs)
    cp = spectral_charpoly(twist(field))
    yield from (c for s in range(1, pt.r + 1) for c in cp.c[s].coeffs)
    yield from (c for vec in hitchin_map(field).g.values() for c in vec)
    obs = [BracketObservable(m, at) for m in range(2, pt.r + 1) for at in (top, z)]
    for f in obs:
        yield from observable_grad(pt, f)
    yield from (poisson_bracket(pt, f, g) for f in obs for g in obs)


# base coordinates exist up to rank 3 only, so the levels stop there
@pytest.mark.parametrize("r,n", [(2, 5), (3, 7)])
def test_one_scalar_rule_on_complex_points(r, n):
    # every exact scalar returned is a GaussianRational exactly when its
    # imaginary part is nonzero, whatever types the point's entries have
    for pt in _complex_points(r, n):
        assert any(v.imag for row in pt.x + pt.y for v in row)
        for v in _returned_scalars(pt):
            assert isinstance(v, (int, Fraction, GaussianRational)), v
            assert isinstance(v, GaussianRational) == bool(v.imag), v


def test_real_products_of_gaussian_numerators_clear_to_ints():
    # x -> i x and y -> -i y leave every product x_ai y_ib as it was: the
    # residue table holds the same ints, so psi and its Berkowitz pass run
    # on integers, not in the Gaussian ring (~80 times slower at (4, 12))
    pt = sample_exact(4, 12, seed=0)
    moved = dataclasses.replace(
        pt,
        x=tuple(tuple(I * v for v in row) for row in pt.x),
        y=tuple(tuple(-I * v for v in row) for row in pt.y),
    )
    assert all(isinstance(v, GaussianRational) for row in moved.x + moved.y for v in row)
    table, d = residues(moved)._table
    assert all(type(v) is int for row in table for u in row for v in u)
    assert (table, d) == residues(pt)._table
    assert residues(moved).cleared_traces == residues(pt).cleared_traces
