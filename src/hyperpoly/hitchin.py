"""Higgs fields attached to quiver points and their integrable-system data.

A quiver point (x, y) with x y = 0 and y_i x_i = 0 determines a meromorphic
matrix-valued function phi(z) = sum_i x_i y_i / (z - p_i) with simple poles
at the marked points, residues that are traceless, square-zero and of rank
at most one, and decay like z^{-2} at infinity.  This module builds phi,
maps it to base coordinates (coefficient vectors of the cleared trace
powers), and checks the Poisson geometry: the bracket kernel identity, the
pairwise commutation of base components, and the rank of their Jacobian.
Exact base coordinates take one route, psi -> c_i -> Tr(psi^k) -> g_k,
built once per field and read by `hitchin_map` and the spectral layer.
The exact bracket checks run on numerators too: x, y and phi(z) are
cleared once, gradients are integer numerators over one denominator per
half, and only a reported value is divided.
Float points run on Python floats and complexes: the marked points are
converted once per evaluation point and a Fraction weight once, not at
every product, with the bits the Fraction fallback gave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import DegreeOverflowError, MomentMapError, PoleEvaluationError
from .exact import (
    DensePoly,
    GaussianRational,
    PolyMatrix,
    charpoly_numerators,
    numerators,
    poly_add,
    poly_divmod,
    poly_mul,
    ratio,
    scalar_to_json,
)
from .linalg import norm_sq
from .quiver import QuiverPoint


# relative defect allowed in a float point's complex moment equations
_MOMENT_TOL = 1e-8


def _pole_overflow(k: int) -> str:
    return f"degree overflow: trace power {k} has a higher-order pole at a marked point"


@dataclass(frozen=True)
class HiggsField:
    """Residue data of sum_i phi_i / (z - p_i).

    `psi` and `cleared_traces` are cached outside the dataclass fields.
    """

    residues: tuple  # n matrices, each r x r
    marked_points: tuple
    flavor: str  # "exact" | "float"

    @property
    def n(self) -> int:
        return len(self.residues)

    @property
    def r(self) -> int:
        return len(self.residues[0])

    @cached_property
    def _divisor(self) -> tuple[list, int, list]:
        """prod_j (z - p_j) = P / V on numerators, with its cofactors.

        With p_j = u_j / v_j in lowest terms, P = prod_j (v_j z - u_j) is a
        primitive integer polynomial and V = prod_j v_j.  Cofactor i is
        v_i P / (v_i z - u_i), that is V prod_(j != i) (z - p_j).
        """
        factors = [(-p.numerator, p.denominator) for p in map(Fraction, self.marked_points)]
        full = [1]
        for f in factors:
            full = poly_mul(full, f)
        cofactors = [[f[1] * c for c in poly_divmod(full, f)[0]] for f in factors]
        return full, math.prod(f[1] for f in factors), cofactors

    @cached_property
    def psi(self) -> PolyMatrix:
        """phi(z) * prod_j (z - p_j) assembled as a polynomial matrix.

        Entry (a, b) is sum_i (phi_i)_ab prod_(j != i) (z - p_j), summed on
        numerators over the nonzero residue entries and divided once per
        coefficient.  Entry degrees must not exceed n - 2: the z^(n-1)
        coefficient of each entry is the corresponding entry of
        sum_i phi_i.  Exact fields only.
        """
        if self.flavor != "exact":
            raise ValueError("polynomial twisting requires exact residues")
        n, r = self.n, self.r
        _, v, cofactors = self._divisor
        rows = []
        for a in range(r):
            row = []
            for b in range(r):
                terms = [(i, m[a][b]) for i, m in enumerate(self.residues) if m[a][b]]
                nums, d = numerators(c for _, c in terms)
                acc: list = []
                for (i, _), c in zip(terms, nums):
                    acc = poly_add(acc, [c * q for q in cofactors[i]])
                if len(acc) - 1 > n - 2:
                    raise DegreeOverflowError(
                        "degree overflow: residues do not sum to zero"
                    )
                row.append(DensePoly([ratio(c, d * v) for c in acc], "z"))
            rows.append(row)
        return PolyMatrix(rows, "z")

    @cached_property
    def cleared_traces(self) -> tuple:
        """(k, g_k, None) or (k, None, overflow message) for k = 2..r.

        Newton's identities turn the charpoly coefficients c_i of psi into
        t_k = Tr(psi^k) = -k c_k - sum_(i<k) c_i t_(k-i), and
        g_k = t_k / prod(z - p_j)^(k-1) must be a polynomial of degree at
        most n - 2k.  Both steps run on numerators: with c_i = C_i / D^i
        (`charpoly_numerators`) the same recurrence gives T_k = D^k t_k, and
        with prod(z - p_j) = P / V for a primitive integer P,
        g_k = T_k V^(k-1) / (D^k P^(k-1)).  P^(k-1) divides T_k over the
        rationals exactly when the numerator long division leaves no
        remainder, and each coefficient of g_k is divided once.
        """
        n = self.n
        cs, d = charpoly_numerators(self.psi)
        divisor, v, _ = self._divisor
        den = [1]
        traces, out = [], []
        for k, ck in enumerate(cs, start=1):
            tk = [-k * c for c in ck]
            for i in range(1, k):
                tk = poly_add(tk, [-c for c in poly_mul(cs[i - 1], traces[k - i - 1])])
            traces.append(tk)
            if k == 1:
                continue
            den = poly_mul(den, divisor)
            quot, rem = poly_divmod(tk, den)
            bound = n - 2 * k
            gk = overflow = None
            if rem:
                overflow = _pole_overflow(k)
            elif quot and len(quot) - 1 > bound:
                overflow = f"degree overflow: g_{k} has degree {len(quot) - 1} > {bound}"
            else:
                scale = v ** (k - 1)
                gk = tuple(ratio(c * scale, d ** k) if c else 0 for c in quot)
                gk += (0,) * (bound + 1 - len(gk))
            out.append((k, gk, overflow))
        return tuple(out)


def _edge_scale(col, row) -> float:
    return math.sqrt(
        float(sum(norm_sq(v) for v in col)) * float(sum(norm_sq(v) for v in row))
    )


def residues(point: QuiverPoint) -> HiggsField:
    """Residue matrices phi_i = x_i y_i of a quiver point.

    Validates the complex moment map: every scalar y_i x_i must vanish and
    the residues must sum to zero.  Tracelessness, square-zero and rank <= 1
    of each phi_i then hold automatically for the outer products.  Exact
    points are checked exactly, float points within _MOMENT_TOL relative to
    the entry scale.
    """
    r, n = point.r, point.n
    exact = point.flavor == "exact"
    mats = []
    for i in range(n):
        col = point.x_col(i)
        row = point.y[i]
        scalar = sum(a * b for a, b in zip(row, col))
        if exact:
            bad = bool(scalar)
        else:
            bad = abs(complex(scalar)) > _MOMENT_TOL * max(1.0, _edge_scale(col, row))
        if bad:
            raise MomentMapError(
                f"complex moment map violated: y_i x_i != 0 at edge {i + 1}",
                edge=i + 1,
            )
        mats.append(point.residue(i))
    total = mats[0]
    for m in mats[1:]:
        total = linalg.mat_add(total, m)
    defect = linalg.frob_sq(total)
    if exact:
        bad = bool(defect)
    else:
        bound = _MOMENT_TOL * max(1.0, max(float(linalg.frob_sq(m)) for m in mats))
        # bound * bound is inf past the float range, where ** 2 raises
        bad = float(defect) > bound * bound
    if bad:
        raise MomentMapError(
            "complex moment map violated: residues do not sum to zero"
        )
    return HiggsField(
        residues=tuple(mats),
        marked_points=point.marked_points,
        flavor=point.flavor,
    )


def higgs_eval(field: HiggsField, z):
    """The matrix sum_i phi_i / (z - p_i), with z taken at its exact value
    on an exact field (`_exact_z`)."""
    z = _exact_z(field.flavor, z)
    acc = linalg.zeros(field.r, field.r)
    for m, w in zip(field.residues, _inverse_distances(field.flavor, field.marked_points, z)):
        acc = linalg.mat_add(acc, linalg.mat_scale(m, w))
    return acc


@dataclass(frozen=True)
class BasePoint:
    """Coefficient vectors of the cleared trace powers g_k, k = 2..r."""

    r: int
    n: int
    g: dict  # k -> tuple of coefficients, lowest degree first

    @property
    def dim(self) -> int:
        return sum(len(v) for v in self.g.values())

    def to_json_dict(self) -> dict:
        return {
            "g": {
                str(k): [scalar_to_json(c) for c in vec]
                for k, vec in sorted(self.g.items())
            }
        }


def hitchin_map(field: HiggsField) -> BasePoint:
    """Base coordinates g_k(z) = Tr(phi(z)^k) * prod_j (z - p_j), k = 2..r.

    On the exact path g_k comes from `field.cleared_traces`; the first
    power whose trace has a higher-order pole at a marked point, or a
    quotient of degree above n - 2k, raises a degree overflow.  Float
    fields are fitted from evaluations at max(p_j) + 1, + 2, ..., which
    holds only while every g_k is a polynomial: from k = 4 on Tr(phi^k)
    may carry a higher-order pole that no fit sees, so a float field of
    rank r >= 4 raises the power-4 degree overflow before any fitting.
    """
    r, n = field.r, field.n
    if field.flavor == "exact":
        g: dict[int, tuple] = {}
        for k, gk, overflow in field.cleared_traces:
            if overflow:
                raise DegreeOverflowError(overflow, power=k)
            g[k] = gk
        return BasePoint(r=r, n=n, g=g)
    if r >= 4:
        raise DegreeOverflowError(_pole_overflow(4), power=4)

    pts = [float(p) for p in field.marked_points]
    # the points of every k are a prefix of those of k = 2
    zs = [float(z) for z in _eval_points(field.marked_points, max(n - 3, 1))]
    evaluated: dict = {}

    def cleared(j, k):
        # phi(z_j) and prod(z_j - p) are built once and shared by every k
        if j not in evaluated:
            z = zs[j]
            a = np.array([[complex(v) for v in row] for row in higgs_eval(field, z)])
            evaluated[j] = a, math.prod(z - p for p in pts)
        a, prod = evaluated[j]
        return complex(np.trace(np.linalg.matrix_power(a, k))) * prod

    g = {}
    for k in range(2, r + 1):
        count = max(n - 2 * k + 1, 0)
        coeffs = ()
        if count:
            vander = np.vander(np.array(zs[:count]), count, increasing=True)
            coeffs = np.linalg.solve(
                vander, np.array([cleared(j, k) for j in range(count)])
            )
        g[k] = tuple(complex(c) for c in coeffs)
    return BasePoint(r=r, n=n, g=g)


# ---------------------------------------------------------------------------
# Poisson geometry

@dataclass(frozen=True)
class BracketObservable:
    """Trace power Tr(phi(z0)^m) as a function of the quiver point."""

    m: int
    z0: object

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 2:
            raise ValueError("power must be an integer >= 2")


def _exact_z(flavor: str, z):
    """An evaluation point as an exact scalar for a point or field of the
    given flavor.

    On the exact flavor an int or a finite float becomes the Fraction of
    equal value and a complex z a GaussianRational; a non-finite z raises
    ValueError.  The float flavor takes z as given.
    """
    if flavor != "exact":
        return z
    if isinstance(z, complex):
        return GaussianRational(_exact_z(flavor, z.real), _exact_z(flavor, z.imag))
    if isinstance(z, float) and not math.isfinite(z):
        raise ValueError(f"non-finite evaluation point {z!r}")
    if isinstance(z, (int, float)):
        return Fraction(z)
    return z


def _cleared_xy(point: QuiverPoint) -> tuple:
    """(X, dx, Y, dy) with x = X / dx and y = Y / dy, X r x n and Y n x r.

    Exact points are cleared once with `numerators`; a float point is its
    own numerator over 1.
    """
    if point.flavor != "exact":
        return point.x, 1, point.y, 1
    r, n = point.r, point.n
    xs, dx = numerators(v for row in point.x for v in row)
    ys, dy = numerators(v for row in point.y for v in row)
    return (
        [xs[a * n:(a + 1) * n] for a in range(r)], dx,
        [ys[i * r:(i + 1) * r] for i in range(n)], dy,
    )


def _inverse_distances(flavor: str, marked_points: tuple, z, scale=1) -> list:
    """scale / (z - p_i) for every marked point; PoleEvaluationError at a
    pole.

    On the float flavor a float z meets float(p_i) and a complex z meets
    complex(p_i), converted here once: Fraction's fallback makes the same
    conversion at every z - p_i, so each difference keeps its bits, and
    z equals the converted point exactly when the difference is zero.
    """
    poles = marked_points
    if flavor != "exact" and isinstance(z, (float, complex)):
        kind = complex if isinstance(z, complex) else float
        poles = [kind(p) for p in marked_points]
    ws = []
    for i, q in enumerate(poles):
        if z == q:
            raise PoleEvaluationError(f"evaluation at pole p_{i + 1} = {marked_points[i]}")
        ws.append(scale / (z - q))
    return ws


def _complex_entries(point: QuiverPoint) -> bool:
    return all(type(v) is complex for row in point.x + point.y for v in row)


def _entry_scalars(point: QuiverPoint, ws: list) -> list:
    """Scalars that multiply the entries of a float point.

    A rational z makes them Fractions; on a point with complex entries each
    Fraction becomes complex(w) once, the value the fallback would convert
    it to at every product with an entry.
    """
    if _complex_entries(point):
        return [complex(w) if isinstance(w, Fraction) else w for w in ws]
    return ws


def _weights(point: QuiverPoint, z, scale=1) -> tuple[list, object]:
    """(W, d) with scale / (z - p_i) = W_i / d, d = 1 on a float point."""
    ws = _inverse_distances(point.flavor, point.marked_points, z, scale)
    if point.flavor == "exact":
        return numerators(ws)
    return _entry_scalars(point, ws), 1


def _cleared_phi(r: int, n: int, xy: tuple, ws: list) -> tuple:
    """phi(z) * dx dy dw, given the weights W of 1/(z - p_i) over dw: the
    sum of X_i Y_i W_i, added in the order `higgs_eval` adds floats."""
    xs, _, ys, _ = xy
    return tuple(
        tuple(sum(xs[a][i] * ys[i][b] * ws[i] for i in range(n)) for b in range(r))
        for a in range(r)
    )


def _grad_numerators(point: QuiverPoint, xy: tuple, obs: BracketObservable) -> tuple:
    """Gradient of Tr(phi(z0)^m) as numerators G and denominators (ex, ey).

    With phi(z0) = A / D on numerators (D = dx dy dw) and m / (z0 - p_i) =
    M_i / dm, the x entries M_i (Y_i A^(m-1))_a are over ex = dy e and the
    y entries M_i (A^(m-1) X_i)_b over ey = dx e, where e = dm D^(m-1).
    Every bracket of two such gradients therefore has the one denominator
    ey_f ex_g = ex_f ey_g, and `_contract` on numerators is zero exactly
    when the bracket is.  A float point is its own numerator, with the
    same operations in the same order as the float formulas.
    """
    if obs.m > point.r:
        raise ValueError("power must lie between 2 and the rank")
    r, n, m = point.r, point.n, obs.m
    z0 = _exact_z(point.flavor, obs.z0)
    xs, dx, ys, dy = xy
    ws, dw = _weights(point, z0)
    ms, dm = _weights(point, z0, m)
    apow = linalg.mat_pow(_cleared_phi(r, n, xy, ws), m - 1)
    out = [0] * (2 * r * n)
    for i, w in enumerate(ms):
        row = ys[i]
        for a in range(r):
            out[a * n + i] = w * sum(row[b] * apow[b][a] for b in range(r))
            out[r * n + i * r + a] = w * sum(apow[a][b] * xs[b][i] for b in range(r))
    e = dm * (dx * dy * dw) ** (m - 1)
    return tuple(out), dy * e, dx * e


def observable_grad(
    point: QuiverPoint,
    obs: BracketObservable,
    field: Optional[HiggsField] = None,
) -> tuple:
    """Closed-form gradient of Tr(phi(z0)^m) as one flat tuple.

    With A = phi(z0), entry a*n + i is d/d(x_i)_a = m (y_i A^(m-1))_a /
    (z0 - p_i) and entry r*n + i*r + b is d/d(y_i)_b = m (A^(m-1) x_i)_b /
    (z0 - p_i): the x entries row by row, then the y entries row by row.
    Exact points run on numerators and divide once per entry; ``field``,
    when given, stands for the moment-map check `residues` makes.
    """
    if field is None:
        residues(point)
    g, ex, ey = _grad_numerators(point, _cleared_xy(point), obs)
    if point.flavor != "exact":
        return g
    half = point.r * point.n
    return tuple(ratio(v, ex) for v in g[:half]) + tuple(ratio(v, ey) for v in g[half:])


def _contract(r: int, n: int, f: tuple, g: tuple):
    """Canonical bracket pairing of two flat gradients.

    The sign is fixed so that the bracket induced on the residue entries
    M = x_i y_i is delta_jk M_il - delta_il M_kj.  A product with a zero
    factor is skipped and the others are added in the full sum's order, so
    float sums keep their bits up to the sign of a zero.
    """
    acc = 0
    for i in range(n):
        for a in range(r):
            x, y = a * n + i, r * n + i * r + a
            if f[y] and g[x]:
                acc = acc + f[y] * g[x]
            if f[x] and g[y]:
                acc = acc - f[x] * g[y]
    return acc


def poisson_bracket(point: QuiverPoint, f: BracketObservable, g: BracketObservable):
    """Canonical holomorphic bracket of two trace-power observables."""
    residues(point)
    xy = _cleared_xy(point)
    gf, _, ey = _grad_numerators(point, xy, f)
    gg, ex, _ = _grad_numerators(point, xy, g)
    val = _contract(point.r, point.n, gf, gg)
    return ratio(val, ey * ex) if point.flavor == "exact" else val


def _entry_grads(r: int, n: int, xy: tuple, ws: list) -> dict:
    # flat gradients of every entry phi(z)_ab on numerators, 2n nonzeros
    # each: the x entries W_i Y_ib over dy dw, the y entries W_i X_ai over
    # dx dw; the scaled rows and columns are shared by the r^2 entries
    xs, _, ys, _ = xy
    wy = [[w * ys[i][b] for i, w in enumerate(ws)] for b in range(r)]
    wx = [[w * xs[a][i] for i, w in enumerate(ws)] for a in range(r)]
    grads = {}
    for a in range(r):
        for b in range(r):
            out = [0] * (2 * r * n)
            for i in range(n):
                out[a * n + i] = wy[b][i]
                out[r * n + i * r + b] = wx[a][i]
            grads[(a, b)] = tuple(out)
    return grads


def delta_check(point: QuiverPoint, z, w):
    """Deviation of the bracket of field entries from its two-pole kernel.

    Computes {phi_ab(z), phi_cd(w)} for every index quadruple through the
    canonical bracket and compares with delta_bc D_ad - delta_ad D_cb where
    D = phi(z)/(w-z) + phi(w)/(z-w).  Returns the maximum squared magnitude
    of the difference, which is exactly zero for exact points.

    On an exact point every entry pairing is L / E with E = dx dy dz dw,
    and with w - z = s / t the kernel is D = t (dw A_z - dz A_w) / (E s)
    for the numerators A of phi; each pairing is compared by cross
    multiplication, L s against t (dw A_z - dz A_w).
    """
    z, w = _exact_z(point.flavor, z), _exact_z(point.flavor, w)
    if z == w:
        raise ValueError("coincident evaluation points")
    residues(point)
    exact = point.flavor == "exact"
    r, n = point.r, point.n
    xy = _cleared_xy(point)
    wz, dz = _weights(point, z)
    ww, dw = _weights(point, w)
    phi_z = _cleared_phi(r, n, xy, wz)
    phi_w = _cleared_phi(r, n, xy, ww)
    if exact:
        _, dx, _, dy = xy
        (s,), t = numerators((w - z,))
        den = dx * dy * dz * dw * s
        kernel = linalg.mat_scale(
            linalg.mat_sub(linalg.mat_scale(phi_z, dw), linalg.mat_scale(phi_w, dz)), t
        )
    else:
        sz, sw = _entry_scalars(point, [1 / (w - z), 1 / (z - w)])
        kernel = linalg.mat_add(linalg.mat_scale(phi_z, sz), linalg.mat_scale(phi_w, sw))
    grads_z = _entry_grads(r, n, xy, wz)
    grads_w = _entry_grads(r, n, xy, ww)
    worst = 0
    for a in range(r):
        for b in range(r):
            for c in range(r):
                for d in range(r):
                    lhs = _contract(r, n, grads_z[(a, b)], grads_w[(c, d)])
                    rhs = 0
                    if b == c:
                        rhs = rhs + kernel[a][d]
                    if a == d:
                        rhs = rhs - kernel[c][b]
                    if exact:
                        diff = lhs * s - rhs
                        dev = norm_sq(ratio(diff, den)) if diff else 0
                    else:
                        dev = norm_sq(lhs - rhs)
                    if dev > worst:
                        worst = dev
    return worst


# ---------------------------------------------------------------------------
# reports

def _eval_points(marked_points: Sequence, count: int) -> tuple:
    """Evaluation points max(p_j) + 1, ..., max(p_j) + count, off every pole."""
    top = Fraction(max(marked_points))
    return tuple(top + 1 + t for t in range(count))


def _grad_norm(g: tuple, ex, ey) -> float:
    # from the exact sums of squared numerators, one division per half
    half = len(g) // 2
    sx = sum(norm_sq(v) for v in g[:half])
    sy = sum(norm_sq(v) for v in g[half:])
    return math.sqrt(sx / ex ** 2 + sy / ey ** 2)


@dataclass(frozen=True)
class CommutationReport:
    """All pairwise brackets of the default observable family."""

    pairs: tuple  # ((m, z0, m', w0, abs_value, rel_value), ...)
    max_abs: float
    max_rel: float
    all_zero: bool  # exact flavor: every bracket is identically zero


def commutation_report(point: QuiverPoint) -> CommutationReport:
    """Brackets of all observable pairs at the evaluation points
    max(p_j) + 1, + 2, + 3."""
    n, r = point.n, point.r
    residues(point)
    obs = [
        BracketObservable(m, z0)
        for m in range(2, r + 1)
        for z0 in _eval_points(point.marked_points, 3)
    ]
    xy = _cleared_xy(point)
    grads = [_grad_numerators(point, xy, o) for o in obs]
    # only a nonzero bracket needs norms, and only it is divided
    norms = None
    pairs = []
    max_abs = 0.0
    max_rel = 0.0
    all_zero = True
    for i, (gi, _, ey) in enumerate(grads):
        for j in range(i + 1, len(obs)):
            gj, ex, _ = grads[j]
            val = _contract(r, n, gi, gj)
            a = rel = 0.0
            if val:
                all_zero = False
                if norms is None:
                    norms = [_grad_norm(*g) for g in grads]
                a = math.sqrt(norm_sq(val) / (ey * ex) ** 2)
                rel = a / max(1.0, norms[i] * norms[j])
            max_abs = max(max_abs, a)
            max_rel = max(max_rel, rel)
            pairs.append(
                (obs[i].m, obs[i].z0, obs[j].m, obs[j].z0, a, rel)
            )
    return CommutationReport(
        pairs=tuple(pairs), max_abs=max_abs, max_rel=max_rel, all_zero=all_zero
    )


@dataclass(frozen=True)
class JacobianReport:
    """Numerical rank data of the base-coordinate differential."""

    rank: int
    dim_b: int
    singular_values: tuple


def _float_point(point: QuiverPoint) -> QuiverPoint:
    if point.flavor == "float":
        return point
    try:
        x = tuple(tuple(complex(v) for v in row) for row in point.x)
        y = tuple(tuple(complex(v) for v in row) for row in point.y)
    except OverflowError as e:
        raise ValueError(f"point entries outside the float range: {e}") from e
    return QuiverPoint(
        r=point.r,
        n=point.n,
        flavor="float",
        x=x,
        y=y,
        alpha=point.alpha,
        marked_points=point.marked_points,
    )


def jacobian_rank(point: QuiverPoint, threshold: float = 1e-8) -> JacobianReport:
    """Rank of the derivative of all base coordinates in (x, y).

    The N = n-2m+1 coordinates of g_m are sampled at z_j = c + R w^j, the
    N-th roots of unity w^j on a circle around every pole (c the mean of
    the p_j, R = 1.2 max|p_j - c| + 1).  Each flat gradient row of
    Tr(phi(z_j)^m) is multiplied by prod(z_j - p), which gives the gradient
    of g_m(z_j), and the N x N DFT across the block turns the values into
    the coefficients of g_m in the basis ((z - c)/R)^k.  Both steps are
    invertible, so the rank is unchanged.  Each row is then scaled to unit
    norm, a zero row staying zero; a non-finite row raises ValueError.
    Rank counts singular values above threshold times the largest one.

    Below n = 2r - 1 some counts n - 2m + 1 are negative, so the rows
    would outnumber dim_b; ValueError then names the reflection partner
    (n - r, n), whose space has the same dimension.
    """
    r, n = point.r, point.n
    if n < 2 * r - 1:
        raise ValueError(
            f"jacobian_rank needs n >= 2r - 1: at ({r}, {n}) the rows outnumber "
            f"dim_b; use the dual level ({n - r}, {n})"
        )
    fp = _float_point(point)
    field = residues(fp)
    poles = np.array([float(p) for p in fp.marked_points])
    centre = poles.mean()
    radius = 1.2 * np.abs(poles - centre).max() + 1
    blocks = []
    for m in range(2, r + 1):
        count = n - 2 * m + 1
        if count <= 0:
            continue
        k = np.arange(count)
        zs = centre + radius * np.exp(2j * np.pi * k / count)
        block = np.array([
            observable_grad(fp, BracketObservable(m, complex(z)), field) for z in zs
        ])
        block *= np.prod(zs[:, None] - poles, axis=1)[:, None]
        blocks.append(np.exp(-2j * np.pi * np.outer(k, k) / count) @ block)
    dim_b = (r - 1) * (n - r - 1)
    if not blocks:
        return JacobianReport(rank=0, dim_b=dim_b, singular_values=())
    mat = np.vstack(blocks)
    if not np.isfinite(mat).all():
        raise ValueError("Jacobian rows outside the float range")
    peak = np.abs(mat).max(axis=1, keepdims=True)
    mat = np.divide(mat, peak, out=np.zeros_like(mat), where=peak > 0)
    norm = np.linalg.norm(mat, axis=1, keepdims=True)
    mat = np.divide(mat, norm, out=np.zeros_like(mat), where=norm > 0)
    svals = np.linalg.svd(mat, compute_uv=False)
    top = float(svals[0]) if svals.size else 0.0
    if top == 0.0:
        rank = 0
    else:
        rank = int(np.sum(svals > threshold * top))
    return JacobianReport(
        rank=rank,
        dim_b=dim_b,
        singular_values=tuple(float(s) for s in svals),
    )
