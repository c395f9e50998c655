"""Points of the doubled star-quiver representation space.

A point is a pair (x, y) with x an r-by-n matrix (one column per edge) and
y an n-by-r matrix (one row per edge).  Exact points carry Fraction or
GaussianRational entries and satisfy the complex moment map equations
on the nose; float points come out of the damped least squares solver and
satisfy real and complex equations to a tolerance.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import (
    DegenerateSampleError,
    LevelSetError,
    NonConvergenceError,
    NotMinimalOrbitError,
    TrivialFiberError,
    ZeroMatrixError,
)
from .exact import (
    GaussianRational,
    numerators,
    parse_rational,
    scalar_from_json,
    scalar_to_json,
)
from .linalg import norm_sq


def _in_float_range(v) -> bool:
    try:
        return cmath.isfinite(complex(v))
    except OverflowError:
        return False


def default_marked_points(n: int) -> tuple[Fraction, ...]:
    """Marked points 1, 2, ..., n on the affine line."""
    return tuple(Fraction(i) for i in range(1, n + 1))


@dataclass(frozen=True)
class QuiverPoint:
    """One representation point, exact or floating."""

    r: int
    n: int
    flavor: str  # "exact" | "float"
    x: tuple[tuple, ...]  # r x n
    y: tuple[tuple, ...]  # n x r
    alpha: Optional[tuple[Fraction, ...]] = None
    marked_points: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.flavor not in ("exact", "float"):
            raise ValueError("flavor must be 'exact' or 'float'")
        if self.r < 1 or self.n < 1:
            raise ValueError("rank and edge count must be positive")
        if len(self.x) != self.r or any(len(row) != self.n for row in self.x):
            raise ValueError("x must be r x n")
        if len(self.y) != self.n or any(len(row) != self.r for row in self.y):
            raise ValueError("y must be n x r")
        if self.alpha is not None:
            if len(self.alpha) != self.n:
                raise ValueError("length vector size must match the edge count")
            if any(a <= 0 for a in self.alpha):
                raise ValueError("length vector entries must be positive")
        if not self.marked_points:
            object.__setattr__(
                self, "marked_points", default_marked_points(self.n)
            )
        if len(set(self.marked_points)) != self.n:
            raise ValueError("marked points must be distinct")
        if self.flavor == "float":
            values = [v for row in self.x + self.y for v in row]
            if not all(map(_in_float_range, values + list(self.marked_points))):
                raise ValueError("float point has a value outside the float range")

    def x_col(self, i: int) -> tuple:
        return tuple(self.x[a][i] for a in range(self.r))

    def residue(self, i: int) -> tuple[tuple, ...]:
        """Outer product x_i y_i for edge i."""
        col = self.x_col(i)
        row = self.y[i]
        return tuple(tuple(c * v for v in row) for c in col)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "n": self.n,
            "flavor": self.flavor,
            "alpha": None
            if self.alpha is None
            else [scalar_to_json(a) for a in self.alpha],
            "marked_points": [scalar_to_json(p) for p in self.marked_points],
            "x": [[scalar_to_json(v) for v in row] for row in self.x],
            "y": [[scalar_to_json(v) for v in row] for row in self.y],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "QuiverPoint":
        alpha = obj.get("alpha")
        r, n, flavor = obj["r"], obj["n"], obj["flavor"]
        if type(r) is not int or type(n) is not int:
            raise ValueError("r and n must be JSON integers")
        exact = flavor == "exact"
        return cls(
            r=r,
            n=n,
            flavor=flavor,
            x=tuple(
                tuple(scalar_from_json(v, exact) for v in row) for row in obj["x"]
            ),
            y=tuple(
                tuple(scalar_from_json(v, exact) for v in row) for row in obj["y"]
            ),
            alpha=None
            if alpha is None
            else tuple(parse_rational(a) for a in alpha),
            marked_points=tuple(
                parse_rational(p) for p in obj["marked_points"]
            ),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def loads(cls, text: str) -> "QuiverPoint":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class MomentResidual:
    """Squared residual sums of the four moment equation groups.

    ``real_norm`` collects the traceless real equation and the per-edge
    length equations, ``complex_norm`` the matrix equation x y = 0 and the
    per-edge scalar equations y_i x_i = 0.  Both are sums of squared
    magnitudes, hence exactly zero iff every component vanishes.
    """

    real_norm: object
    complex_norm: object
    per_edge: tuple[tuple[object, object], ...]


def moment_residual(point: QuiverPoint, alpha: Sequence | None = None) -> MomentResidual:
    avec = tuple(Fraction(a) for a in alpha) if alpha is not None else point.alpha
    if avec is None:
        raise ValueError("no length vector: pass alpha or store it on the point")
    if len(avec) != point.n:
        raise ValueError("length vector size must match the edge count")
    r, n = point.r, point.n
    x, y = point.x, point.y
    xs = linalg.conj_t(x)
    ys = linalg.conj_t(y)
    total = sum(avec)
    center = total / r if point.flavor == "exact" else float(total) / r
    avals = [float(a) for a in avec] if point.flavor == "float" else list(avec)

    real_mat = linalg.mat_sub(linalg.mat_mul(x, xs), linalg.mat_mul(ys, y))
    real_mat = linalg.mat_sub(
        real_mat, linalg.mat_scale(linalg.identity(r), center)
    )
    complex_mat = linalg.mat_mul(x, y)

    per_edge = []
    for i in range(n):
        col = point.x_col(i)
        row = y[i]
        len_defect = (
            sum(norm_sq(v) for v in col)
            - sum(norm_sq(v) for v in row)
            - avals[i]
        )
        scalar = sum(a * b for a, b in zip(row, col))
        per_edge.append((len_defect, scalar))

    real_norm = linalg.frob_sq(real_mat) + sum(
        d * d for d, _ in per_edge
    )
    complex_norm = linalg.frob_sq(complex_mat) + sum(
        norm_sq(s) for _, s in per_edge
    )
    return MomentResidual(
        real_norm=real_norm,
        complex_norm=complex_norm,
        per_edge=tuple(per_edge),
    )


# ---------------------------------------------------------------------------
# exact sampling on the complex moment map fiber

# draws of x before `sample_exact` gives up on a full-rank one
_MAX_DRAWS = 20


def _canonical_primitive(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a rational vector to a primitive integer vector whose first
    nonzero coordinate is positive."""
    nums, _ = numerators(vec)
    g = math.gcd(*nums)
    if g == 0:
        raise ValueError("zero vector cannot be normalized")
    if next(v for v in nums if v) < 0:
        g = -g
    return tuple(Fraction(v // g) for v in nums)


def _as_real_fractions(vec) -> Optional[list[Fraction]]:
    """The vector as plain Fractions, or None if any entry is non-real."""
    out = []
    for v in vec:
        if isinstance(v, GaussianRational):
            if v.im != 0:
                return None
            out.append(v.re)
        elif isinstance(v, (int, Fraction)):
            out.append(Fraction(v))
        else:
            return None
    return out


def _fiber_kernel(x: tuple[tuple, ...], r: int, n: int) -> list[tuple]:
    """Kernel of the linear system cutting out { y : x y = 0, y_i x_i = 0 }.

    Unknowns are the entries of y flattened row by row.
    """
    rows = []
    for i in range(n):
        row = [0] * (n * r)
        for a in range(r):
            row[i * r + a] = x[a][i]
        rows.append(row)
    for a in range(r):
        for b in range(r):
            row = [0] * (n * r)
            for i in range(n):
                row[i * r + b] = x[a][i]
            rows.append(row)
    return linalg.kernel_basis(linalg.mat(rows))


def exact_point_from_x(
    x: Sequence[Sequence],
    seed: int = 0,
    alpha: Sequence | None = None,
    marked_points: Sequence | None = None,
) -> QuiverPoint:
    """Complete a given exact x to a point on the complex moment fiber.

    y is drawn from the kernel of the fiber equations with small seeded
    integer coefficients, then scaled to a primitive integer vector with
    positive leading coordinate, so the output is deterministic and unique
    up to the seed.
    """
    xm = linalg.mat(
        [[v if isinstance(v, (Fraction, GaussianRational)) else Fraction(v) for v in row] for row in x]
    )
    r, n = linalg.shape(xm)
    if n < 1 or r < 1:
        raise ValueError("x must be a nonempty matrix")
    basis = _fiber_kernel(xm, r, n)
    if not basis:
        raise TrivialFiberError(
            f"trivial fiber: only y = 0 satisfies the equations at r={r}, n={n}"
        )
    rng = random.Random(seed)
    flat = None
    while flat is None:
        coeffs = [rng.randint(-5, 5) for _ in basis]
        if not any(coeffs):
            continue
        flat = [
            sum(c * vec[k] for c, vec in zip(coeffs, basis))
            for k in range(n * r)
        ]
        if not any(flat):
            flat = None
    reals = _as_real_fractions(flat)
    if reals is not None:
        flat = list(_canonical_primitive(reals))
    y = tuple(tuple(flat[i * r + a] for a in range(r)) for i in range(n))
    return QuiverPoint(
        r=r,
        n=n,
        flavor="exact",
        x=xm,
        y=y,
        alpha=None if alpha is None else tuple(Fraction(a) for a in alpha),
        marked_points=tuple(
            Fraction(p) for p in (marked_points or default_marked_points(n))
        ),
    )


def sample_exact(
    r: int, n: int, seed: int = 0, alpha: Sequence | None = None
) -> QuiverPoint:
    """Seeded exact point on the complex moment fiber, marked points 1..n.

    x gets small random integer entries and is redrawn while rank deficient,
    at most _MAX_DRAWS times; y is then completed as in
    `exact_point_from_x`.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError("rank must be a positive integer")
    if not isinstance(n, int) or n < 1:
        raise ValueError("edge count must be a positive integer")
    rng = random.Random((seed, r, n).__repr__())
    for _ in range(_MAX_DRAWS):
        x = tuple(
            tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))
            for _ in range(r)
        )
        if linalg.exact_rank(x) == min(r, n):
            return exact_point_from_x(x, seed=seed, alpha=alpha)
    raise DegenerateSampleError(
        f"could not draw a full-rank x in {_MAX_DRAWS} attempts"
    )


# ---------------------------------------------------------------------------
# numerical solve of the full (real and complex) moment equations

def _np_point(x: np.ndarray, y: np.ndarray, r, n, alpha) -> QuiverPoint:
    return QuiverPoint(
        r=r,
        n=n,
        flavor="float",
        x=tuple(tuple(complex(v) for v in row) for row in x),
        y=tuple(tuple(complex(v) for v in row) for row in y),
        alpha=tuple(Fraction(a) for a in alpha),
    )


def _pack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [x.real.ravel(), x.imag.ravel(), y.real.ravel(), y.imag.ravel()]
    )


def _unpack(theta: np.ndarray, r: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    k = r * n
    x = (theta[:k] + 1j * theta[k : 2 * k]).reshape(r, n)
    y = (theta[2 * k : 3 * k] + 1j * theta[3 * k :]).reshape(n, r)
    return x, y


@functools.cache
def _jacobian_pattern(r: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero pattern (pos, src, coef) of the moment-map Jacobian at (r, n).

    This is the one statement of the moment equations.  With
    theta = (Re x, Im x, Re y, Im y), x r x n and y n x r, the residual
    rows are, in order:
      [0, r^2)              Re(x x^* - y^* y) - c Id, row a r + b
      [r^2, 2r^2)           Im(x x^* - y^* y), row r^2 + a r + b
      [2r^2, 2r^2 + n)      |x_i|^2 - |y_i|^2 - alpha_i, row 2r^2 + i
      [2r^2 + n, 4r^2 + n)  Re and Im of x y, rows 2r^2 + n + a r + b
                            and 3r^2 + n + a r + b
      [4r^2 + n, 4r^2 + 3n) Re and Im of y_i x_i, rows 4r^2 + n + i
                            and 4r^2 + 2n + i
    with c = |alpha| / r.  Each entry is a quadratic form q(theta) minus
    a constant, so its Jacobian is linear in theta: entry pos of the
    flattened (rows, 4rn) matrix is the sum of coef * theta[src] over the
    triples at pos, and q(theta) = J(theta) theta / 2 by Euler's identity.
    Each q is a sum of products c u v, with c = +-1 and u, v entries of
    x, y or their conjugates; the triples are the partial derivatives of
    Re(c u v) and Im(c u v), with equal (pos, src) merged and zeros dropped.
    """
    k = r * n
    cols = 4 * k
    r2 = r * r

    def xe(a, i, s):  # x[a, i], conjugated when s = -1
        return a * n + i, k + a * n + i, s

    def ye(i, a, s):  # y[i, a], conjugated when s = -1
        return 2 * k + i * r + a, 3 * k + i * r + a, s

    parts = []

    def emit(row, col, src, coef):
        parts.append([v.ravel() for v in np.broadcast_arrays(row, col, src, coef)])

    def product(re_row, im_row, c, u, v):
        # u = theta[ur] + i su theta[ui] and v likewise; writing ur for
        # theta[ur], Re(c u v) = c (ur vr - su sv ui vi) and
        # Im(c u v) = c (su ui vr + sv ur vi)
        (ur, ui, su), (vr, vi, sv) = u, v
        emit(re_row, ur, vr, c)
        emit(re_row, vr, ur, c)
        emit(re_row, ui, vi, -c * su * sv)
        emit(re_row, vi, ui, -c * su * sv)
        if im_row is not None:
            emit(im_row, ui, vr, c * su)
            emit(im_row, vr, ui, c * su)
            emit(im_row, ur, vi, c * sv)
            emit(im_row, vi, ur, c * sv)

    a, b, i = np.ogrid[:r, :r, :n]
    # x x^* - y^* y - c Id
    pair = a * r + b
    product(pair, r2 + pair, 1, xe(a, i, 1), xe(b, i, -1))
    product(pair, r2 + pair, -1, ye(i, a, -1), ye(i, b, 1))
    # |x_i|^2 - |y_i|^2 - alpha_i, real by construction
    a1, i1 = np.ogrid[:r, :n]
    product(2 * r2 + i1, None, 1, xe(a1, i1, 1), xe(a1, i1, -1))
    product(2 * r2 + i1, None, -1, ye(i1, a1, 1), ye(i1, a1, -1))
    # x y
    product(2 * r2 + n + pair, 3 * r2 + n + pair, 1, xe(a, i, 1), ye(i, b, 1))
    # y_i x_i
    product(4 * r2 + n + i1, 4 * r2 + 2 * n + i1, 1, ye(i1, a1, 1), xe(a1, i1, 1))

    row, col, src, coef = (np.concatenate(v) for v in zip(*parts))
    uniq, inverse = np.unique((row * cols + col) * cols + src, return_inverse=True)
    coef = np.bincount(inverse, weights=coef)
    keep = coef != 0
    uniq, coef = uniq[keep], coef[keep]
    return uniq // cols, uniq % cols, coef


def _jacobian(theta: np.ndarray, r: int, n: int) -> np.ndarray:
    """Moment-map Jacobian at theta, filled from `_jacobian_pattern`."""
    pos, src, coef = _jacobian_pattern(r, n)
    cols = theta.size
    rows = 4 * r * r + 3 * n
    flat = np.bincount(pos, weights=coef * theta[src], minlength=rows * cols)
    return flat.reshape(rows, cols)


def solve_real(
    r: int,
    n: int,
    alpha: Sequence,
    seed: int = 0,
    tol: float = 1e-9,
    max_iter: int = 2000,
    restarts: int = 10,
) -> QuiverPoint:
    """Find a float point satisfying all moment equations at level alpha,
    marked points 1..n.

    Damped least squares (Levenberg-Marquardt) with seeded restarts.  One
    fill of the Jacobian J from `_jacobian_pattern` per candidate gives
    its residual J theta / 2 - ell, with ell the constants c Id and alpha,
    and, once the candidate is accepted, the next step's Jacobian.  The
    accepted-step rule makes the residual norm monotonically non-increasing
    within each restart; a candidate that overflows is rejected.  Raises
    ValueError if an entry of alpha or their sum does not fit a float, and
    NonConvergenceError with the best residual if the iteration budget is
    exhausted before the residual norm drops below tol.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError("rank must be a positive integer")
    if not isinstance(n, int) or n < 1:
        raise ValueError("edge count must be a positive integer")
    avec_frac = tuple(Fraction(a) for a in alpha)
    if len(avec_frac) != n:
        raise ValueError("length vector size must match the edge count")
    if any(a <= 0 for a in avec_frac):
        raise ValueError("length vector entries must be positive")
    for i, a in enumerate(avec_frac, start=1):
        if not _in_float_range(a):
            raise ValueError(f"length vector entry {i} is outside the float range")
    total = sum(avec_frac)
    if not _in_float_range(total):
        raise ValueError("length vector sum is outside the float range")
    avec = np.array([float(a) for a in avec_frac])
    r2 = r * r
    ell = np.zeros(4 * r2 + 3 * n)
    ell[: r2 : r + 1] = float(total) / r
    ell[2 * r2 : 2 * r2 + n] = avec

    def evaluate(theta):
        jac = _jacobian(theta, r, n)
        res = jac @ theta / 2 - ell
        return jac, res, math.hypot(*res)

    best = math.inf
    used = 0
    # an overflowing candidate costs inf or nan and is rejected like any
    # other that does not lower the cost
    with np.errstate(over="ignore", invalid="ignore"):
        for attempt in range(restarts):
            if used >= max_iter:
                break
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(attempt,))
            )
            x = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            y = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            # start near the expected length scale: |x_i|^2 - |y_i|^2 = alpha_i,
            # with y kept away from zero so the solution is not forced onto the
            # zero section
            for i in range(n):
                y[i, :] *= math.sqrt(0.45 * avec[i]) / np.linalg.norm(y[i, :])
                x[:, i] *= math.sqrt(1.45 * avec[i]) / np.linalg.norm(x[:, i])
            theta = _pack(x, y)
            jac, res, cost = evaluate(theta)
            mu = 1e-3
            stall = 0
            while used < max_iter:
                used += 1
                jtj = jac.T @ jac
                jtr = jac.T @ res
                stepped = False
                for _ in range(25):
                    try:
                        delta = np.linalg.solve(
                            jtj + mu * np.eye(jtj.shape[0]), -jtr
                        )
                    except np.linalg.LinAlgError:
                        mu *= 10
                        continue
                    cand = theta + delta
                    cjac, cres, ccost = evaluate(cand)
                    if ccost < cost:
                        theta, jac, res, cost = cand, cjac, cres, ccost
                        mu = max(mu / 3.0, 1e-14)
                        stepped = True
                        break
                    mu *= 4.0
                best = min(best, cost)
                if cost < tol:
                    xf, yf = _unpack(theta, r, n)
                    return _np_point(xf, yf, r, n, avec_frac)
                if not stepped:
                    stall += 1
                else:
                    stall = 0
                if stall >= 3:
                    break  # restart from a fresh seed
    raise NonConvergenceError(
        f"no point below tol={tol} within {max_iter} iterations "
        f"and {restarts} restarts",
        best_residual=best,
    )


# ---------------------------------------------------------------------------
# polygon edge vectors

@dataclass(frozen=True)
class PolygonEdges:
    """Traceless Hermitian edge vectors of the underlying polygon."""

    v: tuple[tuple[tuple, ...], ...]
    closure_sq: object
    norms_sq: tuple


def polygon_edges(x: Sequence[Sequence], alpha: Sequence, tol: float = 1e-9) -> PolygonEdges:
    """Edge vectors v_i = x_i x_i^* - (alpha_i / r) Id of a polygon point.

    Requires x to lie on the polygon level set: x x^* must be (|alpha|/r) Id
    and each column must have squared length alpha_i.  Exact input is
    checked exactly, float input within tol.
    """
    xm = linalg.mat(x)
    r, n = linalg.shape(xm)
    avec = tuple(Fraction(a) for a in alpha)
    if len(avec) != n:
        raise ValueError("length vector size must match the edge count")
    exact = _is_exact_matrix(xm)
    total = sum(avec)
    if exact:
        center = total / r
        avals = list(avec)
    else:
        center = float(total) / r
        avals = [float(a) for a in avec]
    gram = linalg.mat_sub(
        linalg.mat_mul(xm, linalg.conj_t(xm)),
        linalg.mat_scale(linalg.identity(r), center),
    )
    defect = linalg.frob_sq(gram)
    cols_defect = []
    for i in range(n):
        col = tuple(xm[a][i] for a in range(r))
        cols_defect.append(sum(norm_sq(v) for v in col) - avals[i])
    edge_defect = sum(d * d for d in cols_defect)
    bad = (defect != 0 or edge_defect != 0) if exact else (
        float(defect) > tol or float(edge_defect) > tol
    )
    if bad:
        raise LevelSetError(
            "x is not on the polygon level set for this length vector"
        )
    edges = []
    norms = []
    for i in range(n):
        col = tuple(xm[a][i] for a in range(r))
        vi = tuple(
            tuple(
                col[a] * col[b].conjugate() - (avals[i] / r if a == b else 0)
                for b in range(r)
            )
            for a in range(r)
        )
        edges.append(vi)
        norms.append(linalg.frob_sq(vi))
    closure = linalg.frob_sq(
        [
            [sum(e[a][b] for e in edges) for b in range(r)]
            for a in range(r)
        ]
    )
    return PolygonEdges(
        v=tuple(edges), closure_sq=closure, norms_sq=tuple(norms)
    )


# ---------------------------------------------------------------------------
# minimal nilpotent orbit closure

def _is_exact_matrix(m) -> bool:
    return all(
        isinstance(v, (int, Fraction, GaussianRational)) for row in m for v in row
    )


def min_orbit_check(m: Sequence[Sequence], tol: float = 1e-8) -> bool:
    """Membership test for {M : M traceless, M^2 = 0, rank M <= 1}.

    Exact matrices are tested exactly; float matrices use tol relative to
    the largest singular value.
    """
    mm = linalg.mat(m)
    if _is_exact_matrix(mm):
        if linalg.mat_trace(mm):
            return False
        if linalg.frob_sq(linalg.mat_mul(mm, mm)) != 0:
            return False
        return linalg.exact_rank(mm) <= 1
    arr = np.array([[complex(v) for v in row] for row in mm])
    svals = np.linalg.svd(arr, compute_uv=False)
    scale = float(svals[0]) if svals.size else 0.0
    if scale == 0.0:
        return True
    if abs(np.trace(arr)) > tol * scale:
        return False
    if np.linalg.norm(arr @ arr) > tol * scale * scale:
        return False
    return svals.size < 2 or float(svals[1]) <= tol * scale


def min_orbit_factor(m: Sequence[Sequence]) -> tuple[tuple, tuple]:
    """Factor a minimal-orbit matrix as an outer product M = x y with y x = 0.

    The factorization is unique up to a scalar.  Raises ZeroMatrixError on
    the zero matrix and NotMinimalOrbitError when the membership test fails.
    """
    mm = linalg.mat(m)
    r = len(mm)
    if _is_exact_matrix(mm):
        if linalg.frob_sq(mm) == 0:
            raise ZeroMatrixError("the zero matrix has no rank-one factor")
        if not min_orbit_check(mm):
            raise NotMinimalOrbitError("matrix is not in the minimal orbit closure")
        col = None
        for j in range(r):
            c = tuple(mm[a][j] for a in range(r))
            if any(c):
                col = c
                break
        a0 = next(i for i, v in enumerate(col) if v)
        x = col
        y = tuple(v / col[a0] for v in mm[a0])
        return x, y
    arr = np.array([[complex(v) for v in row] for row in mm])
    svals = np.linalg.svd(arr, compute_uv=False)
    if not svals.size or float(svals[0]) == 0.0:
        raise ZeroMatrixError("the zero matrix has no rank-one factor")
    if not min_orbit_check(mm):
        raise NotMinimalOrbitError("matrix is not in the minimal orbit closure")
    u, s, vh = np.linalg.svd(arr)
    x = tuple(complex(v) for v in (u[:, 0] * s[0]))
    y = tuple(complex(v) for v in vh[0, :])
    return x, y
