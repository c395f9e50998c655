"""The float side of the library: the only module that imports numpy.

The paper's results are exact; floats enter where the real moment map
mu_R = alpha is solved and where float points are checked.  This module
holds that work:

- the moment-map Jacobian (`_jacobian_pattern`, `_jacobian`), the
  packing of (x, y) into real parameters (`_pack`, `_unpack`, `_np_point`)
  and the Levenberg-Marquardt loop of `quiver.solve_real` (`solve`);
- the SVD test of `quiver.min_orbit_check` on a float matrix
  (`min_orbit`);
- the Vandermonde fit of the float `hitchin.hitchin_map` (`fit_base`);
- the circle/DFT rows and the SVD of `hitchin.jacobian_rank`
  (`circle_rank`).

`quiver` and `hitchin` check their arguments and import this module
inside their float branches, so the exact commands never load numpy.
Later float work (the flow of an exact point onto the real fiber, the DFT
fit of the base map, one LM core shared by the flow and the solver)
belongs here too.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import NonConvergenceError
from .quiver import QuiverPoint


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


def solve(
    r: int, n: int, avec_frac: tuple, total, seed: int, tol: float, max_iter: int, restarts: int
) -> QuiverPoint:
    """The Levenberg-Marquardt loop of `quiver.solve_real`, on the
    arguments it checked: alpha as Fractions and their sum ``total``."""
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
# minimal nilpotent orbit closure

def min_orbit(mm: tuple, tol: float) -> bool:
    """`quiver.min_orbit_check` on a float matrix, tol relative to its
    largest singular value."""
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


# ---------------------------------------------------------------------------
# base map and Jacobian rank of a float field

def fit_base(r: int, n: int, marked_points: tuple, zs: list, phi: Callable) -> dict:
    """The float g_k, k = 2..r, of `hitchin.hitchin_map`: the first
    n - 2k + 1 values Tr(phi(z)^k) prod(z - p) at the evaluation points zs
    solved against a monomial Vandermonde matrix.  phi(z) gives the field
    at z as rows; phi(z_j) and prod(z_j - p) are built once and shared by
    every k."""
    pts = [float(p) for p in marked_points]
    evaluated: dict = {}

    def cleared(j, k):
        if j not in evaluated:
            z = zs[j]
            a = np.array([[complex(v) for v in row] for row in phi(z)])
            evaluated[j] = a, math.prod(z - p for p in pts)
        a, prod = evaluated[j]
        return complex(np.trace(np.linalg.matrix_power(a, k))) * prod

    g = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(2, r + 1):
            count = max(n - 2 * k + 1, 0)
            coeffs = ()
            if count:
                vander = np.vander(np.array(zs[:count]), count, increasing=True)
                coeffs = np.linalg.solve(
                    vander, np.array([cleared(j, k) for j in range(count)])
                )
                if not np.isfinite(coeffs).all():
                    raise ValueError(f"base map g_{k} outside the float range")
            g[k] = tuple(complex(c) for c in coeffs)
    return g


def circle_rank(
    r: int, n: int, marked_points: tuple, grad: Callable, threshold: float
) -> tuple[int, tuple]:
    """(rank, singular values) of the base-coordinate differential that
    `hitchin.jacobian_rank` describes; grad(z, m) is the flat gradient of
    Tr(phi(z)^m) at a complex z."""
    poles = np.array([float(p) for p in marked_points])
    blocks = []
    # a row off the float range raises below, with no numpy warning here
    with np.errstate(over="ignore", invalid="ignore"):
        centre = poles.mean()
        radius = 1.2 * np.abs(poles - centre).max() + 1
        for m in range(2, r + 1):
            count = n - 2 * m + 1
            if count <= 0:
                continue
            k = np.arange(count)
            zs = centre + radius * np.exp(2j * np.pi * k / count)
            block = np.array([grad(complex(z), m) for z in zs])
            block *= np.prod(zs[:, None] - poles, axis=1)[:, None]
            blocks.append(np.exp(-2j * np.pi * np.outer(k, k) / count) @ block)
    if not blocks:
        return 0, ()
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
    return rank, tuple(float(s) for s in svals)
