"""Output checks that do not reuse the library's own algorithms.

Every check returns a list of problems; an empty list means the output
passed.  Exact checks use plain Fractions and the benchmark's own
elimination, float checks recompute the defining equations in numpy, and
the Betti checks use properties every Poincare polynomial of a
hyperpolygon space must have.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

# float tolerances; observed values on the float grid are far below these
# (moment residuals ~1e-10, brackets ~1e-17, kernel ~1e-31, base map ~1e-9)
MOMENT_TOL = 1e-8
BRACKET_REL_TOL = 1e-8
KERNEL_SQ_TOL = 1e-18
BASE_MAP_REL_TOL = 1e-7


# ---------------------------------------------------------------------------
# Betti numbers

def kirwan_bound(r: int, n: int, degree: int) -> list[int]:
    """Coefficients of 1/((1-u)^(n-1) prod_{i=1..r} (1-u^i)) up to u^degree.

    Surjectivity of the hyperkaehler Kirwan map bounds b_2k by the k-th
    coefficient: the cohomology is a quotient of the equivariant ring,
    generated by the n-1 edge classes and the Chern classes of the rank-r
    bundle.
    """
    series = [1] + [0] * degree
    factors = [1] * (n - 1) + list(range(1, r + 1))
    for step in factors:  # multiply by 1/(1-u^step): a strided prefix sum
        for k in range(step, degree + 1):
            series[k] += series[k - step]
    return series


def rank2_closed_form(n: int) -> list[int]:
    """Betti numbers of the rank-2 space: b_2k = sum_{j<=k} C(n-1, j)."""
    return [sum(comb(n - 1, j) for j in range(k + 1)) for k in range(n - 2)]


def check_betti(r: int, n: int, coeffs: list[int]) -> list[str]:
    """b_0 = 1, positivity, exact length and the Kirwan bound."""
    where = f"betti({r},{n})"
    length = (r - 1) * (n - r - 1) + 1
    if len(coeffs) != length:
        return [f"{where}: {len(coeffs)} coefficients, expected {length}"]
    problems = []
    if coeffs[0] != 1:
        problems.append(f"{where}: b_0 = {coeffs[0]}")
    if any(c <= 0 for c in coeffs):
        problems.append(f"{where}: a coefficient is not positive")
    bound = kirwan_bound(r, n, length - 1)
    over = [k for k, (b, c) in enumerate(zip(bound, coeffs)) if c > b]
    if over:
        problems.append(f"{where}: b_2k above the Kirwan bound at k = {over}")
    return problems


def check_duality(r: int, n: int, coeffs: list[int], dual: list[int]) -> list[str]:
    """Reflection duality P(r, n) = P(n - r, n)."""
    if coeffs != dual:
        return [f"betti({r},{n}) differs from its dual rank {n - r}"]
    return []


# ---------------------------------------------------------------------------
# exact points

def _horner(coeffs, z):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _trace_power(m, k):
    p = m
    for _ in range(k - 1):
        p = _mat_mul(p, m)
    return sum(p[i][i] for i in range(len(m)))


def det(m) -> Fraction:
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    a = [list(row) for row in m]
    size = len(a)
    out = Fraction(1)
    for k in range(size):
        piv = next((i for i in range(k, size) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, size):
            f = a[i][k] / a[k][k]
            for j in range(k, size):
                a[i][j] -= f * a[k][j]
    return out


def phi_at(x, y, marked, z):
    """phi(z) = sum_i x_i y_i / (z - p_i) from the raw point data."""
    r = len(x)
    out = [[Fraction(0)] * r for _ in range(r)]
    for i, p in enumerate(marked):
        w = 1 / (z - p)
        for a in range(r):
            for b in range(r):
                out[a][b] += x[a][i] * y[i][b] * w
    return out


def check_exact(out: dict) -> list[str]:
    """Check every stage of one exact point pipeline run.

    ``out`` holds the sampled point ``orig``, its JSON round trip ``pt``,
    the library outputs ``field``, ``base`` (or ``overflow_power``),
    ``comm``, ``delta``, ``tw``, ``cp``, ``orders``, ``tc``, and the
    evaluation points ``z0`` and ``lam0``, rationals off the poles.
    """
    pt, r, n = out["pt"], out["r"], out["n"]
    x, y, marked = pt.x, pt.y, pt.marked_points
    z0, lam0 = out["z0"], out["lam0"]
    where = f"exact({r},{n})"
    problems = []
    if pt != out["orig"]:
        problems.append(f"{where}: JSON round trip changed the point")
    xy = _mat_mul(x, y)
    if any(v for row in xy for v in row):
        problems.append(f"{where}: x y != 0")
    if any(sum(y[i][a] * x[a][i] for a in range(r)) for i in range(n)):
        problems.append(f"{where}: some y_i x_i != 0")
    for i, res in enumerate(out["field"].residues):
        if any(res[a][b] != x[a][i] * y[i][b] for a in range(r) for b in range(r)):
            problems.append(f"{where}: residue {i + 1} is not x_i y_i")
            break

    phi = phi_at(x, y, marked, z0)
    pz = Fraction(1)
    for p in marked:
        pz *= z0 - p
    base = out["base"]
    if r <= 3 and base is None:
        problems.append(f"{where}: hitchin_map overflowed at power {out['overflow_power']}")
    elif r <= 3:
        for k in range(2, r + 1):
            if len(base.g[k]) != max(n - 2 * k + 1, 0):
                problems.append(f"{where}: g_{k} has {len(base.g[k])} coefficients")
            elif _horner(base.g[k], z0) != _trace_power(phi, k) * pz:
                problems.append(f"{where}: g_{k}(z0) != Tr(phi(z0)^{k}) prod(z0 - p)")
    elif out["overflow_power"] != 4:
        problems.append(f"{where}: hitchin_map did not overflow at power 4")

    comm = out["comm"]
    if not comm.all_zero or comm.max_abs != 0:
        problems.append(f"{where}: brackets do not all vanish")
    if out["delta"] != 0:
        problems.append(f"{where}: bracket kernel deviation {out['delta']}")

    psi = out["tw"].psi.rows
    if any(
        _horner(psi[a][b].coeffs, z0) != phi[a][b] * pz
        for a in range(r)
        for b in range(r)
    ):
        problems.append(f"{where}: twist(z0) != phi(z0) prod(z0 - p)")
    c = out["cp"].c
    if c[1]:
        problems.append(f"{where}: c_1 != 0")
    lhs = det(
        [
            [(lam0 if a == b else 0) - phi[a][b] * pz for b in range(r)]
            for a in range(r)
        ]
    )
    rhs = lam0 ** r + sum(
        _horner(c[i].coeffs, z0) * lam0 ** (r - i) for i in range(1, r + 1)
    )
    if lhs != rhs:
        problems.append(f"{where}: det(lam0 - psi(z0)) != charpoly(z0, lam0)")
    if any(_horner(c[i].coeffs, p) for i in range(2, r + 1) for p in marked):
        problems.append(f"{where}: some c_i does not vanish at a marked point")
    if not out["orders"].all_pass:
        problems.append(f"{where}: order_check failed")
    tc = out["tc"]
    if r <= 3 and not tc.ok:
        problems.append(f"{where}: trace_consistency failed at {tc.failing}")
    if r >= 4 and (tc.ok or min(tc.failing, default=0) != 4):
        problems.append(f"{where}: trace_consistency should fail from power 4")
    return problems


# ---------------------------------------------------------------------------
# float points

def moment_defect(x: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    """Largest violation of the real and complex moment equations."""
    r = x.shape[0]
    real = x @ x.conj().T - y.conj().T @ y - alpha.sum() / r * np.eye(r)
    lengths = (np.abs(x) ** 2).sum(axis=0) - (np.abs(y) ** 2).sum(axis=1) - alpha
    cplx = x @ y
    scalars = np.einsum("ia,ai->i", y, x)
    return float(
        max(np.abs(real).max(), np.abs(lengths).max(), np.abs(cplx).max(),
            np.abs(scalars).max())
    )


def float_base_error(x, y, marked, g: dict, z: float) -> float:
    """Largest error of the fitted g_k against direct evaluation at z.

    The error is relative to sum_j |c_j| |z|^j, the size of the terms
    summed, so a root of g_k near z does not inflate it.
    """
    phi = sum(np.outer(x[:, i], y[i]) / (z - p) for i, p in enumerate(marked))
    pz = np.prod([z - p for p in marked])
    worst = 0.0
    for k, coeffs in g.items():
        if not coeffs:
            continue
        direct = np.trace(np.linalg.matrix_power(phi, k)) * pz
        fitted = sum(c * z ** j for j, c in enumerate(coeffs))
        scale = sum(abs(c) * abs(z) ** j for j, c in enumerate(coeffs))
        worst = max(worst, abs(fitted - direct) / max(scale, 1e-300))
    return float(worst)


def check_float(out: dict) -> tuple[list[str], float]:
    """Check one float pipeline run; returns problems and the base map error."""
    pt, r, n = out["pt"], out["r"], out["n"]
    where = f"float({r},{n})"
    x = np.array(pt.x, dtype=complex)
    y = np.array(pt.y, dtype=complex)
    alpha = np.array([float(a) for a in pt.alpha])
    marked = [float(p) for p in pt.marked_points]
    problems = []
    defect = moment_defect(x, y, alpha)
    if defect > MOMENT_TOL:
        problems.append(f"{where}: moment equations violated by {defect:.3e}")
    jac = out["jac"]
    dim_b = (r - 1) * (n - r - 1)
    if jac.dim_b != dim_b or jac.rank != dim_b:
        problems.append(f"{where}: Jacobian rank {jac.rank}/{jac.dim_b}, expected {dim_b}")
    if out["comm"].max_rel > BRACKET_REL_TOL:
        problems.append(f"{where}: bracket max_rel {out['comm'].max_rel:.3e}")
    if out["delta"] > KERNEL_SQ_TOL:
        problems.append(f"{where}: bracket kernel deviation {out['delta']:.3e}")
    err = 0.0
    if out.get("base") is not None:
        err = float_base_error(x, y, marked, out["base"].g, out["z"])
        if err > BASE_MAP_REL_TOL:
            problems.append(f"{where}: fitted g_k off by {err:.3e} at z = {out['z']}")
    return problems, err
