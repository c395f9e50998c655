"""Points of the doubled star-quiver representation space.

A point is a pair (x, y) with x an r-by-n matrix (one column per edge) and
y an n-by-r matrix (one row per edge).  Exact points carry Fraction or
GaussianRational entries and satisfy the complex moment map equations
on the nose; float points come out of the damped least squares solver and
satisfy real and complex equations to a tolerance.  The solver's numpy
work, and that of the float orbit test, runs in `floating`, which
`solve_real` and `min_orbit_check` import only when they reach it.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .errors import DegenerateSampleError, TrivialFiberError
from .exact import (
    GaussianRational,
    numerators,
    parse_rational,
    ratios,
    scalar_from_json,
    scalar_to_json,
)
from .linalg import norm_sq


def _in_float_range(v) -> bool:
    try:
        return cmath.isfinite(complex(v))
    except OverflowError:
        return False


def _parse_list(value, what: str, parse) -> tuple:
    """``parse`` of each entry of a JSON list; a string or an object would
    be read as its characters or keys."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list")
    return tuple(map(parse, value))


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
        if len(self.marked_points) != self.n or len(set(self.marked_points)) != self.n:
            raise ValueError("need n distinct marked points")
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

        def matrix(key):
            return _parse_list(obj[key], key, lambda row: _parse_list(
                row, f"each row of {key}", lambda v: scalar_from_json(v, exact)))

        return cls(
            r=r,
            n=n,
            flavor=flavor,
            x=matrix("x"),
            y=matrix("y"),
            alpha=None if alpha is None else _parse_list(alpha, "alpha", parse_rational),
            marked_points=_parse_list(obj["marked_points"], "marked_points", parse_rational),
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


def _canonical_primitive(nums: Sequence[int]) -> tuple[Fraction, ...]:
    """Scale an integer vector to the primitive one whose first nonzero
    coordinate is positive."""
    g = math.gcd(*nums)
    if g == 0:
        raise ValueError("zero vector cannot be normalized")
    if next(v for v in nums if v) < 0:
        g = -g
    return tuple(Fraction(v // g) for v in nums)


def _fiber_kernel(x: tuple[tuple, ...], r: int, n: int, rng: random.Random) -> tuple[list, object]:
    """One seeded vector of the kernel of the linear system cutting out
    { y : x y = 0, y_i x_i = 0 }, unknowns the entries of y flattened row
    by row: numerators (v, d) with v / d = sum_f c_f K_f for the canonical
    basis K of that system and coefficients c_f in [-5, 5] drawn from rng,
    one per free column and redrawn while all are zero.  TrivialFiberError
    when no column is free.

    Let c0 be the first nonzero entry of the column x_i.  Column (i, c0) is
    always a pivot: only the edge equation y_i x_i = 0 gives it an entry
    outside x y = 0, where the earlier columns of edge i have zeros.  That
    equation is solved for y_(i,c0) by hand, which leaves the r^2 equations
    x y = 0 in z_(i,c) = y_(i,c) / X_(c0,i), c != c0, on the cleared
    numerators X of x: every entry integral, no division.  An edge with
    x_i = 0 keeps its r unknowns, with scale 1.  The substitution keeps the
    column order and the support of every kernel vector, so the other
    pivots are those of this reduced system and each canonical vector is a
    reduced one w_f, lifted edge by edge: y_p = X_(c0,p) w_f[p] / X_(c0,f)
    and y_(i,c0) = -sum_c X_(c,i) w_f[(i,c)] / X_(c0,f), over one common d.
    A Gaussian X_(c0,f) is divided as its conjugate over its norm.  The
    lift is linear, so the combination is the reduced vector with free
    values c_f m_f d_red, m_f the numerator of 1 / X_(c0,f) over the common
    denominator, whose pivot values one back-substitution through the
    forward echelon rows gives (`linalg.back_substitute`), lifted once.
    """
    nums, _ = numerators(v for row in x for v in row)
    xs = [nums[a * n:(a + 1) * n] for a in range(r)]
    lead = [next((a for a in range(r) if xs[a][i]), None) for i in range(n)]
    # reduced unknowns in column order: (edge, component, scale)
    cols = [
        (i, c, 1 if c0 is None else xs[c0][i])
        for i, c0 in enumerate(lead)
        for c in range(r)
        if c != c0
    ]
    # integral already, so `_eliminate` takes the rows as they are
    reduced = [[0] * len(cols) for _ in range(r * r)]
    for j, (i, c, s) in enumerate(cols):
        for a in range(r):
            if xs[a][i]:
                reduced[a * r + c][j] = xs[a][i] * s
                if xs[c][i]:
                    reduced[a * r + lead[i]][j] = -xs[a][i] * xs[c][i]
    rows, pivots, d_red = linalg._eliminate(reduced)
    # 1 / X_(c0,f) = inv / norm with norm a positive int
    inverses = {}
    for f in range(len(cols)):
        if f in pivots:
            continue
        s = cols[f][2]
        if isinstance(s, int):
            inverses[f] = (1 if s > 0 else -1), abs(s)
        else:
            inverses[f] = s.conjugate(), (s * s.conjugate()).re.numerator
    if not inverses:
        raise TrivialFiberError(
            f"trivial fiber: only y = 0 satisfies the equations at r={r}, n={n}"
        )
    coeffs = [0]
    while not any(coeffs):
        coeffs = [rng.randint(-5, 5) for _ in inverses]
    # a combination of independent vectors with a nonzero coefficient is
    # never zero: its free entry c_f m_f d_red is not, so no second redraw
    scale = math.lcm(*(norm for _, norm in inverses.values()))
    values = [0] * len(cols)
    for (f, (inv, norm)), c in zip(inverses.items(), coeffs):
        values[f] = c * inv * (scale // norm) * d_red
    values = linalg.back_substitute(rows, pivots, values)
    d = d_red * scale
    # typed zeros: a Gaussian d keeps every entry Gaussian
    flat = [0 * d] * (n * r)
    for (i, c, s), w in zip(cols, values):
        if w:
            flat[i * r + c] = s * w
            if xs[c][i]:
                flat[i * r + lead[i]] -= xs[c][i] * w
    return flat, d


def exact_point_from_x(
    x: Sequence[Sequence],
    seed: int = 0,
    alpha: Sequence | None = None,
    marked_points: Sequence | None = None,
) -> QuiverPoint:
    """Complete a given exact x to a point on the complex moment fiber.

    y is one combination of the kernel of the fiber equations with small
    seeded integer coefficients (`_fiber_kernel`, found by one forward
    elimination and one back-substitution as numerators v / d), then scaled
    to a primitive integer vector with positive leading coordinate, so the
    output is deterministic and unique up to the seed: a real combination
    is scaled straight to its primitive vector, a complex one is divided by
    d once per entry.
    """
    xm = linalg.mat(
        [[v if isinstance(v, (Fraction, GaussianRational)) else Fraction(v) for v in row] for row in x]
    )
    r, n = linalg.shape(xm)
    if n < 1 or r < 1:
        raise ValueError("x must be a nonempty matrix")
    flat, d = _fiber_kernel(xm, r, n, random.Random(seed))
    # on int numerators (a rational x) the combination and its quotient by
    # d have the same primitive vector
    if isinstance(d, int):
        flat = list(_canonical_primitive(flat))
    else:
        flat = ratios(flat, d)
        if not any(v.imag for v in flat):
            flat = list(_canonical_primitive(numerators(flat)[0]))
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

    Damped least squares (Levenberg-Marquardt, `floating.solve`) with
    seeded restarts.  One fill of the Jacobian J from
    `floating._jacobian_pattern` per candidate gives
    its residual J theta / 2 - ell, with ell the constants c Id and alpha,
    and, once the candidate is accepted, the next step's Jacobian.  The
    accepted-step rule makes the residual norm monotonically non-increasing
    within each restart; a candidate that overflows is rejected.  Raises
    ValueError if an entry of alpha or their sum does not fit a float or
    the seed is negative, and NonConvergenceError with the best residual if
    the iteration budget is exhausted before the residual norm drops below
    tol.
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
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    from . import floating

    return floating.solve(r, n, avec_frac, total, seed, tol, max_iter, restarts)


# ---------------------------------------------------------------------------
# minimal nilpotent orbit closure

def min_orbit_check(m: Sequence[Sequence], tol: float = 1e-8) -> bool:
    """Membership test for {M : M traceless, M^2 = 0, rank M <= 1}.

    Exact matrices are tested exactly; float matrices use tol relative to
    the largest singular value.
    """
    mm = linalg.mat(m)
    if all(isinstance(v, (int, Fraction, GaussianRational)) for row in mm for v in row):
        if linalg.mat_trace(mm):
            return False
        if linalg.frob_sq(linalg.mat_mul(mm, mm)) != 0:
            return False
        return linalg.exact_rank(mm) <= 1
    from . import floating

    return floating.min_orbit(mm, tol)
