"""Higgs fields attached to quiver points and their integrable-system data.

A quiver point (x, y) with x y = 0 and y_i x_i = 0 determines a meromorphic
matrix-valued function phi(z) = sum_i x_i y_i / (z - p_i) with simple poles
at the marked points, residues that are traceless, square-zero and of rank
at most one, and decay like z^{-2} at infinity.  This module builds phi,
maps it to base coordinates (coefficient vectors of the cleared trace
powers), and checks the Poisson geometry: the bracket kernel identity, the
pairwise commutation of base components, and the rank of their Jacobian.

Each point is cleared and checked once, not once per call, and its record
holds its Higgs field, the one record of phi that every call reads.  Both
flavors take one route (`_clear`): an exact point is cleared to numerators
x = X / dx and y = Y / dy, a float point is its own numerators over 1, and
the residue table U_ab,i = X_ai Y_ib is formed once.  The moment check
reads it, exactly on an exact point and within a tolerance relative to the
entry scale on a float point, and the field keeps it.  The residues divide
it, every phi(z) is one sum over it per entry (`_phi_at`, read by
`higgs_eval`, the float base map and the bracket checks), and psi's
numerators are sum_i U_ab,i cof_i over one denominator.  A field built
directly from residues clears them once into the same table.  The poles
enter exact work as integer pairs p_j = u_j / v_j: every weight
1 / (z - p_j) at a rational z (`_weights`), and prod_j (z - p_j) with its
cofactors, are formed from them with no Fraction arithmetic.  Exact base
coordinates take one route, psi -> c_i -> Tr(psi^k) -> g_k, on integers,
built once per field and read by `hitchin_map` and the spectral layer.
Rank-one residues that sum to zero factor each charpoly coefficient as
c_s = prod_j (z - p_j)^(s-1) h_s with deg h_s <= n - 2s, so
`_factored_charpoly` takes the scalar Berkowitz coefficients of psi's
numerators at max(n - 2, 2) integer nodes off the poles, divides each
exactly by the node's P(t)^(s-1), interpolates H_s through every node and
checks its degree bound on the nodes to spare; the Fraction psi is built
only for its readers, with that pass kept on it.  The exact bracket
checks run on numerators too: phi(z0) once per evaluation point for every
power, gradients are integer numerators over one denominator per half,
each split once into the two operands of a C-level pairing sum, and only
a reported value is divided.  Every exact value returned is one
`exact.ratio` of numerators, so it is a GaussianRational exactly where
its imaginary part is nonzero and a Fraction (or an int zero of a padded
g_k) otherwise.  A point off the fiber keeps nothing and raises at every
call, and a non-finite evaluation point raises on both flavors.  Float
points run on Python floats and complexes: the marked points are
converted once per field, and a Fraction weight or kernel scalar
1 / (w - z) once, not at every product, with the bits the Fraction
fallback gave; sums run left to right, the order of a fold of matrix
sums.  The float base-map fit and the Jacobian's DFT rows and SVD run in
`floating`, the one module that imports numpy, which `hitchin_map` and
`jacobian_rank` import only in their float branches.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, count, product
from operator import add, mul, neg, sub
from typing import NamedTuple, Sequence

from . import linalg
from .errors import DegreeOverflowError, MomentMapError, PoleEvaluationError
from .exact import (
    DensePoly,
    GaussianRational,
    PolyMatrix,
    berkowitz,
    linear_product,
    numerators,
    poly_add,
    poly_divmod,
    poly_mul,
    ratio,
    ratios,
    scalar_to_json,
    shifted_reciprocals,
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

    The residue table, psi and the cleared traces are cached outside the
    dataclass fields; `_clear` seeds a point's table from its products.
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
    def _table(self) -> tuple:
        """(U, d): U[a][b] holds entry (a, b) of phi_1, ..., phi_n over d.

        An exact field is cleared once by `numerators`, so U is in ints
        unless some residue has a nonzero imaginary part; a float field
        keeps its floats over 1.  Every phi(z) and psi sum over it.  psi's
        charpoly route needs residues of rank at most one, which a point's
        outer products are by construction: an exact field built from its
        residues raises ValueError here, naming the first residue with a
        nonzero 2 x 2 minor.  Its other precondition, sum_i phi_i = 0, is
        checked by `_psi_numerators`.
        """
        if self.flavor != "exact":
            return _columns(self.residues), 1
        r = self.r
        nums, d = numerators(v for m in self.residues for row in m for v in row)
        rows = [nums[k:k + r] for k in range(0, len(nums), r)]
        mats = [rows[i * r:(i + 1) * r] for i in range(self.n)]
        pairs = list(combinations(range(r), 2))
        for i, m in enumerate(mats):
            if any(m[a][b] * m[c][e] != m[a][e] * m[c][b] for a, c in pairs for b, e in pairs):
                raise ValueError(f"residue phi_{i + 1} has rank above one")
        return _columns(mats), d

    @cached_property
    def _poles(self) -> tuple:
        """The marked points as `_weights` reads them: on an exact field the
        pairs (u_j, v_j) with p_j = u_j / v_j in lowest terms, v_j > 0; on
        a float field the floats."""
        if self.flavor == "exact":
            return tuple(p.as_integer_ratio() for p in self.marked_points)
        return tuple(float(p) for p in self.marked_points)

    @cached_property
    def _divisor(self) -> tuple[list, int, list]:
        """prod_j (z - p_j) = P / V on numerators, with its cofactors.

        With p_j = u_j / v_j in lowest terms, P = prod_j (v_j z - u_j) is a
        primitive integer polynomial and V = prod_j v_j.  Cofactor i is
        v_i P / (v_i z - u_i), that is V prod_(j != i) (z - p_j): the
        `linear_product` of the field's `_poles`.
        """
        return linear_product(self._poles)

    @cached_property
    def _divisor_powers(self) -> tuple:
        """P^0, P^1, ..., P^(r-1) for the P of `_divisor`: the charpoly
        route multiplies by them and the cleared traces divide by them."""
        powers = [[1]]
        for _ in range(1, self.r):
            powers.append(poly_mul(powers[-1], self._divisor[0]))
        return tuple(powers)

    @cached_property
    def _psi_numerators(self) -> tuple[list, object]:
        """psi(z) = phi(z) * prod_j (z - p_j) on numerators: (N, D).

        Entry (a, b) of psi is sum_i (phi_i)_ab prod_(j != i) (z - p_j),
        that is N_ab / D with N_ab = sum_i U_ab,i cof_i and D = d V, for
        the table U / d and the cofactors of `_divisor`: each coefficient
        is one sum over the edges, in the table's ring.  Entry degrees must
        not exceed n - 2: the z^(n-1) coefficient of each entry is the
        corresponding entry of sum_i phi_i, which must vanish for psi and
        for the degree bounds of `_factored_charpoly`.  Exact fields only.
        """
        if self.flavor != "exact":
            raise ValueError("polynomial twisting requires exact residues")
        n = self.n
        table, d = self._table
        _, v, cofactors = self._divisor
        # coefficient k of every cofactor, edge by edge
        powers = list(zip(*cofactors))
        rows = []
        for row in table:
            out = []
            for u in row:
                acc = [sum(map(mul, u, c)) for c in powers]
                while acc and not acc[-1]:
                    acc.pop()
                if len(acc) - 1 > n - 2:
                    raise DegreeOverflowError(
                        "degree overflow: residues do not sum to zero"
                    )
                out.append(acc)
            rows.append(out)
        return rows, d * v

    @cached_property
    def _charpoly(self) -> tuple[tuple, object]:
        """(C_1, ..., C_r) and D with c_i = C_i / D^i: one
        `_factored_charpoly` pass on psi's numerators."""
        rows, den = self._psi_numerators
        return _factored_charpoly(rows, self._poles, self._divisor_powers), den

    @cached_property
    def psi(self) -> PolyMatrix:
        """psi(z) as a polynomial matrix, for its readers (`spectral.twist`),
        with `_charpoly` kept on it as its charpoly numerators.  Each
        coefficient is one `ratio` of its numerator.  Exact fields only.
        """
        rows, den = self._psi_numerators
        m = PolyMatrix(
            [[DensePoly(ratios(acc, den), "z") for acc in row] for row in rows],
            "z",
        )
        m._numerators = self._charpoly
        return m

    @cached_property
    def cleared_traces(self) -> tuple:
        """(k, g_k, None) or (k, None, overflow message) for k = 2..r.

        Newton's identities turn the charpoly coefficients c_i of psi into
        t_k = Tr(psi^k) = -k c_k - sum_(i<k) c_i t_(k-i), and
        g_k = t_k / prod(z - p_j)^(k-1) must be a polynomial of degree at
        most n - 2k.  Both steps run on numerators: with c_i = C_i / D^i
        (`_charpoly`, on psi's numerators) the same recurrence gives
        T_k = D^k t_k, and with prod(z - p_j) = P / V for a primitive
        integer P, g_k = T_k V^(k-1) / (D^k P^(k-1)).  P^(k-1) divides T_k
        over the rationals exactly when the numerator long division leaves
        no remainder, and each coefficient of g_k is divided once.
        """
        n = self.n
        cs, d = self._charpoly
        v = self._divisor[1]
        traces, out = [], []
        for k, ck in enumerate(cs, start=1):
            tk = [-k * c for c in ck]
            for i in range(1, k):
                tk = poly_add(tk, [-c for c in poly_mul(cs[i - 1], traces[k - i - 1])])
            traces.append(tk)
            if k == 1:
                continue
            quot, rem = poly_divmod(tk, self._divisor_powers[k - 1])
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


def _nodes(pairs: Sequence, size: int) -> range:
    """``size`` consecutive integers, none of them a pole u_j / v_j: the
    window centred on 0, or the nearest free one, left first."""
    poles = {u for u, v in pairs if v == 1}
    start = -(size // 2)
    for shift in count():
        for t0 in (start - shift, start + shift):
            if poles.isdisjoint(range(t0, t0 + size)):
                return range(t0, t0 + size)


def _exact_quotient(a, b):
    """a / b in the numerator ring; ArithmeticError unless b divides a."""
    q = a // b
    if q * b != a:
        raise ArithmeticError(f"{b} does not divide {a}")
    return q


def _interpolate(values: Sequence, t0: int, bound: int) -> list:
    """The coefficient list of the polynomial of degree at most ``bound``
    over the numerator ring that takes values[k] at t0 + k.

    Forward differences give f(t0 + x) = sum_j Delta^j f(t0) C(x, j);
    each Delta^j past ``bound`` must vanish, and each one up to it is
    divided by j! exactly, as for a polynomial with coefficients in the
    ring.  Horner's rule in the basis (z - t0)...(z - t0 - j + 1) then
    gives the coefficients, with no trailing zero.  ArithmeticError when
    no such polynomial exists.
    """
    diffs = list(values)
    for j in range(1, len(diffs)):
        diffs[j:] = map(sub, diffs[j:], diffs[j - 1:-1])
    top = len(diffs)
    while top and not diffs[top - 1]:
        top -= 1
    if top and top - 1 > bound:
        raise ArithmeticError(f"interpolant of degree {top - 1} > {bound}")
    out: list = []
    for j in range(top - 1, -1, -1):
        # out * (z - t0 - j) + Delta^j f(t0) / j!
        c, a = t0 + j, _exact_quotient(diffs[j], math.factorial(j))
        head = a - c * out[0] if out else a
        out = [head, *(lo - c * hi for lo, hi in zip(out, out[1:])), *out[-1:]]
    return out


def _factored_charpoly(rows: Sequence, pairs: Sequence, powers: Sequence) -> tuple:
    """(C_1, ..., C_r), the `berkowitz` coefficients of psi's numerator
    rows, from the factorization C_s = P^(s-1) H_s.

    The residues x_i y_i have rank one, so Sylvester's identity (the r x r
    <-> n x n duality of Adams, Harnad and Hurtubise, Lett. Math. Phys. 20,
    1990) gives c_s(psi) = prod_j (z - p_j)^(s-1) h_s; they sum to zero, so
    phi = O(z^-2) at infinity and deg h_s <= n - 2s.  The caller checks both
    (`HiggsField._table`, `_psi_numerators`).  On numerators, with P = prod_j
    (v_j z - u_j) primitive, H_s = C_s / P^(s-1) has coefficients in the
    ring (Gauss's lemma).  C_1 is minus the trace of the rows.  For s >= 2 the
    rows are evaluated at max(n - 2, 2) consecutive integer nodes off every
    pole (`_nodes`), the scalar `berkowitz` coefficients C_s(t) are taken at
    every node in one pass (`_Values`), each is divided exactly by
    P(t)^(s-1), and H_s is interpolated through all the nodes
    (`_interpolate`): deg H_s <= n - 2s leaves at least one node beyond the
    n - 2s + 1 that the interpolation needs as a check.  An inexact division
    or a degree past the bound raises ArithmeticError.
    ``powers`` holds P^0, ..., P^(r-1).
    """
    n = len(pairs)
    trace: list = []
    for a, row in enumerate(rows):
        trace = poly_add(trace, row[a])
    cs = [[-c for c in trace]]
    if len(rows) < 2:
        return tuple(cs)
    nodes = _nodes(pairs, max(n - 2, 2))
    tps = [[t ** k for k in range(n + 1)] for t in nodes]
    at = [[_Values(sum(map(mul, e, tp)) for tp in tps) for e in row] for row in rows]
    divisor = [sum(map(mul, powers[1], tp)) for tp in tps]
    scales = divisor
    for s, values in enumerate(berkowitz(at)[1:], start=2):
        quotients = list(map(_exact_quotient, values, scales))
        cs.append(poly_mul(powers[s - 1], _interpolate(quotients, nodes.start, n - 2 * s)))
        scales = list(map(mul, scales, divisor))
    return tuple(cs)


class _Values(tuple):
    """One ring element per node, added and multiplied node by node: the
    scalar `berkowitz` runs at every node in one pass.  The int 0 that
    starts a sum is the zero."""

    __slots__ = ()

    def __add__(self, other):
        if type(other) is int and not other:
            return self
        return _Values(map(add, self, other))

    __radd__ = __add__

    def __mul__(self, other):
        return _Values(map(mul, self, other))

    def __neg__(self):
        return _Values(map(neg, self))


def _columns(mats) -> tuple:
    """The table U[a][b] = (M_1[a][b], ..., M_n[a][b]) of n r x r matrices;
    `_matrices` undoes it."""
    return tuple(tuple(zip(*(m[a] for m in mats))) for a in range(len(mats[0])))


def _matrices(table) -> tuple:
    return tuple(zip(*(zip(*row) for row in table)))


def residues(point: QuiverPoint) -> HiggsField:
    """Residue matrices phi_i = x_i y_i of a quiver point.

    Validates the complex moment map first (`_checked_xy`), on the
    residue table of either flavor: exactly on an exact point, within
    _MOMENT_TOL relative to the entry scale on a float point.
    Tracelessness, square-zero and rank <= 1 of each phi_i then hold
    automatically for the outer products.  The field is the one
    the check built and the point keeps, so every call returns the same
    object, and its table, psi and charpoly pass are built once per
    point.
    """
    return _checked_xy(point).field


def higgs_eval(field: HiggsField, z):
    """The matrix sum_i phi_i / (z - p_i), with z taken at its exact value
    on an exact field (`_exact_z`).

    Each entry is one sum over the field's table (`_phi_at`).  A float
    field adds the floats U_ab,i / (z - p_i) from the left, as a fold of
    matrix sums would.  An exact field sums numerators and takes one
    `ratio` per entry.
    """
    at = _phi_at(field, z)
    if field.flavor != "exact":
        return at.phi
    d = field._table[1] * at.dw
    return tuple(ratios(row, d) for row in at.phi)


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
    A coefficient off the float range, as a huge entry that passes the
    scale-relative moment check can give, raises ValueError.
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

    from . import floating

    # the points of every k are a prefix of those of k = 2
    zs = [float(z) for z in _eval_points(field.marked_points, max(n - 3, 1))]
    g = floating.fit_base(r, n, field.marked_points, zs, lambda z: higgs_eval(field, z))
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

    A non-finite float or complex z raises ValueError on both flavors.
    On the exact flavor an int or a float becomes the Fraction of equal
    value, and a complex or GaussianRational z a GaussianRational where
    its imaginary part is nonzero and its real part otherwise.  The float
    flavor takes a finite z as given.
    """
    if isinstance(z, (float, complex)) and not cmath.isfinite(z):
        raise ValueError(f"non-finite evaluation point {z!r}")
    if flavor != "exact":
        return z
    if isinstance(z, (complex, GaussianRational)) and not z.imag:
        z = z.real
    if isinstance(z, complex):
        return GaussianRational(Fraction(z.real), Fraction(z.imag))
    if isinstance(z, (int, float)):
        return Fraction(z)
    return z


class _Cleared(NamedTuple):
    """A point as the bracket kernels read it, prepared once per point.

    x = xs / dx and y = ys / dy, with xs r x n and ys n x r, and the
    point's Higgs ``field``, whose table every phi(z), the residues and
    psi read: the products xs[a][i] ys[i][b] over dx dy.  A float point
    is its own numerators over 1.
    """

    xs: list
    dx: object
    ys: list
    dy: object
    field: HiggsField


def _clear(point: QuiverPoint) -> _Cleared:
    """The point's `_Cleared` form, once it lies on the complex moment fiber.

    An exact point is cleared with `numerators`; a float point is its own
    numerators over 1.  Both are checked on their products
    U_ab,i = X_ai Y_ib: MomentMapError unless the scalar
    y_i x_i = sum_a U_aa,i vanishes, edge by edge, and then the residue
    sum sum_i x_i y_i, entry (a, b) of which is sum_i U_ab,i.  On an exact
    point both vanish exactly.  On a float point they vanish within
    _MOMENT_TOL relative to the entry scale:
    |y_i x_i| <= tol max(1, |x_i| |y_i|) for each edge, and
    ||sum_i x_i y_i||_F <= tol max(1, max_i ||x_i y_i||_F), with
    |x_i| |y_i| = ||x_i y_i||_F read off the table.  The products become
    the field's table over dx dy, in ints unless some product has a
    nonzero imaginary part (`numerators`' rule), and their quotients its
    residues: on a float point the floats `point.residue` gives.
    """
    r, n = point.r, point.n
    exact = point.flavor == "exact"
    if exact:
        xs, dx = numerators(v for row in point.x for v in row)
        ys, dy = numerators(v for row in point.y for v in row)
        xs = [xs[a * n:(a + 1) * n] for a in range(r)]
        ys = [ys[i * r:(i + 1) * r] for i in range(n)]
    else:
        xs, dx, ys, dy = point.x, 1, point.y, 1
    cols = list(zip(*ys))
    products = tuple(tuple(tuple(map(mul, row, col)) for col in cols) for row in xs)
    if exact and isinstance(products[0][0][0], GaussianRational) and not any(
        v.imag for row in products for u in row for v in u
    ):
        products = tuple(
            tuple(tuple(v.real.numerator for v in u) for u in row) for row in products
        )
    entries = [u for row in products for u in row]
    if exact:
        # an exact defect must vanish: no tolerance
        tol_sq, sizes = 0, [0] * n
    else:
        # squared defects against tol^2 max(1, ||x_i y_i||_F^2)
        tol_sq = _MOMENT_TOL * _MOMENT_TOL
        sizes = [float(sum(map(norm_sq, edge))) for edge in zip(*entries)]
    traces = map(sum, zip(*(products[a][a] for a in range(r))))
    for i, (s, size) in enumerate(zip(traces, sizes)):
        if norm_sq(s) > tol_sq * max(1.0, size):
            raise MomentMapError(
                f"complex moment map violated: y_i x_i != 0 at edge {i + 1}",
                edge=i + 1,
            )
    if sum(norm_sq(sum(u)) for u in entries) > tol_sq * max(1.0, *sizes):
        raise MomentMapError(
            "complex moment map violated: residues do not sum to zero"
        )
    d = dx * dy
    mats = _matrices([[ratios(u, d) for u in row] for row in products] if exact else products)
    field = HiggsField(mats, point.marked_points, point.flavor)
    object.__setattr__(field, "_table", (products, d))
    return _Cleared(xs, dx, ys, dy, field)


def _checked_xy(point: QuiverPoint) -> _Cleared:
    """`_clear` once per point: the record is kept on the immutable point
    and read by every later call.  A point off the fiber keeps nothing, so
    each call checks it again and raises the same MomentMapError."""
    xy = getattr(point, "_cleared", None)
    if xy is None:
        xy = _clear(point)
        object.__setattr__(point, "_cleared", xy)
    return xy


def _weights(field: HiggsField, z, scale=1) -> tuple[list, object]:
    """(W, d) with scale / (z - p_i) = W_i / d, d = 1 on a float field;
    PoleEvaluationError at a pole.

    An exact field at a rational z takes `shifted_reciprocals` on its
    `_poles`, on ints alone.  A GaussianRational z keeps the Fraction
    route: its weights need a division by a Gaussian norm per part, and no
    report's evaluation point is complex.  On a float field a float or
    complex z meets the marked points as the floats of `_poles`.
    Fraction's fallback makes the same conversion at every z - p_i
    (complex(p) is complex(float(p))), so each difference keeps its bits,
    and z equals the converted point exactly when the difference is zero.
    A rational z and p_i meet in one correctly rounded int division: the
    float the Fraction weight gives.
    """
    marked, exact = field.marked_points, field.flavor == "exact"
    rational_z = isinstance(z, (int, Fraction))
    if exact and rational_z:
        try:
            return shifted_reciprocals(field._poles, z, scale)
        except ZeroDivisionError as e:
            i = e.args[0]
            raise PoleEvaluationError(f"evaluation at pole p_{i + 1} = {marked[i]}") from None
    floats = not exact and isinstance(z, (float, complex))
    ws = []
    for i, q in enumerate(field._poles if floats else marked):
        if z == q:
            raise PoleEvaluationError(f"evaluation at pole p_{i + 1} = {marked[i]}")
        if rational_z and isinstance(q, (int, Fraction)):
            zd, qd = z.denominator, q.denominator
            ws.append(scale * zd * qd / (z.numerator * qd - q.numerator * zd))
        else:
            ws.append(scale / (z - q))
    return numerators(ws) if exact else (ws, 1)


class _PhiAt(NamedTuple):
    """phi at one evaluation point z (`_exact_z`), read by every power:
    1 / (z - p_i) = ws[i] / dw and phi(z) = phi / (d dw), d = dx dy on a
    point's field."""

    z: object
    ws: list
    dw: object
    phi: tuple


def _phi_at(field: HiggsField, z) -> _PhiAt:
    """The `_PhiAt` of z: entry (a, b) of phi * d dw, for the field's
    table U / d, is the sum of U_ab,i W_i, added from the left."""
    z = _exact_z(field.flavor, z)
    ws, dw = _weights(field, z)
    phi = tuple(tuple(sum(map(mul, u, ws)) for u in row) for row in field._table[0])
    return _PhiAt(z, ws, dw, phi)


def _grad_numerators(point: QuiverPoint, xy: _Cleared, at: _PhiAt, m: int) -> tuple:
    """Gradient of Tr(phi(z0)^m), z0 = at.z, as numerators G and
    denominators (ex, ey).

    With phi(z0) = A / D on numerators (D = dx dy dw) and m / (z0 - p_i) =
    m W_i / dw, the x entries m W_i (Y_i A^(m-1))_a are over ex = dy e and
    the y entries m W_i (A^(m-1) X_i)_b over ey = dx e, where e = dw
    D^(m-1).  Every bracket of two such gradients therefore has the one
    denominator ey_f ex_g = ex_f ey_g, and `_contract` on numerators is
    zero exactly when the bracket is.  A float point is its own numerator,
    with the same operations in the same order as the float formulas.
    """
    r, n, dx, dy = point.r, point.n, xy.dx, xy.dy
    if point.flavor == "exact":
        ms = [m * w for w in at.ws]
    else:
        ms, _ = _weights(xy.field, at.z, m)
    apow = linalg.mat_pow(at.phi, m - 1)
    ya, ax = linalg.mat_mul(xy.ys, apow), linalg.mat_mul(apow, xy.xs)
    g = tuple(ms[i] * ya[i][a] for a in range(r) for i in range(n)) + tuple(
        w * ax[a][i] for i, w in enumerate(ms) for a in range(r)
    )
    e = at.dw * (dx * dy * at.dw) ** (m - 1)
    return g, dy * e, dx * e


def _observable_numerators(point: QuiverPoint, xy: _Cleared, obs: BracketObservable) -> tuple:
    # a power above the rank is refused before z0 meets the poles
    if obs.m > point.r:
        raise ValueError("power must lie between 2 and the rank")
    return _grad_numerators(point, xy, _phi_at(xy.field, obs.z0), obs.m)


def observable_grad(point: QuiverPoint, obs: BracketObservable) -> tuple:
    """Closed-form gradient of Tr(phi(z0)^m) as one flat tuple.

    With A = phi(z0), entry a*n + i is d/d(x_i)_a = m (y_i A^(m-1))_a /
    (z0 - p_i) and entry r*n + i*r + b is d/d(y_i)_b = m (A^(m-1) x_i)_b /
    (z0 - p_i): the x entries row by row, then the y entries row by row.
    Exact points run on numerators and divide once per entry.
    """
    xy = _checked_xy(point)
    g, ex, ey = _observable_numerators(point, xy, obs)
    if point.flavor != "exact":
        return g
    half = point.r * point.n
    return ratios(g[:half], ex) + ratios(g[half:], ey)


def _halves(r: int, n: int, g: tuple) -> tuple[list, list]:
    """A flat gradient split once into `_contract`'s two operands, edge by
    edge and row by row, (i, a): the left one holds the y entry (i, a),
    then minus the x entry (a, i); the right one the x entry, then the y
    entry."""
    xs = [g[a * n + i] for i in range(n) for a in range(r)]
    ys = g[r * n:]
    left, right = [0] * (2 * len(xs)), [0] * (2 * len(xs))
    left[0::2], left[1::2] = ys, [-v for v in xs]
    right[0::2], right[1::2] = xs, ys
    return left, right


def _contract(f: list, g: list):
    """Canonical bracket pairing of two gradients: f the left `_halves` of
    the first, g the right `_halves` of the second.

    The sign is fixed so that the bracket induced on the residue entries
    M = x_i y_i is delta_jk M_il - delta_il M_kj.  One sum in C of the
    products in (i, a) order: + f_y g_x, then - f_x g_y as (-f_x) g_y,
    which rounds to the same float.  A product with a zero factor is
    added too, which can change only the sign of a zero sum, and 0 * inf
    is nan where a skipped product left the sum finite.
    """
    return sum(map(mul, f, g))


def poisson_bracket(point: QuiverPoint, f: BracketObservable, g: BracketObservable):
    """Canonical holomorphic bracket of two trace-power observables."""
    xy = _checked_xy(point)
    gf, _, ey = _observable_numerators(point, xy, f)
    gg, ex, _ = _observable_numerators(point, xy, g)
    r, n = point.r, point.n
    val = _contract(_halves(r, n, gf)[0], _halves(r, n, gg)[1])
    return ratio(val, ey * ex) if point.flavor == "exact" else val


def _entry_pairing(rz: tuple, rw: tuple, a: int, b: int, c: int, d: int):
    """`_contract` of the gradients of phi_ab(z) and phi_cd(w) on their
    support: with rz = (WX, WY, -WY) at z and rw = (WX, WY) at w,
    WX[a][i] = W_i X_ai and WY[b][i] = W_i Y_ib, the first is WY[b] in x
    row a and WX[a] in y column b.  Edge by edge, in `_contract`'s order
    and as one sum in C: + WX_z[a] WY_w[d] in column b if b = c, and
    (-WY_z[b]) WX_w[c] in column a if a = d."""
    plus = (rz[0][a], rw[1][d]) if b == c else None
    minus = (rz[2][b], rw[0][c]) if a == d else None
    if not (plus and minus):
        return sum(map(mul, *(plus or minus)))
    first, second = (minus, plus) if a < b else (plus, minus)
    size = 2 * len(first[0])
    left, right = [0] * size, [0] * size
    left[0::2], left[1::2] = first[0], second[0]
    right[0::2], right[1::2] = first[1], second[1]
    return sum(map(mul, left, right))


def delta_check(point: QuiverPoint, z, w):
    """Deviation of the bracket of field entries from its two-pole kernel.

    Computes {phi_ab(z), phi_cd(w)} for every index quadruple through the
    canonical bracket and compares with delta_bc D_ad - delta_ad D_cb where
    D = phi(z)/(w-z) + phi(w)/(z-w).  Returns the maximum squared magnitude
    of the difference, which is exactly zero for exact points.  Both sides
    vanish unless b = c or a = d, and each pairing is summed over the
    edges alone (`_entry_pairing`).

    On an exact point every entry pairing is L / E with E = dx dy dz dw,
    and with w - z = s / t the kernel is D = t (dw A_z - dz A_w) / (E s)
    for the numerators A of phi; each pairing is compared by cross
    multiplication, L s against t (dw A_z - dz A_w).
    """
    z, w = _exact_z(point.flavor, z), _exact_z(point.flavor, w)
    if z == w:
        raise ValueError("coincident evaluation points")
    xy = _checked_xy(point)
    exact = point.flavor == "exact"
    r = point.r
    at_z, at_w = _phi_at(xy.field, z), _phi_at(xy.field, w)
    dz, dw, phi_z, phi_w = at_z.dw, at_w.dw, at_z.phi, at_w.phi
    if exact:
        (s,), t = numerators((w - z,))
        den = xy.dx * xy.dy * dz * dw * s
        kernel = linalg.mat_scale(
            linalg.mat_sub(linalg.mat_scale(phi_z, dw), linalg.mat_scale(phi_w, dz)), t
        )
    else:
        # a rational 1 / (w - z) meets the entries as its float: the bits
        # Fraction's fallback gives at every product
        sz, sw = (float(v) if isinstance(v, Fraction) else v for v in (1 / (w - z), 1 / (z - w)))
        kernel = linalg.mat_add(linalg.mat_scale(phi_z, sz), linalg.mat_scale(phi_w, sw))
    # W_i X_ai and W_i Y_ib at z and at w: the entry gradients' nonzeros,
    # with -W_i Y_ib at z for the pairings' minus terms
    rows_z, rows_w = (
        ([[u * v for u, v in zip(at.ws, row)] for row in xy.xs],
         [[u * row[b] for u, row in zip(at.ws, xy.ys)] for b in range(r)])
        for at in (at_z, at_w)
    )
    rows_z += ([[-v for v in row] for row in rows_z[1]],)
    worst = 0
    for a, b, c, d in product(range(r), repeat=4):
        if b != c and a != d:
            continue  # no kernel term and an empty pairing
        lhs = _entry_pairing(rows_z, rows_w, a, b, c, d)
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
    max(p_j) + 1, + 2, + 3.  A nonzero bracket whose value or gradient
    norms leave the float range raises ValueError naming the bracket."""
    n, r = point.n, point.r
    xy = _checked_xy(point)
    # phi(z0) is built once per evaluation point and read by every power
    ats = [_phi_at(xy.field, z0) for z0 in _eval_points(point.marked_points, 3)]
    obs = [(m, at) for m in range(2, r + 1) for at in ats]
    grads = [_grad_numerators(point, xy, at, m) for m, at in obs]
    halves = [_halves(r, n, g) for g, _, _ in grads]
    # only a nonzero bracket needs norms, and only it is divided
    norms = None
    pairs = []
    max_abs = 0.0
    max_rel = 0.0
    all_zero = True
    for i, (_, _, ey) in enumerate(grads):
        for j in range(i + 1, len(obs)):
            _, ex, _ = grads[j]
            val = _contract(halves[i][0], halves[j][1])
            a = rel = 0.0
            if val:
                all_zero = False
                if norms is None:
                    norms = [_grad_norm(*g) for g in grads]
                a = math.sqrt(norm_sq(val) / (ey * ex) ** 2)
                if not all(map(math.isfinite, (a, norms[i], norms[j]))):
                    (m, at), (m2, at2) = obs[i], obs[j]
                    raise ValueError(
                        f"bracket of Tr phi({at.z})^{m} and Tr phi({at2.z})^{m2} "
                        "outside the float range"
                    )
                rel = a / max(1.0, norms[i] * norms[j])
            max_abs = max(max_abs, a)
            max_rel = max(max_rel, rel)
            pairs.append((obs[i][0], obs[i][1].z, obs[j][0], obs[j][1].z, a, rel))
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
    xy = _checked_xy(fp)
    from . import floating

    rank, svals = floating.circle_rank(
        r, n, fp.marked_points,
        lambda z, m: _grad_numerators(fp, xy, _phi_at(xy.field, z), m)[0], threshold,
    )
    return JacobianReport(rank=rank, dim_b=(r - 1) * (n - r - 1), singular_values=svals)
