"""Spectral curves of twisted field matrices.

The meromorphic field of a quiver point, multiplied by prod_j (z - p_j),
is a polynomial matrix psi(z) with entry degrees at most n - 2.  Its
characteristic polynomial f(z, lam) = lam^r + sum_i c_i(z) lam^(r-i) cuts
out the spectral curve.  `twist` wraps the field's own psi, whose c_i
also give the field's cleared traces Tr(psi^k) and g_k: spectral and base
data share one exact pass, and `trace_consistency` flags exactly the
powers at which `hitchin_map` raises.  That pass is the field's
factorized route c_s = prod_j (z - p_j)^(s-1) h_s (rank-one residues
that sum to zero, Sylvester's identity): scalar Berkowitz coefficients at integer nodes,
divided exactly by the node values of prod_j (v_j z - u_j)^(s-1) and
interpolated with a degree check, so psi's charpoly runs no polynomial
Berkowitz pass; the discriminant of the certificate below still does.
This module computes the c_i, checks the vanishing-order bounds
ord_{p_j}(c_i) >= floor((i+1)/2) at the marked points, and certifies the
curve smooth away from the marked fibers.
The certificate splits the discriminant det F'(C) (F the monic integer
rescaling of f, C its companion matrix) as prod_j (v_j z - u_j)^(o_j) * R
and tests R squarefree mod p.
The module also carries two small hardcoded local models (one of rank 3,
one of rank 4) used as fixtures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .errors import (
    DegenerateDiscriminantError,
    DegreeOverflowError,
    ValidationError,
)
from .exact import (
    DensePoly,
    PolyMatrix,
    berkowitz,
    cleared_vanishing_order,
    numerators,
    poly_add,
    poly_divmod,
    poly_matrix_charpoly,
    poly_mul,
    scalar_to_json,
    squarefree_mod_p,
)
from .hitchin import HiggsField
from .quiver import min_orbit_check


@dataclass(frozen=True)
class TwistedHiggs:
    """Polynomial matrix psi(z) with the degree and trace constraints."""

    psi: PolyMatrix
    n: int
    marked_points: tuple

    def __post_init__(self):
        bound = self.n - 2
        for row in self.psi.rows:
            for e in row:
                if e.degree > bound:
                    raise DegreeOverflowError(
                        f"degree overflow: entry degree {e.degree} > {bound}"
                    )
        if self.psi.trace():
            raise ValidationError("twisted matrix must be traceless")

    @property
    def r(self) -> int:
        return self.psi.size


def twist(field: HiggsField) -> TwistedHiggs:
    """Clear the poles of a field by prod_j (z - p_j)."""
    return TwistedHiggs(
        psi=field.psi,
        n=field.n,
        marked_points=field.marked_points,
    )


@dataclass(frozen=True)
class CharPoly:
    """Coefficients of det(lam*Id - psi) = lam^r + sum c_i(z) lam^(r-i)."""

    r: int
    n: int
    c: dict  # i -> DensePoly, i = 1..r (c_1 is recorded and must be zero)
    marked_points: tuple

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "c": {
                str(i): [scalar_to_json(v) for v in self.c[i].coeffs]
                for i in range(2, self.r + 1)
            },
        }


def spectral_charpoly(tw: TwistedHiggs) -> CharPoly:
    """Exact characteristic polynomial of a twisted matrix.

    `TwistedHiggs` already bounds it: c_1 = -Tr psi is zero, and entries
    of degree at most n - 2 give deg c_i <= i(n-2).
    """
    c = dict(enumerate(poly_matrix_charpoly(tw.psi), start=1))
    return CharPoly(r=tw.r, n=tw.n, c=c, marked_points=tw.marked_points)


@dataclass(frozen=True)
class OrderReport:
    """Vanishing orders of the c_i at given points against their bounds."""

    rows: tuple  # (i, point, order, bound, passed)
    all_pass: bool


def order_check(cp: CharPoly, points: Sequence | None = None) -> OrderReport:
    """Check ord_p(c_i) >= floor((i+1)/2) at each point.

    The zero polynomial has infinite order and passes every bound.  Each
    c_i is cleared to numerators once, for all the points.
    """
    if points is None:
        points = cp.marked_points
    rows = []
    ok = True
    for i in range(2, cp.r + 1):
        bound = (i + 1) // 2
        nums, _ = numerators(cp.c[i].coeffs)
        for p in points:
            order = cleared_vanishing_order(nums, p)
            passed = order >= bound
            ok = ok and passed
            rows.append((i, p, order, bound, passed))
    return OrderReport(rows=tuple(rows), all_pass=ok)


@dataclass(frozen=True)
class TraceConsistencyReport:
    """Outcome of tying the cleared base coordinates to the trace powers."""

    ok: bool
    failing: tuple  # powers k where the identity breaks


def trace_consistency(field: HiggsField) -> TraceConsistencyReport:
    """Powers k = 2..r at which Tr(psi^k) is not g_k * prod(z - p_j)^(k-1).

    The powers are read from the field's cleared traces, the same ones
    `hitchin_map` reads, so the report is ok exactly when the base map
    succeeds, and the first failing power is the one at which it raises.
    """
    failing = tuple(k for k, _, overflow in field.cleared_traces if overflow)
    return TraceConsistencyReport(ok=not failing, failing=failing)


# ---------------------------------------------------------------------------
# local models

@dataclass(frozen=True)
class LocalModelFixture:
    """A small matrix model of the curve normalization near a marked point."""

    name: str
    matrix: PolyMatrix
    charpoly: CharPoly
    residue: tuple  # matrix value at z = 0
    expected_residue_rank: int


def _validate_model(fix: LocalModelFixture, expected: Sequence[DensePoly]):
    got = [fix.charpoly.c[i] for i in range(1, fix.charpoly.r + 1)]
    if got != list(expected):
        raise ValidationError(f"{fix.name} model charpoly mismatch: {got}")
    sq = linalg.mat_mul(fix.residue, fix.residue)
    if linalg.frob_sq(sq):
        raise ValidationError(f"{fix.name} residue is not square-zero")
    if linalg.exact_rank(fix.residue) != fix.expected_residue_rank:
        raise ValidationError(f"{fix.name} residue rank mismatch")


def _matrix_residue(m: PolyMatrix) -> tuple:
    zero = Fraction(0)
    return tuple(
        tuple(e(zero) if e else zero for e in row) for row in m.rows
    )


def local_models(seed: int = 0) -> tuple[LocalModelFixture, LocalModelFixture]:
    """The rank-3 and rank-4 normalization fixtures, validated.

    The rank-3 matrix has charpoly lam^3 - z*lam - z^2 and a rank-1
    square-zero value at z = 0.  The rank-4 matrix has charpoly
    lam^4 - z*a*lam^2 - z^2*b*lam - z^2*c for seeded rational polynomials
    a, b (degree 1) and c (degree 0); its value at z = 0 is square-zero of
    rank 2 regardless of the specialization, which is what keeps it off
    the minimal orbit.
    """
    z = DensePoly.gen("z")
    zero = DensePoly.zero("z")
    one = DensePoly.one("z")

    m3 = PolyMatrix(
        [
            [zero, z, zero],
            [one, zero, z],
            [one, zero, zero],
        ],
        "z",
    )
    tw3 = TwistedHiggs(psi=m3, n=3, marked_points=(Fraction(0),))
    rank3 = LocalModelFixture(
        name="rank3",
        matrix=m3,
        charpoly=spectral_charpoly(tw3),
        residue=_matrix_residue(m3),
        expected_residue_rank=1,
    )
    _validate_model(rank3, [zero, -z, -(z ** 2)])

    rng = random.Random(seed)

    def coeff() -> Fraction:
        num = rng.choice([-1, 1]) * rng.randint(1, 9)
        return Fraction(num, rng.randint(1, 3))

    a = DensePoly([coeff(), coeff()], "z")
    b = DensePoly([coeff(), coeff()], "z")
    c = DensePoly([coeff()], "z")
    m4 = PolyMatrix(
        [
            [zero, zero, zero, z * c],
            [one, zero, zero, z * b],
            [zero, z, zero, z * a],
            [zero, zero, one, zero],
        ],
        "z",
    )
    tw4 = TwistedHiggs(psi=m4, n=4, marked_points=(Fraction(0),))
    rank4 = LocalModelFixture(
        name="rank4",
        matrix=m4,
        charpoly=spectral_charpoly(tw4),
        residue=_matrix_residue(m4),
        expected_residue_rank=2,
    )
    _validate_model(rank4, [zero, -(z * a), -(z ** 2 * b), -(z ** 2 * c)])
    if min_orbit_check(rank3.residue) is not True:
        raise ValidationError("rank3 residue should lie on the minimal orbit")
    if min_orbit_check(rank4.residue) is not False:
        raise ValidationError("rank4 residue should be off the minimal orbit")
    return rank3, rank4


# ---------------------------------------------------------------------------
# smoothness certificate

def _discriminant_numerators(cp: CharPoly) -> tuple[list, int]:
    """(Delta, e), Delta = e^(r(r-1)) Res_lam(f, df/dlam) on numerators,
    lowest degree first, and e the common denominator of the c_i.

    With c_i = N_i / e and mu = e*lam, F(mu) = e^r f(mu/e) is monic with
    coefficients a_i = e^(i-1) N_i, and Res(F, F') = Delta.  For a monic F,
    Res(F, G) = det G(C), C the companion matrix of F (Cohen, GTM 138,
    section 3.3), and column j of G(C) is mu^j G(mu) mod F.  `berkowitz`
    reads the columns as rows: a transpose keeps the determinant.
    """
    r = cp.r
    nums, e = numerators(c for i in range(1, r + 1) for c in cp.c[i].coeffs)
    it = iter(nums)
    a = [[1]] + [[e ** (i - 1) * next(it) for _ in cp.c[i].coeffs] for i in range(1, r + 1)]
    # column 0 is F'(mu) = sum_k (k+1) a_(r-k-1) mu^k; each next column is
    # mu times the last, with mu^r = -sum_k a_(r-k) mu^k mod F
    reduce_top = [[-c for c in a[r - k]] for k in range(r)]
    cols = [[[(k + 1) * c for c in a[r - k - 1]] for k in range(r)]]
    for _ in range(r - 1):
        col = cols[-1]
        cols.append([poly_add(lo, poly_mul(col[-1], m)) for lo, m in zip([[]] + col, reduce_top)])
    delta = berkowitz(cols)[-1]
    return ([-c for c in delta] if r % 2 else delta), e


@dataclass(frozen=True)
class SmoothnessReport:
    """The discriminant split as prod_j (v_j z - u_j)^(o_j) * R."""

    orders: tuple  # (p_j, o_j) per marked point p_j = u_j / v_j
    residual_degree: int  # deg R
    squarefree: bool  # R squarefree mod p, which proves it over Q
    verdict: str
    discriminant_degree: int


def smoothness_probe(cp: CharPoly) -> SmoothnessReport:
    """Certify the spectral curve smooth away from the marked fibers.

    Divides the discriminant of `_discriminant_numerators` by
    prod_j (v_j z - u_j)^(o_j), o_j its vanishing order at p_j.  If the
    rest R is squarefree mod p, every root off the marked points is simple
    and the curve is smooth there; otherwise it is not certified.  The
    factor e^(r(r-1)), built from the point's denominators, changes no
    order or degree, and the verdict only if p divides it.
    """
    delta, _ = _discriminant_numerators(cp)
    if not delta:
        raise DegenerateDiscriminantError("degenerate discriminant: the curve is non-reduced")
    orders = tuple((p, cleared_vanishing_order(delta, p)) for p in cp.marked_points)
    divisor = [1]
    for p, order in orders:
        for _ in range(order):
            divisor = poly_mul(divisor, [-p.numerator, p.denominator])
    rest, rem = poly_divmod(delta, divisor)
    assert not rem, "the marked-point factors must divide the discriminant"
    squarefree = squarefree_mod_p(rest)
    return SmoothnessReport(
        orders=orders,
        residual_degree=len(rest) - 1,
        squarefree=squarefree,
        verdict="smooth away from D" if squarefree else "not certified away from D",
        discriminant_degree=len(delta) - 1,
    )
