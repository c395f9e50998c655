"""The exact kernels on numerators against Fraction references.

`linalg.rref`, `exact.poly_matrix_charpoly`, `HiggsField.cleared_traces`,
`exact.vanishing_order` and the bracket layer of `hitchin` clear
denominators once and divide once at the end.  The references below are
the field eliminations and gradients they replaced, kept here only, with
the `DensePoly` division they need.  Typed reprs must agree: same values
and same scalar types.  On float points the bracket layer must give the
references' floats bit for bit, and so must the float `hitchin_map`,
which keeps a reference here too.
"""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from hyperpoly import linalg
from hyperpoly.errors import DegreeOverflowError, PoleEvaluationError
from hyperpoly.exact import (
    DensePoly,
    GaussianRational,
    PolyMatrix,
    poly_from_roots,
    poly_matrix_charpoly,
    vanishing_order,
)
from hyperpoly.hitchin import (
    BracketObservable,
    CommutationReport,
    _contract,
    _eval_points,
    _exact_z,
    _pole_overflow,
    commutation_report,
    delta_check,
    hitchin_map,
    observable_grad,
    poisson_bracket,
    residues,
)
from hyperpoly.linalg import norm_sq
from hyperpoly.quiver import exact_point_from_x, sample_exact, solve_real


# ---------------------------------------------------------------------------
# Fraction references

def _rref_reference(a):
    rows = [list(r) for r in a]
    if not rows:
        return (), ()
    p, q = len(rows), len(rows[0])
    pivots = []
    ri = 0
    for c in range(q):
        pivot = next((i for i in range(ri, p) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[ri], rows[pivot] = rows[pivot], rows[ri]
        inv = rows[ri][c]
        rows[ri] = [x / inv for x in rows[ri]]
        for i in range(p):
            if i != ri and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[ri])]
        pivots.append(c)
        ri += 1
        if ri == p:
            break
    return linalg.mat(rows), tuple(pivots)


def _kernel_reference(a):
    reduced, pivots = _rref_reference(a)
    q = len(a[0])
    basis = []
    for fc in (c for c in range(q) if c not in pivots):
        v = [0] * q
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = -reduced[ri][fc]
        basis.append(tuple(v))
    return basis


def _divmod_reference(a: DensePoly, b: DensePoly):
    """Euclidean division over the field of fractions of the coefficients.

    An int leading coefficient of b is lifted to a Fraction, so that int
    coefficients give an exact quotient rather than floats.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    d = b.coeffs
    dn = len(d)
    lead = d[-1]
    if isinstance(lead, int):
        lead = Fraction(lead)
    if len(rem) < dn:
        return DensePoly.zero(a.var), a
    q = [0] * (len(rem) - dn + 1)
    for i in range(len(rem) - dn, -1, -1):
        c = rem[i + dn - 1]
        if not c:
            continue
        f = c / lead
        q[i] = f
        for j, dj in enumerate(d):
            rem[i + j] = rem[i + j] - f * dj
    return DensePoly(q, a.var), DensePoly(rem, a.var)


def _exact_div_reference(a: DensePoly, b: DensePoly) -> DensePoly:
    q, r = _divmod_reference(a, b)
    if not r.is_zero():
        raise ValueError("inexact polynomial division")
    return q


def _padded(p: DensePoly, length: int) -> tuple:
    """Coefficient tuple of p padded with zeros up to the given length."""
    if length < len(p.coeffs):
        raise ValueError("padding shorter than polynomial")
    return p.coeffs + (0,) * (length - len(p.coeffs))


def _div_int(c, k):
    if isinstance(c, int):
        q, rem = divmod(c, k)
        return q if rem == 0 else Fraction(c, k)
    return c / k


def _charpoly_reference(m: PolyMatrix):
    ident = linalg.identity(m.size)
    mk = m.rows
    cs = []
    for k in range(1, m.size + 1):
        if k > 1:
            mk = linalg.mat_mul(m.rows, linalg.mat_add(mk, linalg.mat_scale(ident, cs[-1])))
        cs.append(DensePoly([_div_int(c, k) for c in linalg.mat_trace(mk).coeffs], m.var) * (-1))
    return cs


def _cleared_traces_reference(field):
    divisor = poly_from_roots(field.marked_points)
    den = DensePoly.one("z")
    cs = _charpoly_reference(field.psi)
    traces, out = [], []
    for k, ck in enumerate(cs, start=1):
        tk = ck * (-k)
        for i in range(1, k):
            tk = tk - cs[i - 1] * traces[k - i - 1]
        traces.append(tk)
        if k == 1:
            continue
        den = den * divisor
        quot, rem = _divmod_reference(tk, den)
        bound = field.n - 2 * k
        if rem:
            out.append((k, None, "pole"))
        elif quot and quot.degree > bound:
            out.append((k, None, "degree"))
        else:
            out.append((k, _padded(quot, bound + 1) if bound >= 0 else (), None))
    return out


def _vanishing_order_reference(p: DensePoly, a):
    if p.is_zero():
        return math.inf
    order = 0
    while p(a) == 0:
        p = _exact_div_reference(p, DensePoly((-a, 1), p.var))
        order += 1
    return order


def _higgs_eval_reference(field, z):
    z = _exact_z(field.flavor, z)
    acc = linalg.zeros(field.r, field.r)
    for i, p in enumerate(field.marked_points):
        if z == p:
            raise PoleEvaluationError(f"evaluation at pole p_{i + 1} = {p}")
        acc = linalg.mat_add(
            acc, linalg.mat_scale(field.residues[i], 1 / (z - p))
        )
    return acc


def _hitchin_map_float_reference(field):
    """The float base map fitted at np.float64 points, one phi(z) per power."""
    r, n = field.r, field.n
    pts = [float(p) for p in field.marked_points]

    def cleared(z, k):
        a = np.array([[complex(v) for v in row] for row in _higgs_eval_reference(field, z)])
        return complex(np.trace(np.linalg.matrix_power(a, k))) * math.prod(
            z - p for p in pts
        )

    g = {}
    for k in range(2, r + 1):
        count = max(n - 2 * k + 1, 0)
        zs = np.array([float(z) for z in _eval_points(field.marked_points, count + 1)])
        coeffs = ()
        if count:
            vander = np.vander(zs[:-1], count, increasing=True)
            coeffs = np.linalg.solve(
                vander, np.array([cleared(z, k) for z in zs[:-1]])
            )
        g[k] = tuple(complex(c) for c in coeffs)
        if k >= 4:
            want = cleared(zs[-1], k)
            got = np.polyval(coeffs[::-1], zs[-1]) if count else 0
            if abs(got - want) > 1e-6 * abs(want):
                raise DegreeOverflowError(_pole_overflow(k), power=k)
    return g


def _observable_grad_reference(point, obs, field=None):
    if obs.m > point.r:
        raise ValueError("power must lie between 2 and the rank")
    if field is None:
        field = residues(point)
    r, n = point.r, point.n
    z0 = obs.z0
    if point.flavor == "exact" and isinstance(z0, int):
        z0 = Fraction(z0)
    apow = linalg.mat_pow(_higgs_eval_reference(field, z0), obs.m - 1)
    out = [0] * (2 * r * n)
    for i, p in enumerate(point.marked_points):
        w = obs.m / (z0 - p)
        row = point.y[i]
        col = point.x_col(i)
        for a in range(r):
            out[a * n + i] = w * sum(row[b] * apow[b][a] for b in range(r))
            out[r * n + i * r + a] = w * sum(apow[a][b] * col[b] for b in range(r))
    return tuple(out)


def _poisson_bracket_reference(point, f, g):
    field = residues(point)
    return _contract(
        point.r,
        point.n,
        _observable_grad_reference(point, f, field),
        _observable_grad_reference(point, g, field),
    )


def _grad_norm_reference(g):
    half = len(g) // 2
    total = sum(float(norm_sq(v)) for v in g[:half])
    total += sum(float(norm_sq(v)) for v in g[half:])
    return math.sqrt(total)


def _commutation_report_reference(point):
    n, r = point.n, point.r
    field = residues(point)
    obs = [
        BracketObservable(m, z0)
        for m in range(2, r + 1)
        for z0 in _eval_points(point.marked_points, 3)
    ]
    grads = [_observable_grad_reference(point, o, field) for o in obs]
    norms = None
    pairs = []
    max_abs = 0.0
    max_rel = 0.0
    all_zero = True
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            val = _contract(r, n, grads[i], grads[j])
            a = rel = 0.0
            if val:
                all_zero = False
                if norms is None:
                    norms = [_grad_norm_reference(g) for g in grads]
                a = math.sqrt(float(norm_sq(val)))
                rel = a / max(1.0, norms[i] * norms[j])
            max_abs = max(max_abs, a)
            max_rel = max(max_rel, rel)
            pairs.append((obs[i].m, obs[i].z0, obs[j].m, obs[j].z0, a, rel))
    return CommutationReport(
        pairs=tuple(pairs), max_abs=max_abs, max_rel=max_rel, all_zero=all_zero
    )


def _entry_grads_reference(point, z):
    r, n = point.r, point.n
    ws = [1 / (z - p) for p in point.marked_points]
    wy = [[w * point.y[i][b] for i, w in enumerate(ws)] for b in range(r)]
    wx = [[w * point.x[a][i] for i, w in enumerate(ws)] for a in range(r)]
    grads = {}
    for a in range(r):
        for b in range(r):
            out = [0] * (2 * r * n)
            for i in range(n):
                out[a * n + i] = wy[b][i]
                out[r * n + i * r + b] = wx[a][i]
            grads[(a, b)] = tuple(out)
    return grads


def _delta_check_reference(point, z, w):
    if point.flavor == "exact":
        if isinstance(z, int):
            z = Fraction(z)
        if isinstance(w, int):
            w = Fraction(w)
    if z == w:
        raise ValueError("coincident evaluation points")
    field = residues(point)
    r, n = point.r, point.n
    phi_z = _higgs_eval_reference(field, z)
    phi_w = _higgs_eval_reference(field, w)
    delta = linalg.mat_add(
        linalg.mat_scale(phi_z, 1 / (w - z)),
        linalg.mat_scale(phi_w, 1 / (z - w)),
    )
    grads_z = _entry_grads_reference(point, z)
    grads_w = _entry_grads_reference(point, w)
    worst = 0
    for a in range(r):
        for b in range(r):
            for c in range(r):
                for d in range(r):
                    lhs = _contract(r, n, grads_z[(a, b)], grads_w[(c, d)])
                    rhs = 0
                    if b == c:
                        rhs = rhs + delta[a][d]
                    if a == d:
                        rhs = rhs - delta[c][b]
                    dev = norm_sq(lhs - rhs)
                    if dev > worst:
                        worst = dev
    return worst


def _typed(polys):
    return [repr(p.coeffs) for p in polys]


def _typed_repr(v) -> str:
    """repr with the type of every scalar spelled out, through tuples,
    lists, dicts and dataclasses: 0.0 and -0.0 differ, and so do a float
    and a complex of equal value."""
    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(map(_typed_repr, v)) + ")"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{_typed_repr(k)}: {_typed_repr(x)}" for k, x in v.items()) + "}"
    if dataclasses.is_dataclass(v):
        return type(v).__name__ + _typed_repr([getattr(v, f.name) for f in dataclasses.fields(v)])
    return f"{type(v).__name__}({v!r})"


# ---------------------------------------------------------------------------
# the division the references use

coeff_lists = st.lists(
    st.fractions(min_value=-100, max_value=100, max_denominator=20), min_size=0, max_size=6
)


def P(cs):
    return DensePoly(cs, "z")


@given(coeff_lists, coeff_lists)
def test_poly_divmod(a, b):
    pa, pb = P(a), P(b)
    if pb.is_zero():
        with pytest.raises(ZeroDivisionError):
            _divmod_reference(pa, pb)
        return
    q, r = _divmod_reference(pa, pb)
    assert q * pb + r == pa
    assert r.is_zero() or r.degree < pb.degree


@given(coeff_lists, coeff_lists)
def test_poly_exact_div(a, b):
    pa, pb = P(a), P(b)
    if pb.is_zero():
        return
    prod = pa * pb
    assert _exact_div_reference(prod, pb) == pa


def test_poly_division_of_int_coefficients_is_exact():
    # an int leading coefficient must not turn the quotient into floats
    q, r = _divmod_reference(P([2, 3, 1]), P([1, 1]))
    assert q == P([2, 1]) and r.is_zero()
    half = _exact_div_reference(P([2, 3, 1]), P([2, 2]))
    assert half == P([1, Fraction(1, 2)])
    for c in q.coeffs + half.coeffs:
        assert isinstance(c, (int, Fraction))


# ---------------------------------------------------------------------------
# rref and kernel_basis

small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
gaussian = st.builds(GaussianRational, small, small)


@st.composite
def matrices(draw, entries):
    """Matrices of rank at most k, built as a product B C, with a duplicate
    row and a zero row (int or typed zeros) spliced in on request."""
    p = draw(st.integers(1, 5))
    q = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(p, q)))
    b = [[draw(entries) for _ in range(k)] for _ in range(p)]
    c = [[draw(entries) for _ in range(q)] for _ in range(k)]
    rows = [tuple(sum(b[i][l] * c[l][j] for l in range(k)) for j in range(q)) for i in range(p)]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), rows[draw(st.integers(0, p - 1))])
    if draw(st.booleans()):
        zero = draw(st.sampled_from([0, rows[0][0] * 0]))
        rows.insert(draw(st.integers(0, len(rows))), (zero,) * q)
    return tuple(rows)


@settings(max_examples=80, deadline=None)
@given(matrices(small))
def test_rref_and_kernel_match_reference_on_rationals(a):
    assert repr(linalg.rref(a)) == repr(_rref_reference(a))
    assert repr(linalg.kernel_basis(a)) == repr(_kernel_reference(a))


@settings(max_examples=20, deadline=None)
@given(matrices(gaussian))
def test_rref_and_kernel_match_reference_on_gaussians(a):
    assert repr(linalg.rref(a)) == repr(_rref_reference(a))
    assert repr(linalg.kernel_basis(a)) == repr(_kernel_reference(a))


@settings(max_examples=20, deadline=None)
@given(matrices(st.one_of(small, gaussian)))
def test_rref_mixed_entries_come_back_gaussian(a):
    # with real and complex entries mixed, the numerator ring is the
    # Gaussian one and every pivot row comes back as GaussianRationals;
    # the field elimination kept some of their entries as Fractions
    got, pivots = linalg.rref(a)
    want, want_pivots = _rref_reference(a)
    assert got == want and pivots == want_pivots
    if any(isinstance(v, GaussianRational) for row in a for v in row):
        assert all(isinstance(v, GaussianRational) for row in got[: len(pivots)] for v in row)


def test_rref_on_the_sampling_fiber():
    # the system sample_exact solves for y: int zeros around Fraction entries
    r, n = 5, 9
    x = sample_exact(r, n, seed=0).x
    rows = []
    for i in range(n):
        row = [0] * (n * r)
        for a in range(r):
            row[i * r + a] = x[a][i]
        rows.append(tuple(row))
    for a in range(r):
        for b in range(r):
            row = [0] * (n * r)
            for i in range(n):
                row[i * r + b] = x[a][i]
            rows.append(tuple(row))
    assert repr(linalg.rref(tuple(rows))) == repr(_rref_reference(tuple(rows)))


# ---------------------------------------------------------------------------
# charpoly and cleared traces

def _rational_field(r, n, seed):
    # non-integral x entries and marked points: psi has real denominators
    # and prod(z - p_j) is not monic on numerators
    base = sample_exact(r, n, seed=seed).x
    x = [[v / (i + 2) for i, v in enumerate(row)] for row in base]
    points = [Fraction(2 * i + 1, 3) for i in range(n)]
    return residues(exact_point_from_x(x, seed=seed, marked_points=points))


def _gaussian_field():
    g = GaussianRational
    x = (
        (g(1, 2), 0, 1, g(0, -1), 3),
        (2, g(Fraction(1, 2), 1), g(-1, 1), 1, 0),
        (0, 1, g(2, -3), 1, g(1, 1)),
    )
    return residues(exact_point_from_x(x, seed=3))


def test_charpoly_matches_reference_with_real_denominators():
    for r, n, seed in [(2, 6, 0), (3, 7, 1), (4, 8, 2)]:
        psi = _rational_field(r, n, seed).psi
        assert any(c.denominator > 1 for row in psi.rows for e in row for c in e.coeffs)
        assert _typed(poly_matrix_charpoly(psi)) == _typed(_charpoly_reference(psi))


def test_charpoly_matches_reference_on_gaussian_psi():
    psi = _gaussian_field().psi
    assert any(isinstance(c, GaussianRational) for row in psi.rows for e in row for c in e.coeffs)
    assert _typed(poly_matrix_charpoly(psi)) == _typed(_charpoly_reference(psi))


def test_cleared_traces_match_reference():
    fields = [_rational_field(3, 7, 1), _rational_field(4, 9, 0), _gaussian_field()]
    for field in fields:
        got = [(k, gk, "pole" if err and "pole" in err else "degree" if err else None)
               for k, gk, err in field.cleared_traces]
        assert repr(got) == repr(_cleared_traces_reference(field))
    # the rank-4 field leaves a remainder at the fourth power
    assert fields[1].cleared_traces[-1][2].endswith("higher-order pole at a marked point")


# ---------------------------------------------------------------------------
# vanishing orders

def test_vanishing_order_at_a_half_integer():
    p = poly_from_roots([Fraction(3, 2)] * 3 + [Fraction(-1, 3), 5]) * Fraction(7, 4)
    for a, want in [(Fraction(3, 2), 3), (Fraction(-1, 3), 1), (Fraction(5), 1),
                    (Fraction(5, 2), 0), (Fraction(3), 0)]:
        assert vanishing_order(p, a) == want == _vanishing_order_reference(p, a)


def test_vanishing_order_at_a_gaussian_point():
    # 2z - (1 + i) is not primitive over the Gaussian integers
    a = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    p = poly_from_roots([a, a, Fraction(1, 2)]) * Fraction(3, 2)
    assert vanishing_order(p, a) == 2 == _vanishing_order_reference(p, a)
    assert vanishing_order(p, Fraction(1, 2)) == 1


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
def test_vanishing_order_matches_reference(roots, a, scale):
    p = poly_from_roots(roots) * scale
    assert vanishing_order(p, a) == _vanishing_order_reference(p, a) == roots.count(a)


# ---------------------------------------------------------------------------
# the bracket layer: gradients, brackets, commutation and the kernel identity

def _bracket_outputs(grad, bracket, report, delta, point, zs):
    """Typed reprs of the four bracket functions at one point."""
    z, w = zs
    f, g = BracketObservable(2, z), BracketObservable(point.r, w)
    return _typed_repr((
        grad(point, f),
        grad(point, g),
        bracket(point, f, g),
        bracket(point, g, f),
        report(point),
        delta(point, z, w),
    ))


def _reference_outputs(point, zs):
    return _bracket_outputs(
        _observable_grad_reference, _poisson_bracket_reference,
        _commutation_report_reference, _delta_check_reference, point, zs,
    )


def _outputs(point, zs):
    return _bracket_outputs(
        observable_grad, poisson_bracket, commutation_report, delta_check, point, zs,
    )


_EXACT_SHAPES = [(2, 8), (3, 7), (3, 12), (4, 8), (4, 12), (5, 9), (6, 8), (6, 12)]


def _exact_points():
    g = GaussianRational
    for r, n in _EXACT_SHAPES:
        for seed in range(3):
            yield sample_exact(r, n, seed=seed), (Fraction(2 * n + 1, 2), n + 3)
    yield (
        exact_point_from_x(((g(1, 1), 0, 1, 1, 2), (0, 1, g(1, -1), 2, 1)), seed=0),
        (7, Fraction(-1, 3)),
    )
    # x with denominators and marked points (2i + 1) / 3: every numerator
    # ring carries a denominator
    base = sample_exact(3, 7, seed=1).x
    x = [[v / (i + 2) for i, v in enumerate(row)] for row in base]
    points = [Fraction(2 * i + 1, 3) for i in range(7)]
    yield exact_point_from_x(x, seed=1, marked_points=points), (Fraction(7, 2), Fraction(-5, 4))


def test_bracket_layer_matches_reference_on_exact_points():
    for point, zs in _exact_points():
        assert _outputs(point, zs) == _reference_outputs(point, zs), (point.r, point.n)


def _float_points():
    for r, n in [(2, 5), (3, 7), (4, 8)]:
        for seed in range(2):
            yield solve_real(r, n, (Fraction(1),) * n, seed=seed)
    # marked points (2i + 1) / 3 have no exact float: a float z meets
    # float(p_i), and the rational evaluation points of
    # `commutation_report` keep Fraction weights
    point = solve_real(3, 7, (Fraction(1),) * 7, seed=1)
    yield dataclasses.replace(point, marked_points=tuple(Fraction(2 * i + 1, 3) for i in range(7)))


def test_bracket_layer_matches_reference_bit_for_bit_on_float_points():
    for point in _float_points():
        n = point.n
        for zs in [
            (n + 0.7, n + 2.25),
            (complex(n + 1, 0.5), Fraction(-1, 2)),
            (Fraction(1, 2), Fraction(2 * n + 1, 2)),
        ]:
            assert _outputs(point, zs) == _reference_outputs(point, zs), (point.r, n)


def _map_outcome(base_map, field):
    try:
        return _typed_repr(base_map(field))
    except DegreeOverflowError as exc:
        return f"DegreeOverflowError({exc}, power={exc.power})"


def test_float_hitchin_map_matches_reference_bit_for_bit():
    # against the reference rather than frozen digests: LAPACK rounding
    # differs between machines; at (4, 8) and (4, 9) the map refuses rank 4
    # where the reference's k = 4 fit check raises, and marked points
    # (2i + 1) / 3 make every z - p_j inexact
    for r, n in [(2, 8), (3, 7), (3, 8), (4, 8), (4, 9)]:
        for seed in range(2):
            point = solve_real(r, n, (Fraction(1),) * n, seed=seed)
            thirds = tuple(Fraction(2 * i + 1, 3) for i in range(n))
            for pt in (point, dataclasses.replace(point, marked_points=thirds)):
                field = residues(pt)
                got = _map_outcome(lambda f: hitchin_map(f).g, field)
                want = _map_outcome(_hitchin_map_float_reference, field)
                assert got == want, (r, n, seed, pt.marked_points)
