"""The exact kernels on numerators against Fraction references.

The fiber kernel `quiver._fiber_kernel`, `exact.poly_matrix_charpoly`,
`HiggsField.psi` and `cleared_traces`, `hitchin.higgs_eval` and its
weights, `exact.cleared_vanishing_order` and the bracket layer of `hitchin` clear
denominators once and divide once at the end, or never.  The references
below are the field eliminations, sums and gradients they replaced, kept
here only: with the `DensePoly` division they need, psi built from the
Fraction residues entry by entry, and the full fiber system of n + r^2
rows, whose canonical kernel (`test_linalg`'s Fraction reference) the
seeded fiber vector over its d must combine by value; elsewhere typed
reprs must agree: same values, and the scalar type each value gives (a
GaussianRational exactly where the imaginary part is nonzero, so a
reference's zero-imaginary GaussianRational is spelled as its real
part).  On float points
the bracket layer and `higgs_eval` must give the references' floats bit
for bit, and so must the float `hitchin_map`, which keeps a reference
here too.
"""

import dataclasses
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from hyperpoly import linalg
from hyperpoly.errors import DegreeOverflowError, PoleEvaluationError, TrivialFiberError
from hyperpoly.exact import (
    DensePoly,
    GaussianRational,
    PolyMatrix,
    charpoly_numerators,
    cleared_vanishing_order,
    numerators,
    poly_add,
    poly_from_roots,
    poly_matrix_charpoly,
    ratio,
)
from hyperpoly import QuiverPoint, hitchin
from hyperpoly.hitchin import (
    BracketObservable,
    CommutationReport,
    HiggsField,
    _eval_points,
    _exact_z,
    _float_point,
    _pole_overflow,
    commutation_report,
    delta_check,
    higgs_eval,
    hitchin_map,
    observable_grad,
    poisson_bracket,
    residues,
)
from hyperpoly.linalg import norm_sq
from hyperpoly.quiver import _fiber_kernel, exact_point_from_x, sample_exact, solve_real
from hyperpoly.spectral import order_check, spectral_charpoly, twist

from test_linalg import _kernel, _kernel_reference, _over_d, _reference, gaussian, small

I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# Fraction references

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


def _psi_reference(field):
    """psi from the Fraction residues, each entry cleared on its own over
    the nonzero residues there: the route the residue table replaced."""
    n, r = field.n, field.r
    _, v, cofactors = field._divisor
    rows = []
    for a in range(r):
        row = []
        for b in range(r):
            terms = [(i, m[a][b]) for i, m in enumerate(field.residues) if m[a][b]]
            nums, d = numerators(c for _, c in terms)
            acc: list = []
            for (i, _), c in zip(terms, nums):
                acc = poly_add(acc, [c * q for q in cofactors[i]])
            if len(acc) - 1 > n - 2:
                raise DegreeOverflowError("degree overflow: residues do not sum to zero")
            row.append(DensePoly([ratio(c, d * v) for c in acc], "z"))
        rows.append(row)
    return PolyMatrix(rows, "z")


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
    acc = ((0,) * field.r,) * field.r
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


def _contract_reference(r, n, f, g):
    # the canonical pairing of two flat gradients as a fold that skips a
    # product with a zero factor
    acc = 0
    for i in range(n):
        for a in range(r):
            x, y = a * n + i, r * n + i * r + a
            if f[y] and g[x]:
                acc = acc + f[y] * g[x]
            if f[x] and g[y]:
                acc = acc - f[x] * g[y]
    return acc


def _poisson_bracket_reference(point, f, g):
    field = residues(point)
    return _contract_reference(
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
            val = _contract_reference(r, n, grads[i], grads[j])
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
                    lhs = _contract_reference(r, n, grads_z[(a, b)], grads_w[(c, d)])
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


def _typed_repr(v, by_value=False) -> str:
    """repr with the type of every scalar spelled out, through tuples,
    lists, dicts and dataclasses: 0.0 and -0.0 differ, and so do a float
    and a complex of equal value.  With ``by_value`` a GaussianRational
    with a zero imaginary part is spelled as its real part, the type
    `exact.ratio` gives it: the spelling of a reference that computes in
    whatever type its inputs have."""
    def spell(x):
        return _typed_repr(x, by_value)

    if isinstance(v, (tuple, list)):
        return "(" + ", ".join(map(spell, v)) + ")"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{spell(k)}: {spell(x)}" for k, x in v.items()) + "}"
    if isinstance(v, GaussianRational) and by_value and not v.imag:
        v = v.real
    elif dataclasses.is_dataclass(v):
        return type(v).__name__ + spell([getattr(v, f.name) for f in dataclasses.fields(v)])
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
# the fiber kernel

def _fiber_system(x):
    """The full linear system for y: one row y_i x_i = 0 per edge, then the
    r^2 rows of x y = 0, with int zeros around the entries of x."""
    r, n = len(x), len(x[0])
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
    return tuple(rows)


def test_rref_on_the_sampling_fiber():
    # the system sample_exact solves for y: int zeros around Fraction entries
    rows = _fiber_system(sample_exact(5, 9, seed=0).x)
    assert _kernel(rows) == _reference(rows)


@st.composite
def fiber_xs(draw):
    """r-by-n x, r <= 5 and n <= 12: rational entries with non-unit
    denominators or Gaussian ones, half of them zero, and whole zero
    columns and rows on request."""
    r = draw(st.integers(1, 5))
    n = draw(st.integers(1, 12))
    entry = st.one_of(st.just(Fraction(0)), draw(st.sampled_from([small, gaussian])))
    x = [[draw(entry) for _ in range(n)] for _ in range(r)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        for row in x:
            row[i] = Fraction(0)
    for a in draw(st.lists(st.integers(0, r - 1), max_size=2)):
        x[a] = [Fraction(0)] * n
    return tuple(tuple(row) for row in x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fiber_xs(), st.integers(0, 2**32 - 1))
def test_fiber_kernel_is_the_full_systems_canonical_kernel(x, seed):
    # the kernel on x y = 0 alone, lifted through the edge equations, is the
    # canonical kernel of the full system: the drawn vector is the seeded
    # combination of that basis, in its numerator ring, where a Gaussian d
    # keeps every entry Gaussian, zeros included
    r, n = len(x), len(x[0])
    basis = _kernel_reference(_fiber_system(x))
    if not basis:
        with pytest.raises(TrivialFiberError):
            _fiber_kernel(x, r, n, random.Random(seed))
        return
    rng = random.Random(seed)
    coeffs = [0]
    while not any(coeffs):
        coeffs = [rng.randint(-5, 5) for _ in basis]
    flat, d = _fiber_kernel(x, r, n, random.Random(seed))
    assert _over_d([flat], d)[0] == tuple(sum(c * v for c, v in zip(coeffs, col)) for col in zip(*basis))
    ring = GaussianRational if isinstance(d, GaussianRational) else int
    assert type(d) is ring and all(type(v) is ring for v in flat)


def _mat_mul_reference(a, b):
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
        for row in a
    )


def _bits(v):
    # a float or complex as its IEEE bits, the sign of a zero and a nan's
    # payload included; any other scalar as its type and value
    if isinstance(v, float):
        return struct.pack("<d", v)
    if isinstance(v, complex):
        return struct.pack("<dd", v.real, v.imag)
    if isinstance(v, DensePoly):
        return DensePoly, v.var, [_bits(c) for c in v.coeffs]
    return type(v), v


def _mat_bits(m):
    return [_bits(v) for row in m for v in row]


_SPECIAL_FLOATS = (0.0, -0.0, 1.0, -2.5, 1e-310, 1e300, -1e300, math.inf, -math.inf, math.nan)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_mat_mul_keeps_the_bits_of_the_generator_sum(data):
    real = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(-1e3, 1e3))
    entry = data.draw(st.sampled_from([
        real, st.builds(complex, real, real),
        st.one_of(real, st.builds(complex, real, real)),
    ]))
    p, q, s = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = tuple(tuple(data.draw(entry) for _ in range(q)) for _ in range(p))
    b = tuple(tuple(data.draw(entry) for _ in range(s)) for _ in range(q))
    assert _mat_bits(linalg.mat_mul(a, b)) == _mat_bits(_mat_mul_reference(a, b))


def test_mat_mul_keeps_exact_values_and_types():
    f, g = Fraction(1, 3), GaussianRational(Fraction(1, 2), -2)
    z = DensePoly((Fraction(1, 2), 1), "z")
    cases = [
        (((f, 2), (0, Fraction(-3, 4))), ((1, f), (f, Fraction(5)))),
        (((g, f), (0, GaussianRational(0, 1))), ((f, g), (3, 0))),
        (((z, 1), (DensePoly((), "z"), z * z)), ((z, f), (g, z))),
        (((0, 0),), ((0,), (0,))),
    ]
    for a, b in cases:
        assert _mat_bits(linalg.mat_mul(a, b)) == _mat_bits(_mat_mul_reference(a, b))


def test_mat_pow_is_repeated_mat_mul():
    a = ((Fraction(1, 2), 2, 0), (GaussianRational(0, 1), Fraction(-3), 1), (0, Fraction(1, 3), 5))
    want = linalg.identity(3)
    for k in range(8):
        assert linalg.mat_pow(a, k) == want
        want = linalg.mat_mul(want, a)


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
    for r, n, seed in [(2, 6, 0), (3, 7, 1), (4, 8, 2), (5, 10, 0), (6, 8, 1)]:
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


def _typed_fields():
    """Exact fields of every kind: from sampled, Gaussian, JSON round-tripped
    Gaussian and (2i + 1) / 3 points, the same residues as a field built
    directly, a direct field whose residues are a seeded mix of Fractions
    and GaussianRationals of the same values, zeros included, one whose
    only GaussianRationals are zeros, and one with every residue times i:
    its psi is complex in every coefficient that is not zero."""
    # ranks up to 4: the kernels are rank-blind, the references slow
    points = [point for point, _ in _exact_points() if point.r <= 4]
    points.append(QuiverPoint.loads(next(
        p for p in points if isinstance(p.x[0][0], GaussianRational)
    ).dumps()))
    for point in points:
        field = residues(point)
        yield field
        yield HiggsField(field.residues, field.marked_points, field.flavor)
        rng = random.Random(repr(point.x))
        mixed = tuple(
            tuple(tuple(
                GaussianRational(v) if type(v) is Fraction and rng.random() < 0.3 else v
                for v in row) for row in m)
            for m in field.residues
        )
        yield HiggsField(mixed, field.marked_points, field.flavor)
        zeros = tuple(
            tuple(tuple(v or GaussianRational() for v in row) for row in m) for m in field.residues
        )
        yield HiggsField(zeros, field.marked_points, field.flavor)
        turned = tuple(
            tuple(tuple(v * I for v in row) for row in m) for m in field.residues
        )
        yield HiggsField(turned, field.marked_points, field.flavor)


def _psi_rows(psi):
    return [[e.coeffs for e in row] for row in psi.rows]


def test_psi_and_cleared_traces_match_the_fraction_route():
    # the table's psi has the Fraction route's coefficients, entry by entry,
    # each typed by its value; its seeded charpoly and the cleared traces
    # from its numerators are the ones the Fraction psi's own numerators give
    kinds = set()
    for field in _typed_fields():
        want = _psi_reference(field)
        assert _typed_repr(_psi_rows(field.psi)) == _typed_repr(_psi_rows(want), by_value=True)
        assert _typed(poly_matrix_charpoly(field.psi)) == _typed(poly_matrix_charpoly(want))
        ref = HiggsField(field.residues, field.marked_points, field.flavor)
        object.__setattr__(ref, "_charpoly", charpoly_numerators(want))
        assert _typed_repr(field.cleared_traces) == _typed_repr(ref.cleared_traces, by_value=True)
        kinds.add(tuple(sorted({type(c).__name__ for row in _psi_rows(want) for e in row for c in e})))
    # real, complex and mixed psi all occur
    assert {("Fraction",), ("GaussianRational",), ("Fraction", "GaussianRational")} <= kinds


def test_exact_higgs_eval_matches_the_fraction_sums():
    # values of the sum of Fraction matrices, each typed by its value, at
    # rational, Gaussian and float z
    for field in _typed_fields():
        top = max(field.marked_points)
        for z in (top + Fraction(1, 2), Fraction(-5, 4), GaussianRational(1, 2), 0.75, 3):
            if z in field.marked_points:
                continue
            got = higgs_eval(field, z)
            want = _typed_repr(_higgs_eval_reference(field, z), by_value=True)
            assert _typed_repr(got) == want, z


def _exact_weights_reference(marked, z):
    # the Fraction weights 1 / (z - p_i) and their numerators
    ws = []
    for i, p in enumerate(marked):
        if z == p:
            raise PoleEvaluationError(f"evaluation at pole p_{i + 1} = {p}")
        ws.append(1 / (z - p))
    return numerators(ws)


def _weights_outcome(weights, *args):
    try:
        return repr(weights(*args))
    except PoleEvaluationError as e:
        return "pole", str(e)


@pytest.mark.parametrize("marked", [
    tuple(Fraction(i) for i in range(1, 13)),
    tuple(Fraction(2 * i + 1, 3) for i in range(7)),
    (Fraction(-5, 2), Fraction(3), Fraction(-7), Fraction(1, 4), Fraction(0), Fraction(9, 5)),
    (4, -2, Fraction(-13, 6)),
])
def test_exact_weights_are_the_fraction_weights(marked):
    # integer weights at a rational z, the Fraction route at a Gaussian
    # one, and at every pole the same message
    field = HiggsField((), marked, "exact")  # the weights read only its marked points
    zs = [Fraction(27, 2), Fraction(-3, 2), Fraction(20), Fraction(-4), Fraction(5, 7),
          GaussianRational(Fraction(1, 2), 1), GaussianRational(3), *marked]
    for z in zs:
        got = _weights_outcome(hitchin._weights, field, z)
        assert got == _weights_outcome(_exact_weights_reference, marked, z), z


# ---------------------------------------------------------------------------
# vanishing orders

def test_vanishing_order_at_a_half_integer():
    p = poly_from_roots([Fraction(3, 2)] * 3 + [Fraction(-1, 3), 5]) * Fraction(7, 4)
    for a, want in [(Fraction(3, 2), 3), (Fraction(-1, 3), 1), (Fraction(5), 1),
                    (Fraction(5, 2), 0), (Fraction(3), 0)]:
        got = cleared_vanishing_order(numerators(p.coeffs)[0], a)
        assert got == want == _vanishing_order_reference(p, a)


def test_vanishing_order_at_a_gaussian_point():
    # 2z - (1 + i) is not primitive over the Gaussian integers
    a = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    p = poly_from_roots([a, a, Fraction(1, 2)]) * Fraction(3, 2)
    nums, _ = numerators(p.coeffs)
    assert cleared_vanishing_order(nums, a) == 2 == _vanishing_order_reference(p, a)
    assert cleared_vanishing_order(nums, Fraction(1, 2)) == 1


def test_order_check_matches_reference_orders():
    # order_check clears each c_i once for all points: its orders are the
    # reference's, at the marked points and off them
    for field in [_rational_field(3, 7, 1), _gaussian_field()]:
        cp = spectral_charpoly(twist(field))
        points = list(field.marked_points) + [Fraction(1, 2), GaussianRational(1, 1)]
        got = [(i, p, order) for i, p, order, _, _ in order_check(cp, points).rows]
        assert got == [
            (i, p, _vanishing_order_reference(cp.c[i], p))
            for i in range(2, cp.r + 1)
            for p in points
        ]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
)
def test_vanishing_order_matches_reference(roots, a, scale):
    p = poly_from_roots(roots) * scale
    got = cleared_vanishing_order(numerators(p.coeffs)[0], a)
    assert got == _vanishing_order_reference(p, a) == roots.count(a)


# ---------------------------------------------------------------------------
# the bracket layer: gradients, brackets, commutation and the kernel identity

def _bracket_outputs(grad, bracket, report, delta, point, zs, by_value=False):
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
    ), by_value)


def _reference_outputs(point, zs):
    return _bracket_outputs(
        _observable_grad_reference, _poisson_bracket_reference,
        _commutation_report_reference, _delta_check_reference, point, zs, by_value=True,
    )


def _outputs(point, zs):
    return _bracket_outputs(
        observable_grad, poisson_bracket, commutation_report, delta_check, point, zs,
    )


# (2, 8) at seed 2 has a zero x column 8 and y_7 = 0, so zero factors
# meet the pairings' skip order
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


def _residues_reference(point):
    return HiggsField(
        tuple(point.residue(i) for i in range(point.n)), point.marked_points, point.flavor
    )


def test_residues_match_reference_on_exact_points():
    # residues are read off the cleared x and y of the moment check; after a
    # JSON round trip the Gaussian point has rational entries beside
    # Gaussian ones, and every residue entry is typed by its value; a
    # float point's residues are the bits of its outer products
    points = [point for point, _ in _exact_points()]
    gaussian = next(p for p in points if isinstance(p.x[0][0], GaussianRational))
    mixed = QuiverPoint.loads(gaussian.dumps())
    assert any(
        type(mixed.x[a][i]) is type(mixed.y[i][b]) is Fraction
        for i in range(mixed.n) for a in range(mixed.r) for b in range(mixed.r)
    )
    for point in points + [mixed] + list(_float_points()):
        assert _typed_repr(residues(point)) == _typed_repr(_residues_reference(point), by_value=True)


def test_commutation_report_builds_phi_once_per_evaluation_point(monkeypatch):
    # three evaluation points and the powers m = 2, 3, 4 at rank 4: the
    # weights and phi(z0) are cleared 3 times, not once per (m, z0)
    calls = []
    weights = hitchin._weights
    monkeypatch.setattr(
        hitchin, "_weights", lambda *args: calls.append(args[2:]) or weights(*args)
    )
    exact, floats = sample_exact(4, 8, seed=0), solve_real(4, 8, (Fraction(1),) * 8, seed=0)
    commutation_report(exact)
    # the exact weights m / (z0 - p_i) are m W_i over dw: no second pass
    assert calls == [()] * 3
    calls.clear()
    commutation_report(floats)
    # a float point computes m / (z0 - p_i) itself, once per (m, z0)
    assert calls.count(()) == 3 and len(calls) == 12


def _float_points():
    for r, n in [(2, 5), (3, 7), (4, 8)]:
        for seed in range(2):
            yield solve_real(r, n, (Fraction(1),) * n, seed=seed)
    # marked points (2i + 1) / 3 have no exact float: a float z meets
    # float(p_i), and the rational evaluation points of
    # `commutation_report` keep Fraction weights
    point = solve_real(3, 7, (Fraction(1),) * 7, seed=1)
    yield dataclasses.replace(point, marked_points=tuple(Fraction(2 * i + 1, 3) for i in range(7)))
    # complex entries with a zero x column and a zero y row
    yield _float_point(sample_exact(2, 8, seed=2))
    # float entries beside complex ones: a rational 1 / (w - z) in
    # delta_check meets both kinds as its float
    g = GaussianRational
    point = exact_point_from_x(((g(1, 1), 0, 1, 1, 2), (0, 1, g(1, -1), 2, 1)), seed=0)
    yield dataclasses.replace(
        point, flavor="float",
        x=tuple(tuple(complex(v) if v.imag else float(v) for v in row) for row in point.x),
        y=tuple(tuple(complex(v) if v.imag else float(v) for v in row) for row in point.y),
    )
    # real float entries: their sums take sum()'s float path, whose bits are
    # those of the left-to-right additions of the references on
    # CPython 3.11 and earlier only
    point = sample_exact(3, 7, seed=0)
    yield dataclasses.replace(
        point, flavor="float",
        x=tuple(tuple(map(float, row)) for row in point.x),
        y=tuple(tuple(map(float, row)) for row in point.y),
    )


def test_bracket_layer_matches_reference_bit_for_bit_on_float_points():
    for point in _float_points():
        n = point.n
        for zs in [
            (n + 0.7, n + 2.25),
            (complex(n + 1, 0.5), Fraction(-1, 2)),
            (Fraction(1, 2), Fraction(2 * n + 1, 2)),
        ]:
            assert _outputs(point, zs) == _reference_outputs(point, zs), (point.r, n)


def test_float_higgs_eval_matches_the_fold_of_matrix_sums_bit_for_bit():
    for point in _float_points():
        n = point.n
        field = residues(point)
        direct = HiggsField(field.residues, field.marked_points, field.flavor)
        for z in (n + 0.7, complex(n + 1, 0.5), Fraction(1, 2), Fraction(2 * n + 1, 2)):
            want = _typed_repr(_higgs_eval_reference(field, z))
            assert _typed_repr(higgs_eval(field, z)) == want == _typed_repr(higgs_eval(direct, z))


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
