import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import quiver
from hyperpoly.errors import (
    LevelSetError,
    NonConvergenceError,
    NotMinimalOrbitError,
    TrivialFiberError,
    ValidationError,
    ZeroMatrixError,
)
from hyperpoly.exact import GaussianRational
from hyperpoly.linalg import exact_rank
from hyperpoly.quiver import (
    QuiverPoint,
    exact_point_from_x,
    min_orbit_check,
    min_orbit_factor,
    moment_residual,
    polygon_edges,
    sample_exact,
    solve_real,
)

from conftest import X24, Y24


def test_canonical_kernel_vector(point24):
    assert point24.y == Y24
    assert point24.flavor == "exact"
    assert point24.marked_points == tuple(Fraction(k) for k in range(1, 5))


def test_exact_point_complex_moment_zero(point24):
    res = moment_residual(point24)
    assert res.complex_norm == 0
    assert all(s == 0 for _, s in res.per_edge)


@pytest.mark.parametrize(
    "r,n,dim", [(2, 5, 2), (3, 6, 4), (3, 7, 6), (4, 8, 9), (5, 9, 12)]
)
def test_fiber_dimension(r, n, dim):
    # kernel of the complex moment equations at a generic full-rank x
    assert n * r - n - r * r + 1 == dim
    pt = sample_exact(r, n, seed=0)
    assert moment_residual(pt, alpha=[1] * n).complex_norm == 0


def test_trivial_fiber_raises():
    with pytest.raises(TrivialFiberError):
        sample_exact(2, 3, seed=0)


def test_sample_exact_determinism():
    a = sample_exact(3, 6, seed=7)
    b = sample_exact(3, 6, seed=7)
    c = sample_exact(3, 6, seed=8)
    assert a == b
    assert a != c


def test_sample_exact_full_rank():
    for seed in range(5):
        pt = sample_exact(3, 7, seed=seed)
        assert exact_rank([list(row) for row in pt.x]) == 3


def test_residue_is_outer_product(point24):
    m = point24.residue(2)
    x2 = point24.x_col(2)
    y2 = point24.y[2]
    for a in range(2):
        for b in range(2):
            assert m[a][b] == x2[a] * y2[b]


# ---------------------------------------------------------------------------
# serialization

def test_json_roundtrip_exact(point24):
    text = point24.dumps()
    back = QuiverPoint.loads(text)
    assert back == point24
    assert back.dumps() == text


def test_json_roundtrip_float(solved):
    pt = solved(2, 4, alpha=[1, 1, 1, 2])
    back = QuiverPoint.loads(pt.dumps())
    assert back.flavor == "float"
    assert back.dumps() == pt.dumps()


def test_json_rejects_garbage():
    with pytest.raises((KeyError, TypeError, ValueError)):
        QuiverPoint.loads(json.dumps({"r": 2}))


def test_point_shape_validation():
    with pytest.raises((ValidationError, ValueError)):
        QuiverPoint(
            r=2, n=3, flavor="exact",
            x=((Fraction(1),),), y=((Fraction(0), Fraction(0)),),
        )


# ---------------------------------------------------------------------------
# numerical solver

def test_solve_real_hits_tolerance(solved):
    pt = solved(2, 4, alpha=[1, 1, 1, 2])
    res = moment_residual(pt, alpha=[1, 1, 1, 2])
    assert math.sqrt(res.real_norm + res.complex_norm) < 1e-9


def test_solve_real_determinism():
    a = solve_real(2, 4, (1, 1, 1, 2), seed=3)
    b = solve_real(2, 4, (1, 1, 1, 2), seed=3)
    assert a.dumps() == b.dumps()


def test_solve_real_off_zero_section(solved):
    pt = solved(2, 5)
    ynorm = sum(abs(v) ** 2 for row in pt.y for v in row)
    assert ynorm > 0.01


def test_solve_real_nonconvergence():
    with pytest.raises(NonConvergenceError) as exc:
        solve_real(2, 4, (1, 1, 1, 2), tol=1e-30, max_iter=4, restarts=2)
    assert exc.value.best_residual > 0


def test_solve_real_validation():
    with pytest.raises(ValueError):
        solve_real(2, 4, (1, 1, 1))
    with pytest.raises(ValueError):
        solve_real(2, 4, (1, 1, 1, -1))


def test_solve_real_rejects_alpha_outside_the_float_range():
    with pytest.raises(ValueError, match="entry 3 is outside the float range"):
        solve_real(2, 4, (1, 1, Fraction(10) ** 400, 1))


def test_solve_real_rejects_alpha_sum_outside_the_float_range():
    # each entry fits a float, their sum does not
    with pytest.raises(ValueError, match="sum is outside the float range"):
        solve_real(2, 4, (Fraction(10) ** 308,) * 4)


JACOBIAN_LEVELS = [(1, 3), (2, 5), (3, 7), (4, 8), (5, 9), (3, 30)]


def _central_difference_jacobian(theta, r, n):
    # the residual is quadratic, so a unit central step is exact up to rounding
    avec = np.arange(1.0, n + 1)
    center = avec.sum() / r

    def residual(t):
        return quiver._residual_batch(*quiver._unpack(t, r, n), avec, center)

    return np.column_stack(
        [(residual(theta + e) - residual(theta - e)) / 2 for e in np.eye(theta.size)]
    )


@pytest.mark.parametrize("r,n", JACOBIAN_LEVELS)
def test_exact_jacobian_matches_central_differences(r, n):
    theta = np.random.default_rng([r, n]).standard_normal(4 * r * n)
    got = quiver._jacobian(theta, r, n)
    ref = _central_difference_jacobian(theta, r, n)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("r,n", JACOBIAN_LEVELS)
def test_exact_jacobian_is_linear(r, n):
    t1, t2 = np.random.default_rng([r, n, 1]).standard_normal((2, 4 * r * n))
    jac = quiver._jacobian(t1 + t2, r, n)
    parts = quiver._jacobian(t1, r, n) + quiver._jacobian(t2, r, n)
    assert np.max(np.abs(jac - parts)) <= 1e-12


@pytest.mark.parametrize("r,n", [(2, 14), (3, 14), (5, 9), (3, 30)])
def test_solve_real_converges_on_ten_seeds(r, n):
    alpha = (Fraction(1),) * n
    for seed in range(10):
        pt = solve_real(r, n, alpha, seed=seed)
        res = moment_residual(pt, alpha=alpha)
        assert math.sqrt(res.real_norm + res.complex_norm) < 1e-9, seed


# ---------------------------------------------------------------------------
# polygon-space shadow

def test_polygon_edges_exact_norms():
    # scaled 2x4 sample satisfying the real equation exactly:
    # columns of x orthogonal rows scaled so xx* = (sum alpha / r) I
    x = (
        (Fraction(1), Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1), Fraction(0)),
    )
    alpha = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    edges = polygon_edges(x, alpha)
    assert edges.closure_sq == 0
    assert edges.norms_sq == tuple(
        (1 - Fraction(1, 2)) * a * a for a in alpha
    )


def test_polygon_edges_rejects_wrong_level():
    x = (
        (Fraction(2), Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1), Fraction(0)),
    )
    with pytest.raises(LevelSetError):
        polygon_edges(x, (Fraction(1),) * 4)


def test_polygon_edges_float():
    # float copy of the exact configuration above; y = 0 here, so the pure
    # polygon equations hold (a hyperpolygon solver point would not pass)
    x = ((1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.0))
    edges = polygon_edges(x, (1, 1, 1, 1), tol=1e-9)
    assert float(edges.closure_sq) < 1e-14
    for nsq in edges.norms_sq:
        assert abs(float(nsq) - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# minimal-orbit membership

def test_min_orbit_exact():
    ok = ((Fraction(2), Fraction(-2)), (Fraction(2), Fraction(-2)))
    assert min_orbit_check(ok) is True
    bad_trace = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert min_orbit_check(bad_trace) is False
    zero = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    assert min_orbit_check(zero) is True


rat9 = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda r: st.tuples(
            st.lists(rat9, min_size=r, max_size=r),
            st.lists(rat9, min_size=r, max_size=r),
        )
    )
)
def test_min_orbit_factor_roundtrip(xy):
    xs, ys = xy
    # force tracelessness: y orthogonal to x
    dot = sum(a * b for a, b in zip(xs, ys))
    if dot != 0:
        if xs[0] == 0:
            return
        correction = dot / xs[0]
        ys = [ys[0]] + list(ys[1:])
        xs = list(xs)
        # subtract along the first coordinate instead: adjust y_0
        ys[0] = ys[0] - correction
    m = [[a * b for b in ys] for a in xs]
    if all(all(v == 0 for v in row) for row in m):
        with pytest.raises(ZeroMatrixError):
            min_orbit_factor(m)
        return
    xv, yv = min_orbit_factor(m)
    rebuilt = [[a * b for b in yv] for a in xv]
    assert rebuilt == [list(row) for row in m]


def test_min_orbit_factor_rejects_rank2():
    m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    with pytest.raises(NotMinimalOrbitError):
        min_orbit_factor(m)


def test_min_orbit_float():
    m = [[0.5, -0.5], [0.5, -0.5]]
    assert min_orbit_check(m) is True
    x, y = min_orbit_factor(m)
    for a in range(2):
        for b in range(2):
            assert abs(x[a] * y[b] - m[a][b]) < 1e-12


def test_min_orbit_gaussian_entries():
    i = GaussianRational(0, 1)
    m = [[i, Fraction(1)], [Fraction(1), -i]]
    # trace zero, det = -i*i - 1 = 0, rank 1
    assert min_orbit_check(m) is True
