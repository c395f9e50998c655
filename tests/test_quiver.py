import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import floating
from hyperpoly.errors import NonConvergenceError, TrivialFiberError, ValidationError
from hyperpoly.exact import GaussianRational
from hyperpoly.linalg import exact_rank
from hyperpoly.quiver import (
    QuiverPoint,
    exact_point_from_x,
    min_orbit_check,
    moment_residual,
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


# sha256 of the dumps of seeds 0-5 concatenated, one digest per level: the
# exact-pipeline grid plus ranks 5 and 6, recorded before y was combined on
# the integer kernel numerators
_SAMPLE_DIGESTS = {
    (2, 8): "5ed4accd4fca5116a3822d5096c6d1318efd66fdd9d7798a47580df7dac0bca2",
    (3, 7): "6d7b27bf59264ee0f0e747db6f543fa52fd601ea620630d21dd4a4c59d145b1c",
    (3, 12): "c9ea4ba3b1cebc1d9730ab8816327d62cd5b0e18c16b1dd6037b1fc8dd3876d6",
    (4, 8): "60f5494149907919bbbdb40e65731938b47e4cd351448a56eeabd955a81d0d1f",
    (4, 12): "8ba7eab811d5ff1e218718fc16d4912c8669f63104fb555c0c92362086322353",
    (3, 20): "c6e1d874828183e86da7637fbe78682a91318b85983accea0d0a60ac0a824891",
    (4, 16): "452d49e14d3908fd673982ec3c9c5e22b95b50c709a05cf2c1b4c07097f7521f",
    (5, 9): "a27afdbddd0f46ad22c9998cc94a04147d80dc07553acfe7221abaed6590fdfc",
    (6, 8): "edbfc47c88ddbd310070e1a69097ea4b5bff8ed8c52b9cc731b47d167c65699e",
    (6, 12): "44aeeba174ac9e53366d763f147c6712083edad64f6035cda04b0da218c9cb89",
    # recorded before the fiber kernel was solved on x y = 0 alone
    (3, 30): "63e5b2da567f27a0a43925a4f5d2af225392309ab8a50d8429dfcb0ffbed25c6",
    (4, 30): "da22530998983179f5d2f1f745bf4fad9330d7d25210f3097d2edbef468e4282",
}


def _digest(points) -> str:
    h = hashlib.sha256()
    for pt in points:
        h.update(pt.dumps().encode())
    return h.hexdigest()


@pytest.mark.parametrize("r,n", sorted(_SAMPLE_DIGESTS))
def test_sample_exact_outputs_are_frozen(r, n):
    assert _digest(sample_exact(r, n, seed) for seed in range(6)) == _SAMPLE_DIGESTS[(r, n)]


_G = GaussianRational
# x with Gaussian, int and non-integral Fraction entries: the kernel
# numerators are Gaussian integers and y is divided once per entry
X_MIXED = (
    (_G(1, 2), 0, 1, _G(0, -1), 3, Fraction(2, 3)),
    (2, _G(Fraction(1, 2), 1), _G(-1, 1), 1, 0, Fraction(-5, 4)),
    (0, 1, _G(2, -3), 1, _G(1, 1), 7),
)
# real x with denominators: y is scaled straight to its primitive vector
X_RATIONAL = (
    (Fraction(1, 2), 3, Fraction(-2, 3), 0, 5, Fraction(7, 5), 1),
    (2, Fraction(-1, 4), 1, Fraction(3, 7), 0, -1, Fraction(1, 6)),
    (0, 1, Fraction(5, 2), -3, Fraction(2, 9), 4, 1),
)


@pytest.mark.parametrize("x,digest", [
    (X_MIXED, "6358d41dde656db450cb7237fcff2de4a3b84a56ebae5f02905e83faa9f856d5"),
    (X_RATIONAL, "a7ffdc3af2a63d501bb0c2a29e9c0a1087c630d2f458f73f8d6d10dce75c1868"),
], ids=["gaussian", "rational"])
def test_exact_point_from_x_outputs_are_frozen(x, digest):
    points = [exact_point_from_x(x, seed=seed) for seed in range(6)]
    assert _digest(points) == digest
    for pt in points:
        assert moment_residual(pt, alpha=[1] * pt.n).complex_norm == 0


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


def test_solve_real_names_a_negative_seed():
    # numpy's seed sequence would reject it without naming the seed
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        solve_real(2, 4, (1, 1, 1, 1), seed=-1)


JACOBIAN_LEVELS = [(1, 3), (2, 5), (3, 7), (4, 8), (5, 9), (3, 30)]


def _moment_residual_reference(theta, r, n):
    # the moment equations at alpha = 1..n written out with numpy, block by
    # block: Re and Im of x x^* - y^* y - center Id, the edge lengths
    # |x_i|^2 - |y_i|^2 - alpha_i, Re and Im of x y, Re and Im of y_i x_i
    avec = np.arange(1.0, n + 1)
    center = avec.sum() / r
    x, y = floating._unpack(theta, r, n)
    real_mat = x @ x.conj().T - y.conj().T @ y - center * np.eye(r)
    lengths = (
        np.sum(np.abs(x) ** 2, axis=0) - np.sum(np.abs(y) ** 2, axis=1) - avec
    )
    cplx_mat = x @ y
    scalars = np.einsum("ia,ai->i", y, x)
    return np.concatenate([
        real_mat.real.ravel(),
        real_mat.imag.ravel(),
        lengths,
        cplx_mat.real.ravel(),
        cplx_mat.imag.ravel(),
        scalars.real,
        scalars.imag,
    ])


def _central_difference_jacobian(theta, r, n):
    # the residual is quadratic, so a unit central step is exact up to rounding
    def residual(t):
        return _moment_residual_reference(t, r, n)

    return np.column_stack(
        [(residual(theta + e) - residual(theta - e)) / 2 for e in np.eye(theta.size)]
    )


@pytest.mark.parametrize("r,n", JACOBIAN_LEVELS)
def test_exact_jacobian_matches_central_differences(r, n):
    theta = np.random.default_rng([r, n]).standard_normal(4 * r * n)
    got = floating._jacobian(theta, r, n)
    ref = _central_difference_jacobian(theta, r, n)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("r,n", JACOBIAN_LEVELS)
def test_residual_is_half_jacobian_times_theta(r, n):
    # every entry is a quadratic form minus a constant, the constants being
    # center on the diagonal of the Re(x x^* - y^* y) block and alpha_i in
    # the length block, so Euler's identity gives r = J theta / 2 - ell
    theta = np.random.default_rng([r, n, 2]).standard_normal(4 * r * n)
    ell = np.zeros(4 * r * r + 3 * n)
    ell[: r * r : r + 1] = n * (n + 1) / 2 / r
    ell[2 * r * r : 2 * r * r + n] = np.arange(1.0, n + 1)
    got = floating._jacobian(theta, r, n) @ theta / 2 - ell
    ref = _moment_residual_reference(theta, r, n)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("r,n", JACOBIAN_LEVELS)
def test_exact_jacobian_is_linear(r, n):
    t1, t2 = np.random.default_rng([r, n, 1]).standard_normal((2, 4 * r * n))
    jac = floating._jacobian(t1 + t2, r, n)
    parts = floating._jacobian(t1, r, n) + floating._jacobian(t2, r, n)
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

# with y = 0 the real moment equation is the polygon one: x x* = (|alpha| / r) Id
# and each column of x (an edge) has squared length alpha_i; the 2x4 x below,
# with alpha = 1^4, lies on that level set

_POLYGON_X = (
    (Fraction(1), Fraction(0), Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(1), Fraction(1), Fraction(0)),
)


def _real_norm_at_zero_y(x, flavor):
    y = ((0, 0),) * 4 if flavor == "exact" else ((0.0, 0.0),) * 4
    pt = QuiverPoint(r=2, n=4, flavor=flavor, x=x, y=y)
    return moment_residual(pt, alpha=(1, 1, 1, 1)).real_norm


def test_polygon_edges_exact_norms():
    assert _real_norm_at_zero_y(_POLYGON_X, "exact") == 0


def test_polygon_edges_rejects_wrong_level():
    wrong_level = ((Fraction(2),) + _POLYGON_X[0][1:], _POLYGON_X[1])
    assert _real_norm_at_zero_y(wrong_level, "exact") > 0


def test_polygon_edges_float():
    x = tuple(tuple(float(v) for v in row) for row in _POLYGON_X)
    assert _real_norm_at_zero_y(x, "float") < 1e-14


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
def test_min_orbit_check_on_traceless_outer_products(xy):
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
    # a rank <= 1 square-zero matrix, the zero matrix included
    m = [[a * b for b in ys] for a in xs]
    assert min_orbit_check(m) is True


def test_min_orbit_factor_rejects_rank2():
    # traceless, but its square is the identity: rank 2, not x_i y_i
    m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    assert min_orbit_check(m) is False


def test_min_orbit_float():
    m = [[0.5, -0.5], [0.5, -0.5]]
    assert min_orbit_check(m) is True


def test_min_orbit_gaussian_entries():
    i = GaussianRational(0, 1)
    m = [[i, Fraction(1)], [Fraction(1), -i]]
    # trace zero, det = -i*i - 1 = 0, rank 1
    assert min_orbit_check(m) is True
