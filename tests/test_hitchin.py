import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import exact, hitchin, spectral
from hyperpoly.errors import (
    DegreeOverflowError,
    MomentMapError,
    PoleEvaluationError,
)
from hyperpoly.hitchin import (
    BracketObservable,
    HiggsField,
    commutation_report,
    delta_check,
    higgs_eval,
    hitchin_map,
    jacobian_rank,
    observable_grad,
    poisson_bracket,
    residues,
)
from hyperpoly.exact import GaussianRational
from hyperpoly.quiver import QuiverPoint, sample_exact
from hyperpoly.spectral import order_check, spectral_charpoly, trace_consistency, twist

from conftest import X24


def _float_copy(point):
    return QuiverPoint(
        r=point.r,
        n=point.n,
        flavor="float",
        x=tuple(tuple(complex(v) for v in row) for row in point.x),
        y=tuple(tuple(complex(v) for v in row) for row in point.y),
        alpha=point.alpha,
        marked_points=point.marked_points,
    )


def test_residues_builds_field(point24):
    field = residues(point24)
    assert field.r == 2 and field.n == 4
    assert len(field.residues) == 4
    total = [[sum(field.residues[i][a][b] for i in range(4)) for b in range(2)] for a in range(2)]
    assert all(v == 0 for row in total for v in row)


def test_residues_rejects_edge_violation(point24):
    y = [list(row) for row in point24.y]
    y[2][0] += 1
    bad = QuiverPoint(
        r=2, n=4, flavor="exact", x=point24.x,
        y=tuple(tuple(row) for row in y),
        alpha=point24.alpha, marked_points=point24.marked_points,
    )
    with pytest.raises(MomentMapError) as exc:
        residues(bad)
    assert exc.value.edge == 3


def _off_fiber_points(gaussian):
    # on X24: y_3 x_3 = 1 at one edge only, and y_i drawn from x_i^perp,
    # so every y_i x_i vanishes but sum_i x_i y_i = ((-3, 3), (-6, 3));
    # the Gaussian copies scale x by 1 + 2i and y by i / 3
    sx, sy = (GaussianRational(1, 2), GaussianRational(0, Fraction(1, 3))) if gaussian else (1, 1)
    x = tuple(tuple(Fraction(v) * sx for v in row) for row in X24)
    edge = ((0, 1), (2, 0), (3, -2), (-2, 1))
    perp = ((0, 1), (-1, 0), (-1, 1), (-2, 1))
    return [
        (QuiverPoint(r=2, n=4, flavor="exact", x=x,
                     y=tuple(tuple(Fraction(v) * sy for v in row) for row in y)), message, at)
        for y, message, at in [
            (edge, "complex moment map violated: y_i x_i != 0 at edge 3", 3),
            (perp, "complex moment map violated: residues do not sum to zero", None),
        ]
    ]


_CHECKED_CALLS = {
    "residues": residues,
    "commutation_report": commutation_report,
    "delta_check": lambda pt: delta_check(pt, Fraction(11, 2), 7),
    "poisson_bracket": lambda pt: poisson_bracket(
        pt, BracketObservable(2, 6), BracketObservable(2, 7)
    ),
    "observable_grad": lambda pt: observable_grad(pt, BracketObservable(2, 6)),
}


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "gaussian"])
@pytest.mark.parametrize("call", sorted(_CHECKED_CALLS))
def test_exact_moment_map_check_is_the_same_everywhere(call, gaussian):
    for pt, message, edge in _off_fiber_points(gaussian):
        with pytest.raises(MomentMapError) as exc:
            _CHECKED_CALLS[call](pt)
        assert str(exc.value) == message
        assert exc.value.edge == edge
        # coincident evaluation points are refused before the point is checked
        with pytest.raises(ValueError, match="coincident evaluation points"):
            delta_check(pt, 7, Fraction(7))


def _residue_sum_off_fiber(scale):
    # y_1 = 3 (-x_21, x_11) keeps y_1 x_1 = 0, but ||sum_i x_i y_i||_F is
    # 1.04 times the largest ||x_i y_i||_F: off the fiber at every scale
    pt = sample_exact(2, 5, seed=0)
    x = [[float(v) * scale for v in row] for row in pt.x]
    y = [[float(v) * scale for v in row] for row in pt.y]
    y[0] = [-3 * x[1][0], 3 * x[0][0]]
    return QuiverPoint(r=2, n=5, flavor="float", x=tuple(map(tuple, x)), y=tuple(map(tuple, y)))


@pytest.mark.parametrize("scale", [1, 100, 1e6])
def test_float_residue_sum_check_is_relative_at_every_scale(scale):
    # the sum check is relative to the entry scale, as the edge check is:
    # scaling the point changes neither verdict
    checked = dict(_CHECKED_CALLS, jacobian_rank=jacobian_rank)
    for call in sorted(checked):
        with pytest.raises(MomentMapError) as exc:
            checked[call](_residue_sum_off_fiber(scale))
        assert str(exc.value) == "complex moment map violated: residues do not sum to zero"
        assert exc.value.edge is None
    pt = sample_exact(2, 5, seed=0)
    on_fiber = dataclasses.replace(
        pt, flavor="float",
        x=tuple(tuple(float(v) * scale for v in row) for row in pt.x),
        y=tuple(tuple(float(v) * scale for v in row) for row in pt.y),
    )
    assert residues(on_fiber).residues == tuple(on_fiber.residue(i) for i in range(5))


def _count_clearings(monkeypatch, pt):
    calls = []
    clear = hitchin._clear
    monkeypatch.setattr(
        hitchin, "_clear", lambda p: calls.append(p is pt) or clear(p)
    )
    return calls


def _reports(pt):
    return (
        residues(pt).residues,
        commutation_report(pt),
        delta_check(pt, Fraction(21, 2), 11.25),
        delta_check(pt, complex(10.5, 0.5), 11.25),
        jacobian_rank(pt),
    )


@pytest.mark.parametrize("flavor", ["exact", "float"])
def test_a_point_is_cleared_once(monkeypatch, flavor):
    pt = sample_exact(3, 7, seed=0)
    if flavor == "float":
        pt = _float_copy(pt)
    calls = _count_clearings(monkeypatch, pt)
    first = _reports(pt)
    assert _reports(pt) == first
    # jacobian_rank on an exact point clears a new float copy at every call
    assert calls.count(True) == 1
    assert len(calls) == (1 if flavor == "float" else 3)


def test_a_point_shares_one_field(monkeypatch):
    # residues returns the field the point keeps, so the base map, the
    # spectral charpoly and the trace tie read one psi and one pass of the
    # factorized charpoly route, whose one scalar Berkowitz pass is the
    # only one
    calls, passes = [], []
    route, berkowitz = hitchin._factored_charpoly, exact.berkowitz
    monkeypatch.setattr(hitchin, "_factored_charpoly", lambda *args: calls.append(1) or route(*args))
    for module in (exact, hitchin, spectral):
        monkeypatch.setattr(module, "berkowitz", lambda a: passes.append(1) or berkowitz(a))
    pt = sample_exact(3, 7, seed=0)
    assert residues(pt) is residues(pt)
    hitchin_map(residues(pt))
    spectral_charpoly(twist(residues(pt)))
    trace_consistency(residues(pt))
    assert len(calls) == len(passes) == 1
    fp = _float_copy(pt)
    assert residues(fp) is residues(fp)


def _edge_one_violation(r, n, flavor):
    # y_1 x_1 = 1 on the first unit vectors; every other y_i x_i vanishes
    unit = tuple(Fraction(int(a == 0)) for a in range(r))
    x = tuple(tuple(unit[a] for _ in range(n)) for a in range(r))
    y = (unit,) + tuple(tuple(Fraction(int(a == 1)) for a in range(r)) for _ in range(n - 1))
    pt = QuiverPoint(r=r, n=n, flavor="exact", x=x, y=y)
    return pt if flavor == "exact" else _float_copy(pt)


@pytest.mark.parametrize("flavor", ["exact", "float"])
def test_a_point_off_the_fiber_raises_at_every_call(monkeypatch, flavor):
    pt = _edge_one_violation(2, 4, flavor)
    calls = _count_clearings(monkeypatch, pt)
    checked = dict(_CHECKED_CALLS, jacobian_rank=jacobian_rank)
    for call in sorted(checked) * 2:
        with pytest.raises(MomentMapError) as exc:
            checked[call](pt)
        assert str(exc.value) == "complex moment map violated: y_i x_i != 0 at edge 1"
        assert exc.value.edge == 1
    # every call checks the point again, but jacobian_rank checks the float
    # copy of an exact point
    assert calls.count(True) == 2 * (len(checked) - (flavor == "exact"))
    # the checks that come before the point's own still come first
    with pytest.raises(ValueError, match="coincident evaluation points"):
        delta_check(pt, 7, Fraction(7))
    low = _edge_one_violation(3, 4, flavor)
    with pytest.raises(ValueError, match=r"dual level \(1, 4\)"):
        jacobian_rank(low)
    with pytest.raises(MomentMapError, match="at edge 1"):
        residues(low)


def test_higgs_eval_pole(point24):
    field = residues(point24)
    with pytest.raises(PoleEvaluationError):
        higgs_eval(field, 2)
    with pytest.raises(PoleEvaluationError):
        higgs_eval(field, Fraction(4))


def test_higgs_eval_float_z_is_exact_on_exact_fields(point24):
    field = residues(point24)
    a = higgs_eval(field, 5.5)
    assert a == higgs_eval(field, Fraction(11, 2))
    assert all(type(v) is Fraction for row in a for v in row)
    with pytest.raises(PoleEvaluationError):
        higgs_eval(field, 3.0)
    # a non-finite z is refused on a float field too: there it would give
    # nan at nan and zero at inf
    for bad in (float("nan"), float("inf"), complex(1, float("nan"))):
        for f in (field, residues(_float_copy(point24))):
            with pytest.raises(ValueError, match="non-finite evaluation point"):
                higgs_eval(f, bad)


def test_higgs_eval_value(point24):
    field = residues(point24)
    a = higgs_eval(field, 5)
    manual = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    for i in range(4):
        res = point24.residue(i)
        for p in range(2):
            for q in range(2):
                manual[p][q] += Fraction(res[p][q], 5 - (i + 1))
    assert [list(row) for row in a] == manual


def test_hitchin_map_fixture(point24):
    base = hitchin_map(residues(point24))
    assert base.g == {2: (Fraction(20),)}
    assert base.dim == 1
    assert base.to_json_dict() == {"g": {"2": ["20/1"]}}


def test_hitchin_map_float_agrees(point24):
    base = hitchin_map(residues(point24))
    fbase = hitchin_map(residues(_float_copy(point24)))
    assert fbase.g.keys() == base.g.keys()
    for k, vec in base.g.items():
        for exact_c, float_c in zip(vec, fbase.g[k]):
            assert abs(complex(float_c) - complex(exact_c)) < 1e-8
    # sampled points carry large coefficients: compare relative to the
    # largest coefficient of each g_k
    for r, n in [(2, 8), (3, 6), (3, 7)]:
        pt = sample_exact(r, n, seed=0)
        base = hitchin_map(residues(pt))
        fbase = hitchin_map(residues(_float_copy(pt)))
        assert fbase.g.keys() == base.g.keys()
        for k, vec in base.g.items():
            scale = max(abs(complex(c)) for c in vec)
            for exact_c, float_c in zip(vec, fbase.g[k]):
                assert abs(complex(float_c) - complex(exact_c)) < 1e-8 * scale


def test_hitchin_map_coefficient_counts():
    pt = sample_exact(3, 7, seed=1)
    base = hitchin_map(residues(pt))
    assert set(base.g) == {2, 3}
    assert len(base.g[2]) <= 7 - 4 + 1
    assert len(base.g[3]) <= 7 - 6 + 1


def test_hitchin_map_overflow_at_rank4():
    # traces of fourth powers acquire higher-order poles; the map is only
    # a clean polynomial family for low rank
    pt = sample_exact(4, 8, seed=0)
    with pytest.raises(DegreeOverflowError) as exc:
        hitchin_map(residues(pt))
    assert exc.value.power == 4


@pytest.mark.parametrize("r,n", [(5, 9), (6, 12)])
def test_exact_chain_at_ranks_5_and_6(r, n):
    # the whole exact chain past the paper's range: brackets and the
    # two-pole kernel vanish, the order bounds hold, the base map overflows
    pt = sample_exact(r, n, seed=0)
    assert commutation_report(pt).all_zero
    assert delta_check(pt, Fraction(1, 2), Fraction(-3, 2)) == 0
    field = residues(pt)
    assert order_check(spectral_charpoly(twist(field))).all_pass
    with pytest.raises(DegreeOverflowError) as exc:
        hitchin_map(field)
    assert exc.value.power == 4


@pytest.mark.parametrize("r,n", [(4, 9), (5, 11), (4, 20), (4, 30)])
def test_hitchin_map_float_overflow_at_rank4(solved, r, n):
    # a fit from off-pole values cannot see the pole of the fourth trace
    # power, least of all with many edges, where the fit points lie far
    # from every marked point; the float map must raise where the exact
    # one does
    for seed in range(3):
        with pytest.raises(DegreeOverflowError) as exc:
            hitchin_map(residues(solved(r, n, seed=seed)))
        assert exc.value.power == 4, seed


def test_higgs_field_cache_outside_equality():
    pt = sample_exact(3, 7, seed=0)
    field, other = residues(pt), residues(pt)
    field.psi
    assert field == other
    assert hash(field) == hash(other)


# ---------------------------------------------------------------------------
# gradients and brackets

def _trace_power(point, m, z0):
    # unconstrained evaluation, no moment-map validation
    r, n = point.r, point.n
    a = [[0j] * r for _ in range(r)]
    for i in range(n):
        w = 1.0 / (z0 - float(point.marked_points[i]))
        for p in range(r):
            for q in range(r):
                a[p][q] += complex(point.x[p][i]) * complex(point.y[i][q]) * w
    acc = [row[:] for row in a]
    for _ in range(m - 1):
        acc = [
            [sum(acc[p][k] * a[k][q] for k in range(r)) for q in range(r)]
            for p in range(r)
        ]
    return sum(acc[p][p] for p in range(r))


def test_observable_grad_matches_finite_differences(solved):
    pt = solved(2, 5)
    obs = BracketObservable(2, 7)
    grad = observable_grad(pt, obs)
    h = 1e-6

    def perturbed(mat, p, q, delta):
        rows = [list(row) for row in mat]
        rows[p][q] += delta
        return tuple(tuple(row) for row in rows)

    for p in range(2):
        for q in range(5):
            up = QuiverPoint(r=2, n=5, flavor="float", x=perturbed(pt.x, p, q, h),
                             y=pt.y, alpha=pt.alpha, marked_points=pt.marked_points)
            dn = QuiverPoint(r=2, n=5, flavor="float", x=perturbed(pt.x, p, q, -h),
                             y=pt.y, alpha=pt.alpha, marked_points=pt.marked_points)
            fd = (_trace_power(up, 2, 7.0) - _trace_power(dn, 2, 7.0)) / (2 * h)
            assert abs(fd - grad[p * 5 + q]) < 1e-5 * max(1.0, abs(fd))
    for q in range(5):
        for p in range(2):
            up = QuiverPoint(r=2, n=5, flavor="float", x=pt.x, y=perturbed(pt.y, q, p, h),
                             alpha=pt.alpha, marked_points=pt.marked_points)
            dn = QuiverPoint(r=2, n=5, flavor="float", x=pt.x, y=perturbed(pt.y, q, p, -h),
                             alpha=pt.alpha, marked_points=pt.marked_points)
            fd = (_trace_power(up, 2, 7.0) - _trace_power(dn, 2, 7.0)) / (2 * h)
            assert abs(fd - grad[2 * 5 + q * 2 + p]) < 1e-5 * max(1.0, abs(fd))


def test_observable_validation(point24):
    with pytest.raises(ValueError):
        BracketObservable(1, 9)
    with pytest.raises(ValueError):
        observable_grad(point24, BracketObservable(3, 9))


def test_brackets_exactly_zero_on_exact_points():
    for r, n in [(2, 5), (3, 6)]:
        pt = sample_exact(r, n, seed=2)
        pts = (Fraction(n + 1), Fraction(n + 2))
        for m1 in range(2, r + 1):
            for m2 in range(2, r + 1):
                v = poisson_bracket(
                    pt,
                    BracketObservable(m1, pts[0]),
                    BracketObservable(m2, pts[1]),
                )
                assert v == 0


def test_float_evaluation_points_are_exact_on_exact_points():
    # a float or complex z is taken at its exact value: the bracket and the
    # kernel identity vanish exactly, and the gradient is the Fraction one
    pt = sample_exact(2, 6, seed=0)
    v = poisson_bracket(pt, BracketObservable(2, 7.5), BracketObservable(2, 9))
    assert v == 0 and isinstance(v, Fraction)
    assert delta_check(pt, 7.5, 8.25) == 0
    assert observable_grad(pt, BracketObservable(2, 7.5)) == observable_grad(
        pt, BracketObservable(2, Fraction(15, 2))
    )
    grad = observable_grad(pt, BracketObservable(2, complex(7.5, 0.25)))
    assert all(isinstance(c, GaussianRational) for c in grad)
    assert delta_check(pt, complex(7.5, 0.25), 9) == 0
    # on a float point too, where delta_check at nan would return 0, the
    # value of an exact kernel identity
    for p in (pt, _float_copy(pt)):
        for bad in (float("inf"), float("nan"), complex(7, float("inf"))):
            with pytest.raises(ValueError):
                observable_grad(p, BracketObservable(2, bad))
            with pytest.raises(ValueError):
                poisson_bracket(p, BracketObservable(2, 9), BracketObservable(2, bad))
            with pytest.raises(ValueError):
                delta_check(p, bad, 9)
            with pytest.raises(ValueError):
                delta_check(p, 7.5, bad)


def test_bracket_antisymmetry_float(solved):
    pt = solved(3, 6)
    f = BracketObservable(2, 8)
    g = BracketObservable(3, 9)
    ab = poisson_bracket(pt, f, g)
    ba = poisson_bracket(pt, g, f)
    assert abs(ab + ba) < 1e-12 * max(1.0, abs(ab))


def test_commutation_report_exact(point24):
    rep = commutation_report(point24)
    assert rep.all_zero
    assert rep.max_abs == 0.0
    assert len(rep.pairs) == 3  # one observable, three eval points
    # squared gradient norms here pass 2^1024; zero brackets must not
    # convert them to float
    for r, n, seed in [(6, 8, 0), (5, 15, 105)]:
        rep = commutation_report(sample_exact(r, n, seed=seed))
        assert rep.all_zero
        assert rep.max_abs == rep.max_rel == 0.0


def test_commutation_report_exact_nonzero_values(monkeypatch):
    # exact brackets vanish identically, so a pairing that adds f_0 g_0 to
    # every numerator bracket stands in for a nonzero one; with x and y
    # integral (dx = dy = 1) it adds f_0 g_0 in value units too, and the
    # report must size it, and the gradient norms, as the Fraction values;
    # _contract pairs the left half of f, whose entry 1 is -f_0, with the
    # right half of g, whose entry 0 is g_0
    pt = sample_exact(3, 7, seed=0)
    contract = hitchin._contract
    monkeypatch.setattr(
        hitchin, "_contract", lambda f, g: contract(f, g) - f[1] * g[0]
    )
    rep = commutation_report(pt)
    assert not rep.all_zero
    for m, z0, m2, w0, a, rel in rep.pairs:
        f = observable_grad(pt, BracketObservable(m, z0))
        g = observable_grad(pt, BracketObservable(m2, w0))
        want = abs(f[0] * g[0])
        norm_f, norm_g = (math.sqrt(sum(c * c for c in v)) for v in (f, g))
        assert a == pytest.approx(float(want), rel=1e-12)
        assert rel == pytest.approx(float(want) / max(1.0, norm_f * norm_g), rel=1e-12)


def test_delta_check_reports_a_planted_pairing_error(monkeypatch, solved):
    # delta_check sums each entry pairing over the gradients' support, not
    # through _contract; one product W_1 X_a1 W'_1 Y_1d added to every
    # pairing must show on an exact point and stand far above a float
    # point's rounding
    points = [(sample_exact(3, 7, seed=0), Fraction(15, 2), Fraction(21, 2)),
              (solved(3, 7), 7.7, 9.25)]
    clean = [delta_check(pt, z, w) for pt, z, w in points]
    pairing = hitchin._entry_pairing
    monkeypatch.setattr(
        hitchin, "_entry_pairing",
        lambda rz, rw, a, b, c, d: pairing(rz, rw, a, b, c, d) + rz[0][a][0] * rw[1][d][0],
    )
    planted = [delta_check(pt, z, w) for pt, z, w in points]
    assert clean[0] == 0 and planted[0] > 0
    assert clean[1] < 1e-20 and planted[1] > 1e-9


def test_commutation_report_float(solved):
    pt = solved(3, 6)
    rep = commutation_report(pt)
    assert rep.max_rel < 1e-8


def test_delta_check_zero(point24):
    assert delta_check(point24, 5, 6) == 0
    assert delta_check(point24, Fraction(11, 2), Fraction(13, 2)) == 0
    with pytest.raises(ValueError):
        delta_check(point24, 5, 5)


@pytest.mark.parametrize("z", [0.1, complex(0.1, 0)])
@pytest.mark.parametrize("call", ["delta_check", "higgs_eval", "poisson_bracket"])
def test_float_z_rounding_onto_a_marked_point_is_a_pole(solved, call, z):
    # 0.1 is not 1/10, but 0.1 - float(1/10) is zero: the pole test must
    # see it rather than divide by zero
    pt = solved(2, 5)
    pt = dataclasses.replace(pt, marked_points=(Fraction(1, 10),) + pt.marked_points[1:])
    calls = {
        "delta_check": lambda: delta_check(pt, z, 6.5),
        "higgs_eval": lambda: higgs_eval(residues(pt), z),
        "poisson_bracket": lambda: poisson_bracket(
            pt, BracketObservable(2, z), BracketObservable(2, 6.5)
        ),
    }
    with pytest.raises(PoleEvaluationError, match="p_1 = 1/10"):
        calls[call]()


_FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)


def test_float_kernels_never_mix_fractions_with_floats(solved, monkeypatch):
    # the float path runs on floats and complexes only: a Fraction meets
    # ints and Fractions there, never a float or complex operand, which
    # would send each operation through Fraction's slow fallback
    pt = solved(3, 8)
    field = residues(pt)

    def guarded(name):
        op = getattr(Fraction, name)

        def wrapper(a, b, *rest):
            if isinstance(b, (float, complex)):
                raise AssertionError(f"Fraction.{name} with a {type(b).__name__} operand")
            return op(a, b, *rest)

        return wrapper

    for name in _FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, guarded(name))
    with pytest.raises(AssertionError):
        Fraction(1, 3) == 0.5
    assert Fraction(1, 3) * 3 == 1
    commutation_report(pt)
    delta_check(pt, 8.5 + 1 / 3, 8.25)
    delta_check(pt, Fraction(1, 2), Fraction(15, 2))
    jacobian_rank(pt)
    hitchin_map(field)
    # float x beside complex y: the rational 1 / (w - z) meets them as
    # its float, not through the fallback
    exact_pt = sample_exact(3, 8, seed=0)
    mixed = dataclasses.replace(
        exact_pt, flavor="float",
        x=tuple(tuple(map(float, row)) for row in exact_pt.x),
        y=tuple(tuple(map(complex, row)) for row in exact_pt.y),
    )
    delta_check(mixed, Fraction(1, 2), Fraction(15, 2))


_wide = st.fractions(max_denominator=10**40).filter(lambda f: abs(f.numerator) < 10**40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(_wide, st.integers(-50, 50)),
       st.lists(st.one_of(_wide, st.integers(-50, 50)), min_size=1, max_size=6, unique=True),
       st.integers(1, 6))
def test_float_weights_at_a_rational_point_are_the_rounded_fractions(z, poles, scale):
    # one int division per weight gives the float of the Fraction weight
    if z in poles:
        with pytest.raises(PoleEvaluationError):
            _float_weights(poles, z, scale)
        return
    ws = _float_weights(poles, z, scale)
    assert [w.hex() for w in ws] == [float(Fraction(scale) / (z - p)).hex() for p in poles]


def _float_weights(poles, z, scale):
    # the weights read only the field's marked points
    ws, d = hitchin._weights(HiggsField((), tuple(poles), "float"), z, scale)
    assert d == 1
    return ws


def test_float_weights_at_float_marked_points_stay_float_arithmetic():
    z = Fraction(1, 3)
    ws = _float_weights((1.5, Fraction(2)), z, 2)
    assert ws[0].hex() == (2 / (z - 1.5)).hex()
    assert ws[1].hex() == float(Fraction(2) / (z - 2)).hex()


# ---------------------------------------------------------------------------
# jacobian rank

def test_jacobian_rank_matches_dim(solved):
    rep = jacobian_rank(solved(2, 5))
    assert rep.dim_b == 2
    assert rep.rank == 2
    assert len(rep.singular_values) >= 2


@pytest.mark.parametrize("r,n", [(5, 8), (6, 8)])
def test_jacobian_rank_refuses_levels_below_2r_minus_1(r, n):
    # sum_m max(n - 2m + 1, 0) rows would exceed dim_b (9 rows of 8 at (5,8))
    with pytest.raises(ValueError, match=rf"dual level \({n - r}, {n}\)"):
        jacobian_rank(sample_exact(r, n, seed=0))


def test_jacobian_rank_zero_section():
    # y = 0 kills every gradient: the map is critical on the zero section
    x = tuple(tuple(complex(v) for v in row) for row in X24)
    y = tuple((0j, 0j) for _ in range(4))
    pt = QuiverPoint(r=2, n=4, flavor="float", x=x, y=y)
    rep = jacobian_rank(pt)
    assert rep.rank == 0


# points where Jacobian rows sampled at the integers n+1, n+2, ... are so
# ill-conditioned that they lose rank (7/11 at (2,14), 17/52 at (3,30))
@pytest.mark.parametrize("kind,r,n,seed", [
    ("solve", 2, 14, 0), ("solve", 3, 14, 0), ("solve", 2, 20, 0),
    ("solve", 3, 20, 0), ("solve", 2, 30, 0), ("solve", 3, 30, 0),
    ("solve", 4, 16, 0), ("solve", 3, 9, 1221472547),
    ("exact", 3, 9, 0), ("exact", 3, 9, 1), ("exact", 4, 10, 0), ("exact", 4, 10, 1),
])
def test_jacobian_rank_full_on_circle_rows(solved, kind, r, n, seed):
    pt = solved(r, n, seed=seed) if kind == "solve" else sample_exact(r, n, seed=seed)
    rep = jacobian_rank(pt)
    assert rep.rank == rep.dim_b == (r - 1) * (n - r - 1), rep.singular_values


def test_jacobian_rank_row_scaling_at_large_entries(point24):
    # x * 1e150 gives rows near 1e300, whose plain norm overflows; with
    # y * 1e150 too the rows leave the float range and must raise
    def scaled(fx, fy):
        return QuiverPoint(
            r=2, n=4, flavor="exact",
            x=tuple(tuple(v * fx for v in row) for row in point24.x),
            y=tuple(tuple(v * fy for v in row) for row in point24.y),
            alpha=point24.alpha, marked_points=point24.marked_points,
        )

    big = 10 ** 150
    assert jacobian_rank(scaled(big, 1)).rank == 1
    with pytest.raises(ValueError):
        jacobian_rank(scaled(big, big))
