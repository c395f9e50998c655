from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.errors import (
    DegenerateDiscriminantError,
    DegreeOverflowError,
    ValidationError,
)
from hyperpoly.exact import DensePoly, GaussianRational, PolyMatrix, poly_from_roots
from hyperpoly.hitchin import residues
from hyperpoly.quiver import exact_point_from_x, min_orbit_check, sample_exact
from hyperpoly.spectral import (
    CharPoly,
    TwistedHiggs,
    _discriminant_numerators,
    local_models,
    order_check,
    smoothness_probe,
    spectral_charpoly,
    trace_consistency,
    twist,
)


def test_twist_fixture(point24):
    tw = twist(residues(point24))
    assert tw.n == 4
    assert tw.r == 2
    assert tw.psi.trace().is_zero()
    assert max(e.degree for row in tw.psi.rows for e in row) <= 2


def test_twist_validation():
    z = DensePoly.gen("z")
    one = DensePoly.one("z")
    with pytest.raises(ValidationError):
        # trace is not zero
        TwistedHiggs(psi=PolyMatrix([[one, z], [z, one]], "z"), n=4,
                     marked_points=(1, 2, 3, 4))
    with pytest.raises(DegreeOverflowError):
        cubic = z * z * z
        TwistedHiggs(psi=PolyMatrix([[cubic, z], [z, -cubic]], "z"), n=4,
                     marked_points=(1, 2, 3, 4))


@st.composite
def traceless_psi(draw):
    """(psi, n): a square PolyMatrix that is traceless by construction, with
    entry degrees at most n - 2 and its (0, 1) entry at that bound, on
    rational or Gaussian coefficients."""
    r = draw(st.integers(2, 4))
    n = draw(st.integers(2, 6))
    small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    coeff = st.one_of(small, st.builds(GaussianRational, small, small))
    rows = [
        [DensePoly(draw(st.lists(coeff, max_size=n - 1)), "z") for _ in range(r)]
        for _ in range(r)
    ]
    low = draw(st.lists(coeff, min_size=n - 2, max_size=n - 2))
    rows[0][1] = DensePoly(low + [draw(coeff.filter(bool))], "z")
    rows[-1][-1] = -sum((rows[i][i] for i in range(r - 1)), DensePoly.zero("z"))
    return PolyMatrix(rows, "z"), n


@settings(max_examples=60, deadline=None)
@given(traceless_psi())
def test_traceless_bounded_psi_bounds_its_charpoly(psi_n):
    # the bounds spectral_charpoly once checked follow from TwistedHiggs:
    # c_1 = -Tr psi, and deg c_i <= i(n-2) from the entry degrees
    psi, n = psi_n
    assert psi.rows[0][1].degree == n - 2
    cp = spectral_charpoly(TwistedHiggs(psi=psi, n=n, marked_points=tuple(range(n))))
    assert cp.c[1].is_zero()
    for i in range(1, psi.size + 1):
        assert cp.c[i].degree <= i * (n - 2)


def test_charpoly_fixture(point24):
    cp = spectral_charpoly(twist(residues(point24)))
    assert cp.r == 2 and cp.n == 4
    expected = DensePoly([-10]) * poly_from_roots([1, 2, 3, 4])
    assert cp.c[2] == expected
    assert cp.to_json_dict() == {
        "n": 4,
        "r": 2,
        "c": {"2": ["-240/1", "500/1", "-350/1", "100/1", "-10/1"]},
    }


def test_charpoly_degree_bounds():
    for r, n, seed in [(3, 6, 0), (3, 7, 2), (4, 8, 1)]:
        cp = spectral_charpoly(twist(residues(sample_exact(r, n, seed=seed))))
        for i in range(2, r + 1):
            if not cp.c[i].is_zero():
                assert cp.c[i].degree <= i * (n - 2)


def test_order_check_fixture(point24):
    rep = order_check(spectral_charpoly(twist(residues(point24))))
    assert rep.all_pass
    assert len(rep.rows) == 4
    for i, p, order, bound, passed in rep.rows:
        assert i == 2
        assert bound == 1
        assert order >= 1
        assert passed


def test_order_check_fails_off_divisor(point24):
    cp = spectral_charpoly(twist(residues(point24)))
    rep = order_check(cp, points=[Fraction(7)])
    assert not rep.all_pass


def test_trace_consistency_low_rank(point24):
    assert trace_consistency(residues(point24)).ok
    assert trace_consistency(residues(sample_exact(3, 7, seed=3))).ok


def test_one_charpoly_pass_per_field(monkeypatch):
    # hitchin_map, spectral_charpoly and trace_consistency share one
    # Berkowitz pass on psi's numerators, kept on the field and seeded
    # into psi, whichever of them runs first
    from hyperpoly import exact, hitchin
    from hyperpoly.hitchin import hitchin_map

    passes = []
    kernel = exact.berkowitz

    def counted(a):
        passes.append(len(a))
        return kernel(a)

    monkeypatch.setattr(exact, "berkowitz", counted)
    monkeypatch.setattr(hitchin, "berkowitz", counted)
    for twist_first in (False, True):
        field = residues(sample_exact(3, 7, seed=0))
        if twist_first:
            spectral_charpoly(twist(field))
        hitchin_map(field)
        spectral_charpoly(twist(field))
        trace_consistency(field)
    assert passes == [3, 3]


def test_trace_consistency_rank4_gap():
    rep = trace_consistency(residues(sample_exact(4, 8, seed=0)))
    assert not rep.ok
    assert 4 in rep.failing


# ---------------------------------------------------------------------------
# local models

def test_local_models_charpolys():
    rank3, rank4 = local_models(seed=0)
    z = DensePoly.gen("z")
    zero = DensePoly.zero("z")
    assert rank3.charpoly.c[1] == zero
    assert rank3.charpoly.c[2] == -z
    assert rank3.charpoly.c[3] == -(z ** 2)
    assert rank4.charpoly.c[1] == zero
    # rank-4 coefficients depend on the seeded polynomials; check the shapes
    assert rank4.charpoly.c[2].degree == 2
    assert rank4.charpoly.c[4].degree == 2


def test_local_models_residues():
    rank3, rank4 = local_models(seed=0)
    assert min_orbit_check(rank3.residue) is True
    assert min_orbit_check(rank4.residue) is False
    assert rank3.expected_residue_rank == 1
    assert rank4.expected_residue_rank == 2


def test_local_models_seeded_determinism():
    a3, a4 = local_models(seed=5)
    b3, b4 = local_models(seed=5)
    assert a4.charpoly.c == b4.charpoly.c
    assert a3.charpoly.c == b3.charpoly.c


# ---------------------------------------------------------------------------
# smoothness certificate

def test_probe_rank3_model_smooth_off_divisor():
    # lam^3 - z lam - z^2 has discriminant z^3 (4 - 27 z): order 3 at the
    # marked point 0 and one simple root 4/27 off it
    rank3, _ = local_models(seed=0)
    rep = smoothness_probe(rank3.charpoly)
    assert rep.orders == ((Fraction(0), 3),)
    assert rep.discriminant_degree == 4
    assert rep.residual_degree == 1
    assert rep.squarefree
    assert rep.verdict == "smooth away from D"


def test_probe_detects_nodal_curve():
    # lam^2 - (z-5)^2 has a node at z = 5 away from the divisor {1, 2}: the
    # discriminant is prime to the marked points and has a double root
    z = DensePoly.gen("z")
    cp = CharPoly(
        r=2, n=4,
        c={1: DensePoly.zero("z"), 2: -((z - 5) ** 2)},
        marked_points=(Fraction(1), Fraction(2)),
    )
    rep = smoothness_probe(cp)
    assert rep.orders == ((Fraction(1), 0), (Fraction(2), 0))
    assert rep.residual_degree == 2
    assert not rep.squarefree
    assert rep.verdict == "not certified away from D"


def test_probe_degenerate_discriminant():
    cp = CharPoly(
        r=2, n=4,
        c={1: DensePoly.zero("z"), 2: DensePoly.zero("z")},
        marked_points=(Fraction(1), Fraction(2)),
    )
    with pytest.raises(DegenerateDiscriminantError):
        smoothness_probe(cp)


def test_probe_fixture_curve_clean(point24):
    # c_2 = -10 prod(z - p_j): every root of the discriminant is a marked
    # point, so R is a constant
    cp = spectral_charpoly(twist(residues(point24)))
    rep = smoothness_probe(cp)
    assert rep.orders == tuple((p, 1) for p in cp.marked_points)
    assert rep.discriminant_degree == 4
    assert rep.residual_degree == 0
    assert rep.verdict == "smooth away from D"


def _discriminant_lists(cp):
    """f and its fiber derivative as coefficient lists, highest power first."""
    r = cp.r
    f = [DensePoly.one("z")] + [cp.c[i] for i in range(1, r + 1)]
    f_lam = [cp.c[i] * (r - i) if i else DensePoly.constant(r, "z") for i in range(r)]
    return f, f_lam


def _sylvester_det(f, g):
    """Determinant of the scalar Sylvester matrix of f and g (highest power
    first), by Gaussian elimination over exact scalars."""
    dn, dm = len(f) - 1, len(g) - 1
    rows = [[Fraction(0)] * s + f + [Fraction(0)] * (dm - 1 - s) for s in range(dm)]
    rows += [[Fraction(0)] * s + g + [Fraction(0)] * (dn - 1 - s) for s in range(dn)]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            q = rows[i][k] / rows[k][k]
            rows[i] = [x - q * y for x, y in zip(rows[i], rows[k])]
    return det


def _sampled_charpoly(r, n):
    return spectral_charpoly(twist(residues(sample_exact(r, n, seed=0))))


def _thirds_charpoly(x):
    """Charpoly of the point completing x, marked at (2i + 1) / 3."""
    marked = [Fraction(2 * i + 1, 3) for i in range(len(x[0]))]
    return spectral_charpoly(twist(residues(exact_point_from_x(x, seed=0, marked_points=marked))))


# the last three have charpoly coefficients with a common denominator
# e > 1, where F(mu) = e^r f(mu / e) differs from f and the factor
# e^(r(r-1)) shows
@pytest.mark.parametrize(
    "make,e_above_one",
    [
        (lambda: _sampled_charpoly(2, 6), False),
        (lambda: _sampled_charpoly(3, 7), False),
        (lambda: _sampled_charpoly(4, 8), False),
        (lambda: _thirds_charpoly(sample_exact(3, 7, seed=0).x), True),
        (lambda: _thirds_charpoly(
            ((GaussianRational(1, 1), 0, 1, 1, 2), (0, 1, GaussianRational(1, -1), 2, 1))
        ), True),
        (lambda: local_models(seed=0)[1].charpoly, True),
    ],
    ids=["2-6", "3-7", "4-8", "thirds-3-7", "gaussian-thirds-2-5", "local-rank4"],
)
def test_resultant_matches_sylvester_oracle(make, e_above_one):
    cp = make()
    delta, e = _discriminant_numerators(cp)
    assert (e > 1) is e_above_one
    f, f_lam = _discriminant_lists(cp)
    scale = e ** (cp.r * (cp.r - 1))
    for z0 in (Fraction(1, 2), Fraction(7, 3), Fraction(-2)):
        value = sum(c * z0 ** k for k, c in enumerate(delta)) / scale
        assert value == _sylvester_det([c(z0) for c in f], [c(z0) for c in f_lam])


# levels where R, the discriminant with its marked-point factors divided
# out, is not squarefree mod p: n = 2r - 1.  There c_r vanishes, so
# lam = 0 is a component of the curve; it meets the rest over the zeros of
# c_(r-1), whose square divides the discriminant
_NOT_CERTIFIED = {(3, 5), (4, 7), (5, 9)}


@pytest.mark.parametrize(
    "r,n",
    [(2, 8), (3, 5), (3, 6), (3, 7), (3, 9), (4, 7), (4, 8), (4, 9), (5, 9), (5, 10)],
)
def test_probe_runs_on_sampled_points(r, n):
    cp = spectral_charpoly(twist(residues(sample_exact(r, n, seed=0))))
    rep = smoothness_probe(cp)
    delta, _ = _discriminant_numerators(cp)
    # the discriminant has weight r(r-1) and deg c_i <= i(n-2); these
    # points reach the bound, and it vanishes to order r^2 - 3r + 3 at
    # every marked point
    assert rep.discriminant_degree == len(delta) - 1 == r * (r - 1) * (n - 2)
    order = r * r - 3 * r + 3
    assert rep.orders == tuple((p, order) for p in cp.marked_points)
    assert rep.residual_degree == rep.discriminant_degree - n * order
    certified = (r, n) not in _NOT_CERTIFIED
    assert cp.c[r].is_zero() is not certified
    assert rep.squarefree is certified
    assert rep.verdict == ("smooth away from D" if certified else "not certified away from D")


def test_probe_on_complex_exact_point():
    x = ((GaussianRational(1, 1), 0, 1, 1, 2), (0, 1, GaussianRational(1, -1), 2, 1))
    cp = spectral_charpoly(twist(residues(exact_point_from_x(x, seed=0))))
    rep = smoothness_probe(cp)
    # lam^2 + c_2 is singular over z only where c_2 has a double root: c_2
    # is prod(z - p_j) times a Gaussian linear factor, so R is that factor
    # and is tested through R * conj(R)
    assert rep.discriminant_degree == 6
    assert rep.orders == tuple((p, 1) for p in cp.marked_points)
    assert rep.residual_degree == 1
    assert rep.verdict == "smooth away from D"


def test_resultant_against_sympy():
    sympy = pytest.importorskip("sympy")
    rank3, rank4 = local_models(seed=0)
    z, lam = sympy.symbols("z lam")

    def to_sympy(cp):
        return lam ** cp.r + sum(
            sum(sympy.Rational(str(Fraction(v))) * z ** k for k, v in enumerate(cp.c[i].coeffs))
            * lam ** (cp.r - i)
            for i in range(1, cp.r + 1)
        )

    cp37 = spectral_charpoly(twist(residues(sample_exact(3, 7, seed=0))))
    cases = [
        (rank3.charpoly, lam ** 3 - z * lam - z ** 2),
        (cp37, to_sympy(cp37)),
        (rank4.charpoly, to_sympy(rank4.charpoly)),
    ]
    for cp, f in cases:
        res = sympy.resultant(f, sympy.diff(f, lam), lam)
        theirs = [Fraction(str(v)) for v in sympy.Poly(res, z).all_coeffs()]
        delta, e = _discriminant_numerators(cp)
        scale = e ** (cp.r * (cp.r - 1))
        assert [Fraction(c, scale) for c in reversed(delta)] == theirs
