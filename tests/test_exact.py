from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly.exact import (
    _SQRT_MINUS_ONE,
    SQUAREFREE_PRIME,
    DensePoly,
    GaussianRational,
    PolyMatrix,
    berkowitz,
    charpoly_numerators,
    cleared_vanishing_order,
    linear_product,
    numerators,
    parse_rational,
    poly_divmod,
    poly_from_roots,
    poly_matrix_charpoly,
    poly_mul,
    ratio,
    scalar_from_json,
    scalar_to_json,
    shifted_reciprocals,
    squarefree_mod_p,
)
from hyperpoly.betti import _geom_coeffs
from hyperpoly.linalg import norm_sq

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=20
)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == GaussianRational(0, 0)


@given(gaussians)
def test_gaussian_conjugation(a):
    assert a.conjugate().conjugate() == a
    n = norm_sq(a)
    assert n == a.re * a.re + a.im * a.im
    assert n >= 0


@given(gaussians, gaussians)
def test_gaussian_division(a, b):
    if norm_sq(b) == 0:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a


def test_gaussian_mixed_arithmetic():
    i = GaussianRational(0, 1)
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    assert Fraction(1, 2) + i == GaussianRational(Fraction(1, 2), 1)


@given(rationals)
def test_scalar_json_roundtrip_rational(a):
    assert scalar_from_json(scalar_to_json(a)) == a


@given(gaussians)
def test_scalar_json_roundtrip_gaussian(a):
    back = scalar_from_json(scalar_to_json(a))
    assert back == a


def test_scalar_json_integers_follow_the_point_flavor():
    # a bare JSON integer is exact in an exact point and a float elsewhere
    assert type(scalar_from_json(3, exact=True)) is Fraction
    assert type(scalar_from_json(3)) is float
    assert scalar_from_json({"re": 1, "im": -2}, exact=True) == GaussianRational(
        Fraction(1), Fraction(-2)
    )
    assert scalar_from_json({"re": 1, "im": -2}) == complex(1, -2)


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    with pytest.raises(ValueError):
        parse_rational(1.5)
    with pytest.raises(ValueError):
        parse_rational("1/0")


def _parse_outcome(parse, s):
    try:
        v = parse(s)
    except (ValueError, ZeroDivisionError) as e:
        return type(e), str(e)
    return type(v), v.numerator, v.denominator


def _parse_reference(s):
    # Fraction's own parser, with a zero denominator as a ValueError
    try:
        return Fraction(s)
    except ZeroDivisionError as e:
        raise ValueError(f"zero denominator in {s!r}") from e


@pytest.mark.parametrize("s", [
    "3/4", "-3/4", "12", "-12", "0/5", "-0/7", "1000000000000000000000/3",
    "1.5", " 3/4 ", "+3/4", "1_000/3", "1e3", "1e100", "٣/٤",
    "²/3", "3/-4", "1/0", "-0/0", "", "/", "-/3", "3/", "--3", "1/2/3",
])
def test_parse_rational_is_fractions_parser(s):
    # the split on "/" keeps every value and every refusal of Fraction(str)
    assert _parse_outcome(parse_rational, s) == _parse_outcome(_parse_reference, s)


# ---------------------------------------------------------------------------
# polynomials

coeff_lists = st.lists(rationals, min_size=0, max_size=6)


def P(cs):
    return DensePoly(cs, "z")


@given(coeff_lists, coeff_lists, coeff_lists)
def test_poly_ring_laws(a, b, c):
    pa, pb, pc = P(a), P(b), P(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) * pc == pa * pc + pb * pc
    assert pa - pa == P([])


def test_poly_degree_and_eval():
    p = P([1, 0, 2])
    assert p.degree == 2
    assert p(3) == 1 + 2 * 9
    assert P([]).is_zero()
    assert P([0, 0]).is_zero()


def test_poly_from_roots():
    p = poly_from_roots([1, 2])
    assert p == P([2, -3, 1])
    assert p(1) == 0 and p(2) == 0


@given(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=-5, max_value=5),
)
def test_vanishing_order_multiplicative(roots, a):
    p = poly_from_roots(roots)
    q = poly_from_roots(roots + [a])
    assert cleared_vanishing_order(numerators(q.coeffs)[0], a) == (
        cleared_vanishing_order(numerators(p.coeffs)[0], a) + 1
    )


def test_vanishing_order_zero_poly():
    assert cleared_vanishing_order(numerators(P([]).coeffs)[0], 3) == float("inf")
    assert cleared_vanishing_order(numerators(P([1]).coeffs)[0], 3) == 0


# ---------------------------------------------------------------------------
# truncated series in u as coefficient lists (the Betti layer's helpers)

orders = st.integers(min_value=0, max_value=8)


@given(coeff_lists, coeff_lists, orders)
def test_series_mul_commutes(a, b, order):
    assert poly_mul(a, b)[: order + 1] == poly_mul(b, a)[: order + 1]


@given(st.integers(min_value=0, max_value=6), orders)
def test_geom_power_inverts_binomial(s, order):
    # (1-u)^s * 1/(1-u)^s == 1 through the truncation order
    acc = [1]
    for _ in range(s):
        acc = poly_mul(acc, [1, -1])
    geom = _geom_coeffs(s, order)
    assert len(geom) == order + 1
    assert poly_mul(acc, geom)[: order + 1] == [1] + [0] * order


# ---------------------------------------------------------------------------
# polynomial matrices and the characteristic polynomial

def _charpoly_via_cofactors(m: PolyMatrix) -> list[DensePoly]:
    """Expand det(tI - M) by cofactors over DensePoly[z][t]; oracle only."""
    size = m.size
    # entries of tI - M as polynomials in t with DensePoly coefficients
    neg = [[m.rows[i][j] * Fraction(-1) for j in range(size)] for i in range(size)]

    def det(rows, cols):
        if len(rows) == 1:
            i, j = rows[0], cols[0]
            base = {0: neg[i][j]}
            if i == j:
                base[1] = DensePoly([1], m.var)
            return base
        out: dict = {}
        sign = 1
        for idx, j in enumerate(cols):
            sub = det(rows[1:], cols[:idx] + cols[idx + 1:])
            i = rows[0]
            ent = {0: neg[i][j]}
            if i == j:
                ent[1] = DensePoly([1], m.var)
            for d1, c1 in ent.items():
                for d2, c2 in sub.items():
                    term = c1 * c2 * Fraction(sign)
                    key = d1 + d2
                    out[key] = out.get(key, DensePoly([], m.var)) + term
            sign = -sign
        return out

    full = det(tuple(range(size)), tuple(range(size)))
    return [full.get(size - k, DensePoly([], m.var)) for k in range(1, size + 1)]


small_ints = st.integers(min_value=-4, max_value=4)
small_fractions = st.builds(Fraction, small_ints, st.integers(min_value=1, max_value=6))


def _poly_matrices(coeffs):
    polys = st.lists(coeffs, min_size=0, max_size=3).map(lambda cs: DensePoly(cs, "z"))
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.lists(st.lists(polys, min_size=k, max_size=k), min_size=k, max_size=k)
    )


def test_numerators_and_ratio_type_by_value():
    # the Gaussian ring only where some imaginary part is nonzero, and a
    # GaussianRational quotient only where its imaginary part is
    i = GaussianRational(0, 1)
    nums, d = numerators([GaussianRational(3), Fraction(1, 2)])
    assert (nums, d) == ([6, 1], 2) and all(type(v) is int for v in nums)
    nums, d = numerators([GaussianRational(3, Fraction(1, 3)), Fraction(1, 2)])
    assert (nums, d) == ([GaussianRational(18, 2), 3], 6)
    assert all(type(v) is GaussianRational for v in nums)
    assert ratio(1 + i, 1 - i) == i and type(ratio(1 + i, 1 - i)) is GaussianRational
    for num, den, want in [(2 * i, i, 2), (GaussianRational(3), 6, Fraction(1, 2)),
                           (3, 6, Fraction(1, 2))]:
        assert ratio(num, den) == want and type(ratio(num, den)) is Fraction


# one coefficient ring per matrix: ints, Fractions or GaussianRationals
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([
    small_ints,
    small_fractions,
    st.builds(GaussianRational, small_fractions, small_fractions),
]).flatmap(_poly_matrices))
def test_charpoly_matches_cofactor_expansion(rows):
    m = PolyMatrix(rows, "z")
    assert poly_matrix_charpoly(m) == _charpoly_via_cofactors(m)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([
    small_ints,
    small_fractions,
    st.builds(GaussianRational, small_fractions, small_fractions),
]).flatmap(_poly_matrices), st.integers(min_value=1, max_value=6))
def test_berkowitz_on_numerator_rows_is_charpoly_numerators(rows, scale):
    # on the numerators A = s D m of m, for any multiple s D of the least
    # common denominator D, the kernel gives (s D)^i c_i: the numerators of
    # `charpoly_numerators` times s^i, with the same scalar types, and a
    # matrix seeded with them has the same charpoly
    m = PolyMatrix(rows, "z")
    cs, d = charpoly_numerators(m)
    nums, _ = numerators(c for row in m.rows for e in row for c in e.coeffs)
    it = iter(nums)
    a = [[[next(it) * scale for _ in e.coeffs] for e in row] for row in m.rows]
    got = berkowitz(a)
    want = [[c * scale ** k for c in ck] for k, ck in enumerate(cs, start=1)]
    assert repr(list(got)) == repr(want)
    seeded = PolyMatrix(rows, "z")
    seeded._numerators = (got, d * scale)

    def typed(polys):
        return [[(type(c), c) for c in p.coeffs] for p in polys]

    assert typed(poly_matrix_charpoly(seeded)) == typed(poly_matrix_charpoly(m))


def test_berkowitz_of_an_integer_companion_matrix():
    # rows of [z], [1, z] and [] lists: the characteristic coefficients of
    # the companion matrix of t^3 - z t - z^2, as int lists
    assert berkowitz([[[], [0, 1], []], [[1], [], [0, 1]], [[1], [], []]]) == (
        [], [0, -1], [0, 0, -1]
    )
    assert berkowitz([]) == ()


def test_charpoly_companion_fixture():
    z = DensePoly([0, 1], "z")
    zero = DensePoly([], "z")
    one = DensePoly([1], "z")
    m = PolyMatrix(
        [[zero, z, zero], [one, zero, z], [one, zero, zero]], "z"
    )
    c = poly_matrix_charpoly(m)
    assert c == [zero, z * Fraction(-1), DensePoly([0, 0, -1], "z")]


def test_poly_matrix_trace():
    z = DensePoly([0, 1], "z")
    m = PolyMatrix([[z, z], [z, z * z]], "z")
    assert m.trace() == z + z * z


# coefficient lists are lowest degree first
@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ([2, -3, 0, 1], False),  # (z - 1)^2 (z + 2)
        ([-2, 1, 1], True),  # (z - 1)(z + 2)
        # squarefree over Q but not mod p: True certifies, False does not
        ([SQUAREFREE_PRIME, 0, 1], False),
        ([-2, 1, SQUAREFREE_PRIME], False),  # leading coefficient divisible by p
    ],
)
def test_squarefree_mod_p(coeffs, expected):
    assert squarefree_mod_p(coeffs) is expected


def test_the_square_root_of_minus_one_mod_p():
    # a + b i -> a + s b is a ring map Z[i] -> F_p only if s^2 = -1 mod p
    p = SQUAREFREE_PRIME
    assert p % 4 == 1 and pow(2, p - 1, p) == 1
    assert _SQRT_MINUS_ONE ** 2 % p == p - 1


def test_squarefree_mod_p_on_gaussian_integers():
    i = GaussianRational(0, 1)
    assert squarefree_mod_p([-i, GaussianRational(1)])
    assert not squarefree_mod_p(poly_mul([-i, 1], [-i, 1]))
    # (1 + i)(z - 1)(z - 2): a factor equal to its own conjugate is tested
    # once, not squared as it is in R * conj(R)
    assert squarefree_mod_p(poly_mul([1 + i], [2, -3, 1]))
    assert not squarefree_mod_p(poly_mul([1 + i], [2, -3, 0, 1]))
    # Gaussian-typed real coefficients are tested as the integers they are
    assert squarefree_mod_p([GaussianRational(-2), GaussianRational(1), GaussianRational(1)])
    assert squarefree_mod_p([GaussianRational(3), 1])
    assert not squarefree_mod_p([GaussianRational(2), GaussianRational(-3), 0, GaussianRational(1)])


# ---------------------------------------------------------------------------
# marked points as integer pairs: the weights and the cleared divisor

def _reciprocals_reference(marked, z, scale):
    # the Fraction values scale / (z - p_j), then their numerators; the
    # index of the first pole
    ws = []
    for j, p in enumerate(marked):
        if z == p:
            return "pole", j
        ws.append(scale / (z - p))
    return numerators(ws)


def _linear_product_reference(marked):
    # prod_j (v_j z - u_j) by products, each cofactor by long division
    factors = [(-p.numerator, p.denominator) for p in map(Fraction, marked)]
    full = [1]
    for f in factors:
        full = poly_mul(full, f)
    cofactors = [[f[1] * c for c in poly_divmod(full, f)[0]] for f in factors]
    v = 1
    for f in factors:
        v *= f[1]
    return full, v, cofactors


def _pairs(marked):
    return [(p.numerator, p.denominator) for p in map(Fraction, marked)]


MARKED_POINTS = [
    tuple(Fraction(i) for i in range(1, 13)),
    tuple(Fraction(2 * i + 1, 3) for i in range(7)),
    (Fraction(-5, 2), Fraction(3), Fraction(-7), Fraction(1, 4), Fraction(0), Fraction(9, 5)),
    (4, -2, Fraction(-13, 6)),
]


@pytest.mark.parametrize("marked", MARKED_POINTS)
@pytest.mark.parametrize("z", [
    Fraction(27, 2), Fraction(20), Fraction(-3, 2), Fraction(-4), Fraction(5, 7),
    Fraction(3), Fraction(-7), Fraction(1, 4), Fraction(0), 4,
])
@pytest.mark.parametrize("scale", [1, 3])
def test_shifted_reciprocals_are_the_fraction_numerators(marked, z, scale):
    # the same ints and lcm as the Fraction values give, and at a pole a
    # ZeroDivisionError naming its index
    try:
        got = shifted_reciprocals(_pairs(marked), z, scale)
    except ZeroDivisionError as e:
        got = "pole", e.args[0]
    assert repr(got) == repr(_reciprocals_reference(marked, z, scale))


@pytest.mark.parametrize("marked", MARKED_POINTS + [(Fraction(5, 3),)])
def test_linear_product_by_synthetic_division_is_the_long_division(marked):
    assert repr(linear_product(_pairs(marked))) == repr(_linear_product_reference(marked))
