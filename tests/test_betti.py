import hashlib
import inspect
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import betti
from hyperpoly.betti import (
    dimensions,
    genericity_check,
    poincare,
    poincare_rank2,
    recursion_residual,
)
from hyperpoly.combinat import multinomial

# frozen regression values; rank-2 rows double-checked against the closed
# form, the rank-3 row against the residual identity at margin 10
KNOWN = {
    (2, 3): [1],
    (2, 4): [1, 4],
    (2, 5): [1, 5, 11],
    (2, 6): [1, 6, 16, 26],
    (3, 6): [1, 6, 22, 51, 66],
}


# sha256 of the comma-joined coefficients of larger levels, frozen from the
# solver that multiplied every leaf by its own 1/(1-u)^s series; the
# benchmark's levels (3,100), (4,60), (24,26) and (28,30) from the solver
# that rebuilt each level's heavy-part products and folded each family alone
DIGESTS = {
    (3, 40): "06642f379727db3b87a94e6a90937cab40c86646db45105ff8bc5901b0bbe75f",
    (3, 100): "89d536a896e15d0c2efe7430e31a8ea78cbd8fc7ecdee7ec5192b765302172a1",
    (4, 24): "2043c0ffd8d3fad2b0a4132a0d0d03c9a730740d75a078d09c591a23e92e9760",
    (4, 60): "f7c4931a8e1533737e9ec0b51bf2971345490d1ac1dcd9cb6442745d33185f49",
    (5, 30): "58cc943214992383437d08c520e38290f13bdc42346469d35fe96216aaadae3c",
    (8, 20): "95e9fe3a42392201e31504fe30d94f224dcbda16e6adb0e4ba613f36afcd0d21",
    (24, 26): "cdf5a73c2bd0a8c25a728b3e5f414c78fb3e9e3eb1f61ca0df23e4e062c6f9dc",
    (28, 30): "2a0313329fd6a06aafce640a01a2189ada1c96e128fcae3ec9268ff46e1410ec",
}


def _digest(coeffs):
    return hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()


@pytest.mark.parametrize("rn,coeffs", sorted(KNOWN.items()))
def test_known_values(rn, coeffs):
    r, n = rn
    assert poincare(r, n).coeffs_u() == coeffs


@pytest.mark.parametrize("r,n", sorted(DIGESTS))
def test_frozen_digests(r, n):
    assert _digest(poincare(r, n).coeffs_u()) == DIGESTS[r, n]


def test_margin_does_not_change_coefficients():
    for margin in (0, 2, 9):
        assert poincare(3, 7, margin=margin).coeffs_u() == [1, 7, 29, 85, 190, 308, 302]


def test_reflection_duality():
    # P(r, n) = P(n - r, n); the solver never uses this symmetry
    for n in range(3, 17):
        for r in range(2, n - 1):
            assert poincare(r, n).coeffs_u() == poincare(n - r, n).coeffs_u(), (r, n)


def test_rank1_is_a_point():
    assert poincare(1, 5).coeffs_u() == [1]


def test_empty_space_below_threshold():
    assert poincare(3, 3).poly.is_zero()
    assert poincare(4, 3).poly.is_zero()


def test_reflection_duality_far_from_the_diagonal():
    # rank 50 keeps only the partitions with at most two parts >= 2
    assert poincare(50, 52).coeffs_u() == poincare(2, 52).coeffs_u()


def _brute_heavy_sum(heavy, t):
    """Q_H(t) term by term: every ordered size tuple and every choice of
    one coefficient from each P(h_i, k_i), with no polynomial product."""
    hmax = heavy[0]
    out = {}
    for ks in itertools.product(range(t + 1), repeat=len(heavy)):
        if sum(ks) != t or any(k <= h for h, k in zip(heavy, ks)):
            continue
        base = hmax * t + sum(h * (h - k) for h, k in zip(heavy, ks))
        weight = multinomial(t, ks)
        polys = [betti._poincare_coeffs(h, k) for h, k in zip(heavy, ks)]
        for picks in itertools.product(*(enumerate(p) for p in polys)):
            e = base + sum(i for i, _ in picks)
            c = weight
            for _, v in picks:
                c *= v
            out[e] = out.get(e, 0) + c
    return [out.get(e, 0) for e in range(max(out) + 1)] if out else []


@pytest.mark.parametrize("heavy", [(2,), (3,), (2, 2), (3, 2), (2, 2, 2)])
def test_heavy_sums_match_term_by_term(heavy):
    sums = betti._heavy_sums(heavy, 14)
    for t in range(15):
        low, coeffs = sums[t]
        dense = [0] * low + list(coeffs) if coeffs else []
        assert dense == _brute_heavy_sum(heavy, t), (heavy, t)


def test_rank2_oracle_agreement():
    for n in range(3, 13):
        assert poincare(2, n).coeffs_u() == poincare_rank2(n).coeffs_u()


def test_input_validation():
    with pytest.raises(ValueError):
        poincare(0, 4)
    with pytest.raises(ValueError):
        poincare(2, 0)
    with pytest.raises(ValueError):
        poincare_rank2(2)


def test_recursion_residual_zero_small():
    levels = [(r, n) for r in range(2, 5) for n in range(r + 1, 8)]
    # several heavy parts and many pole orders per family
    levels += [(5, 12), (6, 12), (4, 14)]
    for r, n in levels:
        res = recursion_residual(r, n, margin=3)
        assert not any(res), (r, n)


def test_solver_refuses_coefficients_above_the_dimension_bound(monkeypatch):
    # a spurious term above u^((r-1)(n-r-1)) in the Grassmannian numerator
    # survives the fold; the solver must not return it as a longer polynomial
    grassmannian = betti.gaussian_binomial

    def spurious(r, n):
        coeffs = list(grassmannian(r, n).coeffs)
        if (r, n) == (3, 7):
            coeffs[8] += 1
        return betti.DensePoly(coeffs, "u")

    monkeypatch.setattr(betti, "gaussian_binomial", spurious)
    with pytest.raises(ArithmeticError, match=r"above u\^6 .* level \(3, 7\)"):
        poincare(3, 7, margin=4)


def test_truncation_stability():
    # coefficients above the dimension bound stay zero with a larger margin
    for r, n in [(2, 6), (3, 6), (3, 7), (4, 7)]:
        top = (r - 1) * (n - r - 1)
        pp = poincare(r, n, margin=8)
        assert len(pp.poly.coeffs) <= top + 1


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=4), st.integers(min_value=3, max_value=10))
def test_coefficients_nonnegative_integers(r, n):
    if n <= r:
        return
    cs = poincare(r, n).coeffs_u()
    assert cs[0] == 1
    assert all(isinstance(c, int) and c >= 0 for c in cs)


def test_dimension_identity():
    for r in range(2, 12):
        for n in range(r + 1, 26):
            dim_x, dim_b = dimensions(r, n)
            assert dim_x == 2 * (r - 1) * (n - r - 1)
            assert dim_b == dim_x // 2
            assert dim_b == sum(n - 2 * i + 1 for i in range(2, r + 1))


def test_dimensions_validation():
    with pytest.raises(ValueError):
        dimensions(1, 5)
    with pytest.raises(ValueError):
        dimensions(3, 3)


# ---------------------------------------------------------------------------
# genericity

def test_genericity_witnesses():
    rep = genericity_check(2, (1, 1, 1, 1))
    assert not rep.generic
    assert rep.witness == (1, (1, 2))

    rep = genericity_check(2, (3, 1, 1, 1))
    assert not rep.generic
    assert rep.witness == (1, (1,))

    rep = genericity_check(2, (1, 1, 1, 2))
    assert rep.generic and rep.witness is None


def test_genericity_witness_equation():
    alpha = (Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(3))
    rep = genericity_check(3, alpha)
    if not rep.generic:
        rprime, subset = rep.witness
        total = sum(alpha)
        s_sum = sum(alpha[i - 1] for i in subset)
        assert rprime * total - 3 * s_sum == 0
        assert (rprime - 1) * (len(subset) - rprime - 1) >= 0


def test_genericity_validation():
    with pytest.raises(ValueError):
        genericity_check(0, (1, 1))
    with pytest.raises(ValueError):
        genericity_check(2, ())


def test_level_depth_does_not_grow_with_n():
    # the Gaussian binomial rows once recursed n levels deep; n = 150 sits
    # far above the lowered limit
    n = 150
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        coeffs = poincare(2, n).coeffs_u()
    finally:
        sys.setrecursionlimit(limit)
    assert len(coeffs) == n - 2
    assert coeffs[:2] == [1, n]


def test_cold_level_depth_with_shared_heavy_sums():
    # the heavy-part sums grow one total size at a time, so a cold rank-4
    # level stays as shallow as a rank-2 one
    want = poincare(4, 40).coeffs_u()
    betti._poincare_coeffs.cache_clear()
    betti._HEAVY_SUMS.clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        coeffs = poincare(4, 40).coeffs_u()
    finally:
        sys.setrecursionlimit(limit)
    assert coeffs == want
