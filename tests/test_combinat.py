import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperpoly.combinat import (
    admissible_rho,
    fitting_partitions,
    gaussian_binomial,
    morse_data,
    mult_factorial,
    multinomial,
    partitions,
)

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}


@pytest.mark.parametrize("r,count", sorted(PARTITION_COUNTS.items()))
def test_partition_counts(r, count):
    ps = partitions(r)
    assert len(ps) == count
    assert all(sum(p) == r and min(p) >= 1 for p in ps)
    assert all(list(p) == sorted(p, reverse=True) for p in ps)
    assert ps[0] == (r,)
    assert ps[-1] == (1,) * r
    # reverse lexicographic, no duplicates
    assert list(ps) == sorted(ps, reverse=True)
    assert len(set(ps)) == len(ps)


def test_admissible_rho_constraints():
    rhos = list(admissible_rho((2, 1), 6))
    for rho in rhos:
        assert len(rho) == 2
        assert rho[0] >= 2 and rho[1] >= 1
        assert sum(rho) <= 6
    assert (2, 1) in rhos
    assert (5, 1) in rhos
    assert len(set(rhos)) == len(rhos)
    # exhaustive count: k1 in 2..5, k2 in 1..6-k1
    assert len(rhos) == sum(6 - k1 for k1 in range(2, 6))


def test_admissible_rho_empty_when_overshooting():
    assert list(admissible_rho((4,), 3)) == []


def test_mult_factorial():
    assert mult_factorial((3, 1, 1)) == 2
    assert mult_factorial((2, 2, 2)) == 6
    assert mult_factorial((4,)) == 1
    assert mult_factorial((1, 1, 1, 1)) == 24


@given(
    st.integers(min_value=1, max_value=7),
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
)
def test_multinomial_brute_force(n, rho):
    rho_t = tuple(rho)
    if sum(rho_t) > n:
        expected = 0
    else:
        # count ordered tuples of pairwise disjoint subsets of given sizes
        expected = 0
        universe = tuple(range(n))
        def count(avail, sizes):
            if not sizes:
                return 1
            total = 0
            for s in itertools.combinations(avail, sizes[0]):
                rest = tuple(x for x in avail if x not in s)
                total += count(rest, sizes[1:])
            return total
        expected = count(universe, rho_t)
    assert multinomial(n, rho_t) == expected


def test_morse_data_formulas():
    # top family has both invariants zero
    assert morse_data((3,), (7,), 7) == (3 * 4 + 3 * (3 - 7) + 0, 1 + 7 - 1 - 7)
    assert morse_data((3,), (7,), 7) == (0, 0)
    beta, s = morse_data((2, 1), (3, 2), 7)
    assert beta == 3 * (7 - 3) + 2 * (2 - 3) + 1 * (1 - 2)
    assert s == 2 + 7 - 1 - 5


def test_morse_data_nonnegative():
    for r in range(1, 6):
        for n in range(r + 1, 10):
            for lam in partitions(r):
                for rho in admissible_rho(lam, n):
                    beta, s = morse_data(lam, rho, n)
                    assert beta >= 0
                    assert s >= 0
                    if lam == (r,) and rho == (n,):
                        assert (beta, s) == (0, 0)


def test_morse_data_validation():
    with pytest.raises(ValueError):
        morse_data((2, 1), (3,), 7)
    with pytest.raises(ValueError):
        morse_data((2, 1), (1, 1), 7)
    with pytest.raises(ValueError):
        morse_data((2,), (8,), 7)


@pytest.mark.parametrize("r,n", [(1, 4), (2, 5), (3, 7), (4, 8)])
def test_gaussian_binomial_at_one(r, n):
    g = gaussian_binomial(r, n)
    assert g(1) == math.comb(n, r)
    # degree r(n-r), palindromic coefficients
    assert g.degree == r * (n - r)
    assert tuple(g.coeffs) == tuple(reversed(g.coeffs))


def test_gaussian_binomial_fixture():
    # [4 choose 2]_u = 1 + u + 2u^2 + u^3 + u^4
    assert tuple(gaussian_binomial(2, 4).coeffs) == (1, 1, 2, 1, 1)


def test_fitting_partitions_keep_those_that_fit_n_edges():
    for r in range(1, 13):
        for n in range(1, 17):
            want = tuple(
                lam for lam in partitions(r)
                if r + sum(1 for p in lam if p >= 2) <= n
            )
            assert fitting_partitions(r, n) == want, (r, n)
