"""Partitions, size tuples and the combinatorial data attached to critical
loci of the circle-action Morse function used by the Betti recursion.

A partition is a plain tuple of positive parts in weakly decreasing order.
The data of one critical family (lam, rho) are the values of `morse_data`,
`multinomial` and `mult_factorial`."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

from .exact import DensePoly


@lru_cache(maxsize=None)
def _partitions_tuples(r: int, largest: int) -> tuple[tuple[int, ...], ...]:
    if r == 0:
        return ((),)
    out = []
    for first in range(min(r, largest), 0, -1):
        for rest in _partitions_tuples(r - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions(r: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of r as weakly decreasing tuples, in reverse
    lexicographic order: (r) first, (1,...,1) last."""
    if r < 1:
        raise ValueError("can only partition a positive integer")
    return _partitions_tuples(r, r)


@lru_cache(maxsize=None)
def _fitting_tuples(r: int, largest: int, heavy: int) -> tuple[tuple[int, ...], ...]:
    # partitions of r with parts <= largest and at most `heavy` parts >= 2
    if heavy >= r // 2:
        return _partitions_tuples(r, largest)
    out = []
    for first in range(min(r, largest) if heavy else 1, 0, -1):
        for rest in _fitting_tuples(r - first, first, heavy - (first >= 2)):
            out.append((first,) + rest)
    return tuple(out)


def fitting_partitions(r: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The partitions lam of r with r + #(parts >= 2) <= n, in the order of
    `partitions`.  Each part p >= 2 needs at least p + 1 of the n edges and
    each part 1 at least one, so these are the partitions whose critical
    families are nonempty."""
    if r < 1:
        raise ValueError("can only partition a positive integer")
    if n < r:
        return ()
    return _fitting_tuples(r, r, n - r)


def admissible_rho(lam: tuple[int, ...], n: int) -> Iterator[tuple[int, ...]]:
    """Size tuples rho with rho_j >= lam_j componentwise and sum(rho) <= n.

    Yielded in lexicographic order.  The stream is empty when even the
    minimal choice rho = lam overshoots n.
    """
    if n < 1:
        raise ValueError("n must be positive")

    def rec(j: int, remaining: int, prefix: tuple[int, ...]):
        if j == len(lam):
            yield prefix
            return
        lo = lam[j]
        # leave room for the parts still to be placed
        reserve = sum(lam[j + 1:])
        for k in range(lo, remaining - reserve + 1):
            yield from rec(j + 1, remaining - k, prefix + (k,))

    yield from rec(0, n, ())


@lru_cache(maxsize=None)
def mult_factorial(lam: tuple[int, ...]) -> int:
    """Product of m! over the multiplicities m of the distinct part values."""
    return math.prod(math.factorial(lam.count(p)) for p in set(lam))


def multinomial(n: int, rho: tuple[int, ...]) -> int:
    """Number of ways to choose an ordered list of disjoint subsets of
    sizes rho from an n-element set; 0 when the sizes overshoot n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if any(k < 0 for k in rho):
        raise ValueError("subset sizes must be nonnegative")
    if sum(rho) > n:
        return 0
    out = 1
    avail = n
    for k in rho:
        out *= math.comb(avail, k)
        avail -= k
    return out


def morse_data(
    lam: tuple[int, ...], rho: tuple[int, ...], n: int
) -> tuple[int, int]:
    """Morse index exponent beta and pole order s of one critical family.

    beta = r(n-r) + sum_j lam_j (lam_j - rho_j)
    s    = len(lam) + n - 1 - sum_j rho_j

    Both are nonnegative for admissible input, and both vanish exactly for
    the top family lam = (r), rho = (n).
    """
    if len(lam) != len(rho):
        raise ValueError("partition and size tuple must have equal length")
    if any(k < p for p, k in zip(lam, rho)):
        raise ValueError("size tuple must dominate the partition")
    if sum(rho) > n:
        raise ValueError("size tuple exceeds the ambient set")
    r = sum(lam)
    beta = r * (n - r) + sum(p * (p - k) for p, k in zip(lam, rho))
    s = len(lam) + n - 1 - sum(rho)
    return beta, s


# _GAUSS[k][j] holds the coefficients of [k + j choose k]_u for k >= 1;
# column 0, all ones, is not stored
_GAUSS: list[list[tuple[int, ...]]] = [[]]


def _gauss_coeffs(r: int, n: int) -> tuple[int, ...]:
    # q-Pascal recurrence [m, k] = [m-1, k-1] + u^k [m-1, k], integer
    # coefficients throughout; each column k is extended in increasing m,
    # so no call recurses however large n is
    if r == 0 or r == n:
        return (1,)
    while len(_GAUSS) <= r:
        _GAUSS.append([(1,)])
    for k in range(1, r + 1):
        col = _GAUSS[k]
        for j in range(len(col), n - r + 1):
            out = [0] * (k * j + 1)
            for i, c in enumerate(_GAUSS[k - 1][j] if k > 1 else (1,)):
                out[i] += c
            for i, c in enumerate(col[j - 1]):
                out[i + k] += c
            col.append(tuple(out))
    return _GAUSS[r][n - r]


def gaussian_binomial(r: int, n: int) -> DensePoly:
    """Gaussian binomial coefficient [n choose r]_u as a polynomial in u.

    Specializing u = 1 recovers binomial(n, r); the degree is r(n-r).
    """
    if not 0 <= r <= n:
        raise ValueError("need 0 <= r <= n")
    return DensePoly(_gauss_coeffs(r, n), "u")
