"""Poincare polynomials of hyperpolygon spaces.

The central routine solves, degree by degree in u = t^2, the localization
recursion that equates the Grassmannian Poincare series divided by
(1-u)^(n-1) with a sum over critical families indexed by partitions of the
rank and admissible size tuples.  The family attached to the full partition
(r) with size tuple (n) carries weight one and no pole, so the recursion can
be solved for it.

Each family is summed as sum_s N_s / (1-u)^s with integer numerators N_s,
one per pole order s.  Within a partition lam the pole order is fixed by
the number t of edges its parts take.  The leaves of one t sum to
C(n, t) u^(r(n-r) - h_max t) Q_lam(t), where the part sum Q_lam(t) does not
depend on n: it is built once per process, the parts >= 2 one at a time
and the size-1 parts in one step, and shared by every level.  Each such
bucket enters its numerator as one slice.  All numerators of a level, the
Grassmannian one included, are merged by pole order over the integer lcm
of the multiplicity factorials, folded once by Horner in 1/(1-u) (one
prefix sum per pole order) and divided exactly by that lcm.  Only the
partitions whose families fit n edges are summed.

Two independent routes are kept alongside the solver: the closed form
b_2k = sum_(j <= k) C(n - 1, j) of rank 2, which shares nothing with the
recursion, and a direct term-by-term re-evaluation of the recursion used
as a residual check.  Each term of the latter is one product of a
polynomial with the binomial expansion of 1/(1-u)^s, subtracted at its
shift with its weight.  It shares only `poly_mul` and the solved
sub-levels with the fast path, none of its part sums, buckets or Horner
fold.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .combinat import (
    admissible_rho,
    fitting_partitions,
    gaussian_binomial,
    morse_data,
    mult_factorial,
    multinomial,
    partitions,
)
from .exact import DensePoly, csv_text, poly_mul

DEFAULT_MARGIN = 5


@dataclass(frozen=True)
class PoincarePoly:
    """Poincare polynomial of one hyperpolygon space, in u = t^2."""

    r: int
    n: int
    poly: DensePoly

    @property
    def degree_bound(self) -> int:
        """Half the real dimension: (r-1)(n-r-1), floored at 0."""
        return max(0, (self.r - 1) * (self.n - self.r - 1))

    def coeffs_u(self) -> list[int]:
        """Dense coefficient list for u^0 .. u^degree_bound."""
        out = list(self.poly.coeffs)
        out.extend([0] * (self.degree_bound + 1 - len(out)))
        return out

    def betti_numbers(self) -> list[tuple[int, int]]:
        """Pairs (2k, b_2k) for k = 0 .. degree_bound."""
        return [(2 * k, c) for k, c in enumerate(self.coeffs_u())]

    def to_csv(self) -> str:
        """Headerless CSV, one "2k,b_2k" line per pair of `betti_numbers`."""
        return csv_text(self.betti_numbers())


@dataclass(frozen=True)
class GenericityReport:
    r: int
    alpha: tuple[Fraction, ...]
    generic: bool
    witness: Optional[tuple[int, tuple[int, ...]]]


def _fold(numerators: dict[int, Sequence], order: int) -> list:
    """sum_s N_s / (1-u)^s through u^order, as a coefficient list.

    Horner in 1/(1-u): ((N_S/(1-u) + N_(S-1))/(1-u) + ...)/(1-u)^(s_min),
    where each division by (1-u) is one prefix sum.  Below the lowest
    nonzero coefficient of the N_s added so far the sum is zero, so each
    prefix sum starts there.  Every N_s and the sum have length order + 1.
    """
    acc = [0] * (order + 1)
    low = order + 1
    for s in range(max(numerators, default=0), -1, -1):
        row = numerators.get(s)
        if row is not None:
            acc = list(map(operator.add, acc, row))
            low = min(low, next(itertools.compress(itertools.count(), row), low))
        if s:
            acc[low:] = itertools.accumulate(acc[low:])
    return acc


@functools.cache
def _onto(k: int, m: int) -> int:
    """sigma(k, m) = sum_j (-1)^j C(m, j) (m - j)^k = m! S(k, m), the number
    of maps from k edges onto m parts."""
    return sum((-1) ** j * math.comb(m, j) * (m - j) ** k for j in range(m + 1))


# partition -> [(low, coeffs) per total size t]; see `_heavy_sums`
_HEAVY_SUMS: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}


def _heavy_sums(lam: tuple[int, ...], t_max: int) -> list:
    """Q_lam(t) for t = 0 .. t_max (at least), each as a pair (low, coeffs)
    meaning u^low * coeffs with coeffs[0] nonzero.

    Q_lam(t) = sum over ordered sizes k_i with sum t of
               C(t; k) * u^(h_max t + sum p_i (p_i - k_i)) * prod P(p_i, k_i),
    where h_max = lam[0] is the largest part, a part p_i >= 2 takes
    k_i > p_i edges and a part 1 takes k_i >= 1, with P(1, k) = 1.  Every
    exponent is sum p_i^2 + sum (h_max - p_i) k_i >= 0, and nothing depends
    on the edge count of a level, so the sums are kept for the whole
    process.  Write lam = H + 1^m with H the parts >= 2.  The m parts 1
    enter in one step, and the parts of H one at a time:
        Q_lam(t)   = sum_k C(t, k) sigma(k, m) u^((h_max - 1) k + m) Q_H(t - k)
        Q_(H,h)(t) = sum_k C(t, k) P(h, k) u^((h_max - h) k + h^2) Q_H(t - k)
    from Q_()(t) = [t = 0], with sigma(k, m) the count of `_onto`.  Each
    list grows in increasing t, so each new entry solves at most one new
    sub-level P(h, k) of each part and the recursion depth stays flat.
    """
    sums = _HEAVY_SUMS.get(lam, ())
    if len(sums) > t_max:
        return sums
    # the last step adds the m parts 1 at once, or else the smallest part h
    m = lam.count(1)
    if m:
        rest, h, k_min, h_sq = lam[:-m], 1, m, m
    else:
        rest, h, k_min, h_sq = lam[:-1], lam[-1], lam[-1] + 1, lam[-1] ** 2
    # Q_rest(t) vanishes below t = sum(rest) + len(rest), the fewest edges
    # rest can take, and Q_lam(t) below the same bound for lam
    rest_min = sum(rest) + len(rest)
    if not sums:
        sums = _HEAVY_SUMS[lam] = [(0, ())] * (rest_min + k_min)
    # Q_() is 1 at t = 0 and 0 after; the range below starts at k = t for it
    below = _heavy_sums(rest, t_max - k_min) if rest else [(0, (1,))]
    while len(sums) <= t_max:
        t = len(sums)
        terms = []
        for k in range(max(k_min, t + 1 - len(below)), t - rest_min + 1):
            low, q = below[t - k]
            if not q:
                continue
            shift, c = (lam[0] - h) * k + h_sq + low, math.comb(t, k)
            if m:
                terms.append((shift, c * _onto(k, m), q))
            else:
                terms.append((shift, c, poly_mul(_poincare_coeffs(h, k), q)))
        if not terms:
            sums.append((0, ()))
            continue
        low = min(shift for shift, _, _ in terms)
        out = [0] * (max(shift + len(q) for shift, _, q in terms) - low)
        for shift, c, q in terms:
            i = shift - low
            out[i:i + len(q)] = map(operator.add, out[i:i + len(q)], map(c.__mul__, q))
        sums.append((low, tuple(out)))
    return sums


def _family_sum(lam: tuple[int, ...], n: int, order: int, exclude_top: bool,
                numerators: dict[int, list], weight: int) -> None:
    """Add weight * N_s into numerators[s] (lists of length order + 1) for
    the numerators N_s of the family sum of the partition lam: the sum over
    all admissible size tuples of
        multinomial * u^beta * prod_j P(lam_j, rho_j) / (1-u)^s.

    The total t of the sizes fixes the pole order s = len(lam) + n - 1 - t,
    and the leaves of that total sum to the bucket
    C(n, t) u^(r(n-r) - h_max t) Q_lam(t) of `_heavy_sums`, whose exponents
    are Morse indices beta >= 0.  Each bucket is cut at u^order, scaled by
    the weight times C(n, t) and added into N_s as one slice.
    exclude_top drops t = n, the unknown top family of lam = (r).
    """
    r = sum(lam)
    t_max = n - exclude_top
    sums = _heavy_sums(lam, t_max)
    for t in range(r + len(lam) - lam.count(1), t_max + 1):
        low, q = sums[t]
        if not q:
            continue
        # exponent of the bucket's first coefficient in N_s
        d = r * (n - r) - lam[0] * t + low
        if d > order:
            continue
        if d < 0:
            raise ArithmeticError("negative Morse index in a family sum")
        c = weight * math.comb(n, t)
        end = min(d + len(q), order + 1)
        row = numerators.setdefault(len(lam) + n - 1 - t, [0] * (order + 1))
        row[d:end] = map(operator.add, row[d:end], map(c.__mul__, q[:end - d]))


@functools.cache
def _poincare_coeffs(r: int, n: int) -> tuple[int, ...]:
    if r == 1:
        return (1,)
    if n <= r:
        return ()
    return _solve_level(r, n, (r - 1) * (n - r - 1) + DEFAULT_MARGIN)


def _solve_level(r: int, n: int, order: int) -> tuple[int, ...]:
    """Coefficients of P(r, n) from the recursion, solved through u^order.

    With L the lcm of the multiplicity factorials, L times the recursion
    is one fold of integer numerators: L times the Grassmannian numerator
    minus L / mult_factorial(lam) times those of each family.  Its
    coefficients divide exactly by L, and those above the dimension bound
    u^((r-1)(n-r-1)) vanish; either failure raises ArithmeticError.
    """
    lams = fitting_partitions(r, n)
    lcm = math.lcm(*map(mult_factorial, lams))
    grass = [lcm * c for c in gaussian_binomial(r, n).coeffs[: order + 1]]
    numerators = {n - 1: grass + [0] * (order + 1 - len(grass))}
    for lam in lams:
        _family_sum(lam, n, order, lam == (r,), numerators,
                    -(lcm // mult_factorial(lam)))
    out = []
    for c in _fold(numerators, order):
        q, rem = divmod(c, lcm)
        if rem:
            raise ArithmeticError(
                f"non-integral coefficient {Fraction(c, lcm)} while solving level ({r}, {n})"
            )
        out.append(q)
    bound = (r - 1) * (n - r - 1)
    if any(out[bound + 1:]):
        raise ArithmeticError(
            f"nonzero coefficient above u^{bound} while solving level ({r}, {n})"
        )
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poincare(r: int, n: int, margin: int = DEFAULT_MARGIN) -> PoincarePoly:
    """Poincare polynomial of the hyperpolygon space of rank r with n edges.

    Conventions: rank 1 spaces are points for every n >= 1, and the space is
    empty (zero polynomial) whenever n <= r for r >= 2.  The series is solved
    with truncation (r-1)(n-r-1) + margin; the extra coefficients must come
    out zero, which the solver checks at every level.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError("rank must be a positive integer")
    if not isinstance(n, int) or n < 1:
        raise ValueError("edge count must be a positive integer")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if r == 1:
        coeffs: tuple[int, ...] = (1,)
    elif n <= r:
        coeffs = ()
    elif margin == DEFAULT_MARGIN:
        coeffs = _poincare_coeffs(r, n)
    else:
        coeffs = _solve_level(r, n, (r - 1) * (n - r - 1) + margin)
    return PoincarePoly(r=r, n=n, poly=DensePoly(coeffs, "u"))


def poincare_rank2(n: int) -> PoincarePoly:
    """Rank-2 Poincare polynomial from its closed form
    b_2k = sum_(j <= k) C(n - 1, j), k = 0, ..., n - 3.

    Shares nothing with the recursion; used as an oracle against it.
    """
    if not isinstance(n, int) or n < 3:
        raise ValueError("rank-2 spaces need at least 3 edges")
    coeffs = itertools.accumulate(math.comb(n - 1, j) for j in range(n - 2))
    return PoincarePoly(r=2, n=n, poly=DensePoly(coeffs, "u"))


def _geom_coeffs(s: int, order: int) -> list[int]:
    """1/(1-u)^s through u^order: the coefficient of u^k is C(s-1+k, k);
    s = 0 gives 1."""
    if s == 0:
        return [1] + [0] * order
    return [math.comb(s - 1 + k, k) for k in range(order + 1)]


def _subtract_term(total: list, poly: Sequence, s: int, shift: int, weight) -> None:
    """total -= weight * u^shift * poly / (1-u)^s, cut at the end of total."""
    room = len(total) - shift
    if room <= 0:
        return
    term = poly_mul(poly, _geom_coeffs(s, room - 1))
    for k, c in enumerate(term[:room], shift):
        total[k] -= weight * c


def recursion_residual(r: int, n: int, margin: int = DEFAULT_MARGIN) -> list:
    """Left minus right hand side of the recursion, all terms substituted.

    Every admissible critical family is re-evaluated directly (no collapsed
    sums), with the solved Poincare polynomials plugged in.  The result is
    the coefficient list for u^0 .. u^order and must be all zero.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError("rank must be a positive integer")
    if not isinstance(n, int) or n <= r:
        raise ValueError("need more edges than the rank")
    order = max(0, (r - 1) * (n - r - 1)) + margin
    total = poly_mul(gaussian_binomial(r, n).coeffs, _geom_coeffs(n - 1, order))
    del total[order + 1:]
    for lam in partitions(r):
        mfact = mult_factorial(lam)
        for rho in admissible_rho(lam, n):
            beta, s = morse_data(lam, rho, n)
            prod = [1]
            for p, k in zip(lam, rho):
                prod = poly_mul(prod, _poincare_coeffs(p, k))
            _subtract_term(total, prod, s, beta,
                           Fraction(multinomial(n, rho), mfact))
    return total


def dimensions(r: int, n: int) -> tuple[int, int]:
    """(complex dimension of the space, dimension of the Hitchin-type base).

    The base dimension is the telescoping sum of the section space
    dimensions n - 2i + 1 for i = 2 .. r and always equals half the space
    dimension.
    """
    if not isinstance(r, int) or r < 2:
        raise ValueError("rank must be at least 2")
    if not isinstance(n, int) or n <= r:
        raise ValueError("need more edges than the rank")
    dim_x = 2 * (r - 1) * (n - r - 1)
    dim_b = sum(n - 2 * i + 1 for i in range(2, r + 1))
    return dim_x, dim_b


def genericity_check(r: int, alpha: Sequence) -> GenericityReport:
    """Check the arithmetic genericity of a length vector.

    alpha is generic when r' * sum(alpha) - r * sum(alpha[S]) is nonzero for
    every 0 <= r' <= r and proper subset S of the edge set for which
    (r'-1)(|S|-r'-1) >= 0, the vacuous pair (0, empty set) excluded.  The
    first violating pair in (r', size, lexicographic) order is reported as a
    witness with 1-based edge indices.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError("rank must be a positive integer")
    avec = tuple(Fraction(a) for a in alpha)
    if not avec:
        raise ValueError("length vector must be nonempty")
    if any(a <= 0 for a in avec):
        raise ValueError("length vector entries must be positive")
    n = len(avec)
    total = sum(avec)
    for rprime in range(r + 1):
        for size in range(n):
            if (rprime - 1) * (size - rprime - 1) < 0:
                continue
            for subset in itertools.combinations(range(1, n + 1), size):
                if rprime == 0 and size == 0:
                    continue
                s_sum = sum(avec[i - 1] for i in subset)
                if rprime * total - r * s_sum == 0:
                    return GenericityReport(
                        r=r, alpha=avec, generic=False,
                        witness=(rprime, subset),
                    )
    return GenericityReport(r=r, alpha=avec, generic=True, witness=None)
