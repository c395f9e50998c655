"""Small generic matrix helpers.

Matrices are tuples of tuples of scalars.  The arithmetic helpers serve
exact entries (int, Fraction, GaussianRational) and floating entries
(float, complex) alike, because every scalar type used here supports field
arithmetic, ``.conjugate()`` and ``.real``.  The one exact elimination,
`_eliminate`, does not run on the entries themselves: it eliminates
forward, fraction-free, on numerator rows (ints, or GaussianRationals with
integral parts).  `exact_rank` clears its matrix once and reads the
pivots; `quiver._fiber_kernel` hands over its integral fiber equations
x y = 0 as they are and back-substitutes one vector of their kernel
through the echelon rows (`back_substitute`), each division exact.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .exact import numerators

Matrix = tuple[tuple, ...]


def norm_sq(v):
    """|v|^2 as an exact rational (or float for float inputs)."""
    return (v * v.conjugate()).real


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def identity(n: int) -> Matrix:
    return tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(a: Matrix, c) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # each entry is the sum of row[k] * col[k] in k order, formed in C
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_trace(a: Matrix):
    return sum(a[i][i] for i in range(len(a)))


def conj_t(a: Matrix) -> Matrix:
    p, q = shape(a)
    return tuple(
        tuple(a[i][j].conjugate() for i in range(p)) for j in range(q)
    )


def frob_sq(a: Matrix):
    """Squared Frobenius norm; exact for exact entries."""
    return sum(norm_sq(x) for row in a for x in row)


def mat_pow(a: Matrix, k: int) -> Matrix:
    # binary powering from the lowest set bit of k, so no product I * A is
    # taken; the square past the top bit of k is never taken either
    out = None
    base = a
    while k:
        if k & 1:
            out = base if out is None else mat_mul(out, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return identity(len(a)) if out is None else out


def _numerator_rows(a: Matrix) -> list:
    """The rows of a cleared to numerators over one denominator, as lists."""
    q = len(a[0])
    nums, _ = numerators(v for row in a for v in row)
    return [nums[i * q:(i + 1) * q] for i in range(len(a))]


def _eliminate(rows: list) -> tuple[list, tuple[int, ...], object]:
    """Fraction-free forward elimination (Bareiss), in place, on rows of
    numerators, ints or GaussianRationals with integral parts (int zeros
    among the latter are fine): (rows, pivots, d), the echelon rows, the
    pivot columns and the last pivot d.  At each pivot c every row below
    becomes (pivot * row - row[c] * pivot_row) // previous pivot from
    column c on (it is zero left of c); that division is exact and every
    entry stays a minor of the input.
    """
    p, q = len(rows), len(rows[0])
    pivots = []
    prev = 1
    for c in range(q):
        ri = len(pivots)
        pivot = next((i for i in range(ri, p) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[ri], rows[pivot] = rows[pivot], rows[ri]
        top = rows[ri][c:]
        lead = top[0]
        for row in rows[ri + 1:]:
            f = row[c]
            if f:
                row[c:] = [(lead * x - f * y) // prev for x, y in zip(row[c:], top)]
            else:
                row[c:] = [lead * x // prev for x in row[c:]]
        prev = lead
        pivots.append(c)
        if len(pivots) == p:
            break
    return rows, tuple(pivots), prev


def exact_rank(a: Matrix) -> int:
    return len(_eliminate(_numerator_rows(a))[1]) if a else 0


def back_substitute(rows: list, pivots: tuple[int, ...], values: list) -> list:
    """The kernel vector of `_eliminate`'s echelon rows with the given free
    values: one entry per column, multiples of the last pivot d at the free
    columns; the pivot columns are filled, last pivot first, with the
    integral solution.  Every division is then exact; one that is not
    raises ArithmeticError.
    """
    values = list(values)
    for row, c in zip(reversed(rows[:len(pivots)]), reversed(pivots)):
        lead = row[c]
        s = -sum(map(mul, row[c + 1:], values[c + 1:]), 0 * lead)
        values[c] = v = s // lead
        if v * lead != s:
            raise ArithmeticError(f"non-integral kernel entry at column {c}")
    return values
