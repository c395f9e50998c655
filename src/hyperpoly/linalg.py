"""Small generic matrix helpers.

Matrices are tuples of tuples of scalars.  The same code serves exact
entries (int, Fraction, GaussianRational) and floating entries (float,
complex) because every scalar type used here supports field arithmetic,
``.conjugate()`` and ``.real``.  The ring helpers (`identity`, `mat_add`,
`mat_scale`, `mat_mul`, `mat_trace`) need only ring arithmetic with the
integers 0 and 1, so they also serve matrices of `exact.DensePoly`
entries.
"""

from __future__ import annotations

from typing import Sequence

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


def zeros(p: int, q: int) -> Matrix:
    return tuple((0,) * q for _ in range(p))


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
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
        for row in a
    )


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
    out = identity(len(a))
    base = a
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def rref(a: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form over an exact field, with pivot columns."""
    rows = [list(r) for r in a]
    if not rows:
        return (), ()
    p, q = len(rows), len(rows[0])
    pivots = []
    ri = 0
    for c in range(q):
        pivot = None
        for i in range(ri, p):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[ri], rows[pivot] = rows[pivot], rows[ri]
        inv = rows[ri][c]
        rows[ri] = [x / inv for x in rows[ri]]
        for i in range(p):
            if i != ri and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[ri])]
        pivots.append(c)
        ri += 1
        if ri == p:
            break
    return mat(rows), tuple(pivots)


def exact_rank(a: Matrix) -> int:
    return len(rref(a)[1])


def kernel_basis(a: Matrix) -> list[tuple]:
    """Basis of the right kernel of an exact matrix, in standard form."""
    if not a:
        return []
    reduced, pivots = rref(a)
    q = len(a[0])
    free = [c for c in range(q) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * q
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = -reduced[ri][fc]
        basis.append(tuple(v))
    return basis
