"""The exact elimination of `linalg` against Fraction references.

`linalg._eliminate` eliminates forward, fraction-free, on numerator rows
(here the matrix cleared by `linalg._numerator_rows`, as `exact_rank`
clears it), and `linalg.back_substitute` solves its echelon rows for one
kernel vector.  The references below are the field Gauss-Jordan
elimination they replaced and the canonical kernel basis it gives, kept
here only.  Pivots must equal the reference's, and back-substituting d at
one free column must give the reference's basis vector times d, by value.
This module imports no numpy.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import linalg
from hyperpoly.exact import GaussianRational


# ---------------------------------------------------------------------------
# Fraction references

def _rref_reference(a):
    rows = [list(r) for r in a]
    if not rows:
        return (), ()
    p, q = len(rows), len(rows[0])
    pivots = []
    ri = 0
    for c in range(q):
        pivot = next((i for i in range(ri, p) if rows[i][c]), None)
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
    return linalg.mat(rows), tuple(pivots)


def _kernel_reference(a):
    reduced, pivots = _rref_reference(a)
    q = len(a[0])
    basis = []
    for fc in (c for c in range(q) if c not in pivots):
        v = [0] * q
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = -reduced[ri][fc]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# the elimination and its kernel

small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
gaussian = st.builds(GaussianRational, small, small)


@st.composite
def matrices(draw, entries):
    """Matrices of rank at most k, built as a product B C, with a duplicate
    row and a zero row (int or typed zeros) spliced in on request."""
    p = draw(st.integers(1, 5))
    q = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(p, q)))
    b = [[draw(entries) for _ in range(k)] for _ in range(p)]
    c = [[draw(entries) for _ in range(q)] for _ in range(k)]
    rows = [tuple(sum(b[i][l] * c[l][j] for l in range(k)) for j in range(q)) for i in range(p)]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), rows[draw(st.integers(0, p - 1))])
    if draw(st.booleans()):
        zero = draw(st.sampled_from([0, rows[0][0] * 0]))
        rows.insert(draw(st.integers(0, len(rows))), (zero,) * q)
    return tuple(rows)


def _over_d(rows, d) -> tuple:
    # a kernel vector keeps int zeros beside Gaussian numerators
    return tuple(
        tuple(Fraction(x) / d if type(x) is int else x / d for x in row) for row in rows
    )


def _eliminated(a) -> tuple[list, tuple, object]:
    """`_eliminate` on the numerator rows that `exact_rank` clears a to."""
    return linalg._eliminate(linalg._numerator_rows(a))


def _unit_vectors(a) -> tuple[list, tuple, object]:
    """(K, pivots, d): K holds, for each free column in order, the vector
    back-substituted from d there and 0 at the other free columns."""
    rows, pivots, d = _eliminated(a)
    q = len(a[0])
    basis = []
    for f in (c for c in range(q) if c not in pivots):
        v = [0] * q
        v[f] = d
        basis.append(linalg.back_substitute(rows, pivots, v))
    return basis, pivots, d


def _kernel(a) -> tuple[list, tuple]:
    """The unit vectors over d, with the pivots of `_eliminate`."""
    basis, pivots, d = _unit_vectors(a)
    return list(_over_d(basis, d)), pivots


def _reference(a) -> tuple[list, tuple]:
    return _kernel_reference(a), _rref_reference(a)[1]


def _assert_echelon(a):
    # every row of the forward pass is zero left of its pivot, the rows
    # past the rank are zero, and the pivot rows span the reference's row
    # space: their reduced form over d is the reference's
    rows, pivots, d = _eliminated(a)
    for row, c in zip(rows, pivots):
        assert row[c] and not any(row[:c])
    assert not any(v for row in rows[len(pivots):] for v in row)
    assert _rref_reference(_over_d(rows, d))[0][: len(pivots)] == _rref_reference(a)[0][: len(pivots)]
    assert d == (rows[len(pivots) - 1][pivots[-1]] if pivots else 1)


@settings(max_examples=80, deadline=None)
@given(matrices(small))
def test_pivots_and_kernel_match_reference_on_rationals(a):
    assert _kernel(a) == _reference(a)
    _assert_echelon(a)


@settings(max_examples=20, deadline=None)
@given(matrices(gaussian))
def test_pivots_and_kernel_match_reference_on_gaussians(a):
    assert _kernel(a) == _reference(a)
    _assert_echelon(a)


@settings(max_examples=20, deadline=None)
@given(matrices(st.one_of(small, gaussian)))
def test_mixed_entries_come_back_gaussian(a):
    # with real and complex entries mixed, the numerator ring is the
    # Gaussian one: every echelon row and every back-substituted pivot
    # value comes back as GaussianRationals; the field elimination kept
    # some of their entries as Fractions
    assert _kernel(a) == _reference(a)
    if any(isinstance(v, GaussianRational) for row in a for v in row):
        rows, pivots, _ = _eliminated(a)
        assert all(isinstance(v, GaussianRational) for row in rows[: len(pivots)] for v in row)
        for vec in _unit_vectors(a)[0]:
            assert all(isinstance(vec[c], GaussianRational) for c in pivots)


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(small), matrices(gaussian)))
def test_back_substituted_unit_vectors_are_the_kernel_basis(a):
    # zero rows and rank-deficient products included; the numerators stay
    # in the ring of the cleared entries, ints for rational input
    basis, pivots, d = _unit_vectors(a)
    assert _kernel(a) == _reference(a)
    assert len(basis) == len(a[0]) - linalg.exact_rank(a) == len(a[0]) - len(pivots)
    if all(isinstance(v, (int, Fraction)) for row in a for v in row):
        assert all(type(v) is int for vec in basis for v in vec)
        assert type(d) is int


@settings(max_examples=40, deadline=None)
@given(st.one_of(matrices(small), matrices(gaussian)), st.data())
def test_back_substitution_is_linear_in_the_free_values(a, data):
    # any free values that are multiples of d give the same combination of
    # the unit vectors, divided by d
    basis, pivots, d = _unit_vectors(a)
    coeffs = [data.draw(st.integers(-5, 5)) for _ in basis]
    q = len(a[0])
    values = [0] * q
    for c, vec in zip(coeffs, basis):
        for j in range(q):
            if j not in pivots:
                values[j] += c * vec[j]
    got = linalg.back_substitute(_eliminated(a)[0], pivots, values)
    assert got == [sum((c * vec[j] for c, vec in zip(coeffs, basis)), 0 * d) for j in range(q)]


@pytest.mark.parametrize("a,free", [
    (((2, 1),), [0, 1]),
    (((GaussianRational(2, 0), GaussianRational(1, 1)),), [0, GaussianRational(1, 0)]),
    # exact at the last pivot, 6 z2 = -12 z3, inexact at the first:
    # 3 z1 = -(z2 + z3) = 1
    (((3, 1, 1), (0, 2, 4)), [0, 0, 1]),
], ids=["int", "gaussian", "second-step"])
def test_back_substitution_refuses_an_inexact_division(a, free):
    rows, pivots, d = _eliminated(a)
    with pytest.raises(ArithmeticError):
        linalg.back_substitute(rows, pivots, free)
    # the same free values times d divide exactly
    vec = linalg.back_substitute(rows, pivots, [v * d for v in free])
    assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in a)
