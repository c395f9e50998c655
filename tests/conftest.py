from fractions import Fraction

import pytest

# the worked 2x4 example threaded through the whole suite
X24 = ((1, 0, 1, 1), (0, 1, 1, 2))
Y24 = (
    (Fraction(0), Fraction(1)),
    (Fraction(2), Fraction(0)),
    (Fraction(2), Fraction(-2)),
    (Fraction(-2), Fraction(1)),
)


@pytest.fixture(scope="session")
def point24():
    from hyperpoly import quiver

    return quiver.exact_point_from_x(X24, alpha=[1, 1, 1, 1])


@pytest.fixture(scope="session")
def solved():
    """Memoized numerical solves shared across the whole run."""
    from hyperpoly import quiver

    cache: dict = {}

    def get(r, n, alpha=None, seed=0):
        avec = tuple(Fraction(a) for a in (alpha or [1] * n))
        key = (r, n, avec, seed)
        if key not in cache:
            cache[key] = quiver.solve_real(r, n, avec, seed=seed)
        return cache[key]

    return get
