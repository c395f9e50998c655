"""Acceptance gate: one test per criterion, one verdict line each.

Every test prints a single PASS line on success (visible with -rA or -s);
a failure reads as the pytest failure for that criterion.  Budgeted
criteria assert their own wall-clock limits.
"""

import itertools
import math
import time
from fractions import Fraction


from hyperpoly.betti import (
    dimensions,
    poincare,
    poincare_rank2,
    recursion_residual,
)
from hyperpoly.exact import DensePoly, poly_from_roots
from hyperpoly.hitchin import (
    commutation_report,
    delta_check,
    hitchin_map,
    jacobian_rank,
    residues,
)
from hyperpoly.quiver import (
    exact_point_from_x,
    min_orbit_check,
    sample_exact,
    solve_real,
)
from hyperpoly.spectral import (
    local_models,
    order_check,
    spectral_charpoly,
    trace_consistency,
    twist,
)
from hyperpoly import cli

from conftest import X24


def _report(line):
    print(line)


def test_c01_rank2_closed_form_oracle():
    start = time.monotonic()
    for n in range(3, 13):
        assert poincare(2, n).coeffs_u() == poincare_rank2(n).coeffs_u(), n
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(f"PASS 01 closed-form oracle agreement, n = 3..12 ({elapsed:.2f}s)")


def test_c02_low_rank_fixture_values():
    assert poincare(2, 4).coeffs_u() == [1, 4]
    assert poincare(2, 3).coeffs_u() == [1]
    _report("PASS 02 fixture values 1 + 4u and 1")


def test_c03_recursion_residual_vanishes():
    start = time.monotonic()
    cases = [(r, n) for r in range(2, 5) for n in range(r + 1, 10)]
    cases.append((3, 12))
    for r, n in cases:
        res = recursion_residual(r, n, margin=5)
        assert not any(res), (r, n)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        f"PASS 03 recursion residual zero on {len(cases)} cases ({elapsed:.2f}s)"
    )


def test_c04_truncation_stability():
    cases = [(r, n) for r in range(2, 5) for n in range(r + 1, 10)]
    cases.append((3, 12))
    for r, n in cases:
        pp = poincare(r, n, margin=5)
        top = (r - 1) * (n - r - 1)
        # trailing zeros are normalized away, so length bounds the degree
        assert len(pp.poly.coeffs) <= top + 1, (r, n)
    _report(f"PASS 04 coefficients above the dimension bound vanish")


def test_c05_betti_sanity():
    for r in range(1, 5):
        for n in range(r + 1, 13):
            cs = poincare(r, n).coeffs_u()
            assert cs[0] == 1, (r, n)
            assert all(isinstance(c, int) and c >= 0 for c in cs), (r, n)
    _report("PASS 05 nonnegative integer coefficients, constant term 1")


def test_c06_dimension_identity():
    for r in range(2, 50):
        for n in range(r + 1, 51):
            dim_x, dim_b = dimensions(r, n)
            assert dim_x == 2 * (r - 1) * (n - r - 1)
            assert dim_b == (r - 1) * (n - r - 1)
            assert dim_b == sum(n - 2 * i + 1 for i in range(2, r + 1))
    _report("PASS 06 dimension identity for 2 <= r < n <= 50")


def test_c07_profile_emission(tmp_path, capsys):
    start = time.monotonic()
    outputs = {}
    for r, n in [(3, 20), (3, 100)]:
        runs = []
        for tag in ("a", "b"):
            path = tmp_path / f"profile_{n}_{tag}.csv"
            code = cli.main(
                ["plot-data", "-r", str(r), "-n", str(n), "-o", str(path)]
            )
            assert code == 0
            runs.append(path.read_bytes())
        assert runs[0] == runs[1], (r, n)
        outputs[(r, n)] = runs[0]
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    assert len(outputs[(3, 20)].splitlines()) == 33
    assert len(outputs[(3, 100)].splitlines()) == 193
    capsys.readouterr()
    _report(f"PASS 07 deterministic profiles for (3,20) and (3,100) ({elapsed:.2f}s)")


def test_c08_poisson_commutation():
    start = time.monotonic()
    checked = 0
    for r, n in [(2, 5), (3, 6), (3, 7)]:
        for seed in range(20):
            pt = sample_exact(r, n, seed=seed)
            rep = commutation_report(pt)
            assert rep.all_zero, (r, n, seed)
            checked += len(rep.pairs)
    # float mode on solver-produced points
    for r, n in [(2, 5), (3, 6), (3, 7)]:
        pt = solve_real(r, n, tuple(Fraction(1) for _ in range(n)), seed=0)
        rep = commutation_report(pt)
        assert rep.max_rel < 1e-8, (r, n, rep.max_rel)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        f"PASS 08 {checked} exact brackets identically zero, float < 1e-8 rel"
        f" ({elapsed:.2f}s)"
    )


def test_c09_bracket_kernel_identity():
    points = [
        exact_point_from_x(X24),
        sample_exact(2, 4, seed=1),
        sample_exact(2, 5, seed=0),
        sample_exact(2, 5, seed=1),
        sample_exact(3, 6, seed=0),
    ]
    for pt in points:
        n = pt.n
        zs = [Fraction(n + k) for k in range(1, 6)]
        pairs = list(itertools.combinations(zs, 2))
        assert len(pairs) == 10
        for z, w in pairs:
            assert delta_check(pt, z, w) == 0, (pt.r, pt.n, z, w)
    _report("PASS 09 two-pole kernel identity exact on 5 points x 10 pairs")


def test_c10_jacobian_rank_functional_independence():
    expected = {(2, 5): 2, (3, 6): 4, (3, 7): 6}
    for (r, n), dim_b in expected.items():
        for seed in range(5):
            pt = solve_real(r, n, tuple(Fraction(1) for _ in range(n)), seed=seed)
            rep = jacobian_rank(pt, threshold=1e-8)
            assert rep.dim_b == dim_b
            assert rep.rank == dim_b, (r, n, seed, rep.singular_values)
    # rank-4 behavior is recorded, not asserted: the trace-power family is
    # only proven independent for low rank
    pt48 = solve_real(4, 8, tuple(Fraction(1) for _ in range(8)), seed=0)
    rep48 = jacobian_rank(pt48, threshold=1e-8)
    _report(
        "PASS 10 jacobian rank = base dimension on 5 solver points each"
        f" (observed rank {rep48.rank} of dim {rep48.dim_b} at (4,8), recorded)"
    )


def test_c11_spectral_order_bounds():
    start = time.monotonic()
    for r, n in [(3, 7), (4, 8), (5, 9)]:
        for seed in range(10):
            pt = sample_exact(r, n, seed=seed)
            cp = spectral_charpoly(twist(residues(pt)))
            rep = order_check(cp)
            assert rep.all_pass, (r, n, seed)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(f"PASS 11 vanishing-order bounds at 30 exact points ({elapsed:.2f}s)")


def test_c12_local_normalization_models():
    rank3, rank4 = local_models(seed=0)
    z = DensePoly.gen("z")
    assert rank3.charpoly.c[1].is_zero()
    assert rank3.charpoly.c[2] == -z
    assert rank3.charpoly.c[3] == -(z ** 2)
    from hyperpoly.linalg import exact_rank, frob_sq, mat_mul

    for fix, rank in ((rank3, 1), (rank4, 2)):
        assert exact_rank(fix.residue) == rank
        assert frob_sq(mat_mul(fix.residue, fix.residue)) == 0
    assert min_orbit_check(rank3.residue) is True
    assert min_orbit_check(rank4.residue) is False
    _report("PASS 12 normalization models: charpoly, residue ranks, orbit test")


def test_c13_hitchin_fixture():
    pt = exact_point_from_x(X24)
    base = hitchin_map(residues(pt))
    assert base.g == {2: (Fraction(20),)}
    cp = spectral_charpoly(twist(residues(pt)))
    assert cp.c[2] == DensePoly([-10]) * poly_from_roots([1, 2, 3, 4])
    assert trace_consistency(residues(pt)).ok
    _report("PASS 13 base value g_2 = [20] and c_2 = -10(z-1)(z-2)(z-3)(z-4)")


def test_c14_solver_convergence():
    from hyperpoly.quiver import moment_residual

    for r, n in [(2, 4), (2, 5), (3, 6)]:
        alpha = tuple([Fraction(1)] * (n - 1) + [Fraction(2)])
        pt = solve_real(r, n, alpha, seed=0, tol=1e-9, restarts=10)
        res = moment_residual(pt)
        assert math.sqrt(float(res.real_norm + res.complex_norm)) < 1e-9
        for i in range(n):
            assert min_orbit_check(pt.residue(i), tol=1e-8), (r, n, i)
    _report("PASS 14 solver reaches 1e-9 and residues sit on the minimal orbit")
