"""Tests of the benchmark itself: tiny runs pass, corrupted results fail.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import BENCH, ROOT

import betti_cli
import checks
import pipelines
import run
from harness import Tracer, child_env, local_slowdowns, timed_loop
from hyperpoly import betti
from hyperpoly.exact import DensePoly
from hyperpoly.spectral import CharPoly

TINY_EXACT = ((2, 5), (3, 6), (4, 7))
TINY_FLOAT = ((2, 5), (3, 7), (4, 8))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ---------------------------------------------------------------------------
# independent references

def test_rank2_closed_form_matches_library_oracle():
    for n in range(3, 31):
        assert checks.rank2_closed_form(n) == betti.poincare_rank2(n).coeffs_u()


def test_kirwan_bound_series():
    # 1/((1-u)^5 (1-u)(1-u^2)) for r = 2, n = 6
    assert checks.kirwan_bound(2, 6, 3) == [1, 6, 22, 62]


def test_det_against_cofactor_expansion():
    m = [[Fraction(2), Fraction(-1), Fraction(3)],
         [Fraction(0), Fraction(5, 2), Fraction(1)],
         [Fraction(4), Fraction(1), Fraction(-2, 3)]]
    cof = sum(  # expansion along the first row, cyclic form
        m[0][j] * (m[1][(j + 1) % 3] * m[2][(j + 2) % 3] - m[1][(j + 2) % 3] * m[2][(j + 1) % 3])
        for j in range(3)
    )
    assert checks.det(m) == cof


# ---------------------------------------------------------------------------
# tiny runs of each workload

def test_tiny_betti_cli_run_passes():
    res, peak_mb = betti_cli.run(
        0, 0, Tracer(False), child_env(ROOT), single=((2, 5), (5, 7), (8, 20)), sweep=(3, 9)
    )
    assert (res.attempted, res.failed, res.problems) == (4, 0, [])
    assert peak_mb > 0


def test_tiny_exact_pipeline_run_keeps_its_fault():
    tracer = Tracer(True)
    res = timed_loop(
        lambda i: pipelines.exact_round(3, i, grid=TINY_EXACT), pipelines.exact_op,
        pipelines.exact_check, 0, tracer,
    )
    assert res.problems == []
    assert (res.attempted, res.failed) == (4, 1)  # the rank-6 OverflowError
    assert len(res.ref_s) == res.attempted + 1 == len(res.op_s) + 1
    assert tracer.per_op(local_slowdowns(res.ref_s))["spectral.charpoly"] > 0


def test_tiny_float_pipeline_run_keeps_its_faults():
    res = timed_loop(
        lambda i: pipelines.float_round(3, i, grid=TINY_FLOAT, per_point=2),
        pipelines.float_op, pipelines.float_check, 0, Tracer(False),
    )
    assert res.problems == []
    assert (res.attempted, res.failed) == (8, 2)  # the n = 14 rank deficits
    assert sum(s["rank_deficit"] for s in res.stats) == 4 + 7


def test_inputs_follow_the_seed():
    assert pipelines.exact_round(5, 2) == pipelines.exact_round(5, 2)
    assert pipelines.exact_round(5, 2) != pipelines.exact_round(6, 2)
    assert pipelines.float_round(5, 0) != pipelines.float_round(5, 1)
    assert betti_cli.make_round(5, 0) == betti_cli.make_round(5, 0)


def test_command_prints_every_metric_and_a_steady_failed_share():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "float-pipeline", "--seed", "4", "--seconds", "0.5",
                      "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] * 29 == result["attempted"] * 2
        want = {(m["name"], m["unit"]) for m in spec[key]}
        assert {(k, v["unit"]) for k, v in result["metrics"].items()} == want


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "betti-cli", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# corrupted results are caught

def test_betti_coefficient_off_by_one_is_caught():
    good = betti.poincare(3, 20).coeffs_u()
    assert checks.check_betti(3, 20, good) == []
    for k in (0, 1, 2):  # the bound is tight below degree r
        bad = list(good)
        bad[k] += 1
        assert checks.check_betti(3, 20, bad)
    assert checks.check_betti(3, 20, good[:-1])


def test_rank_n_minus_2_row_off_by_one_is_caught():
    op = betti_cli.BettiOp(8, 10, False)
    good = {"coeffs_u": betti.poincare(8, 10).coeffs_u()}
    assert betti_cli.check_op(op, good)[0] == []
    bad = {"coeffs_u": list(good["coeffs_u"])}
    bad["coeffs_u"][3] -= 1
    assert betti_cli.check_op(op, bad)[0]


def test_dual_mismatch_is_caught():
    good = betti.poincare(4, 9).coeffs_u()
    dual = betti.poincare(5, 9).coeffs_u()
    assert checks.check_duality(4, 9, good, dual) == []
    bad = list(good)
    bad[len(bad) // 2] += 1
    assert checks.check_duality(4, 9, bad, dual)


@pytest.fixture(scope="module")
def exact_out():
    op = pipelines.exact_round(7, 0, grid=((3, 7),), faults=())[0]
    return pipelines.exact_op(op, Tracer(False))


def test_exact_outputs_pass(exact_out):
    assert checks.check_exact(exact_out) == []


def test_changed_charpoly_coefficient_is_caught(exact_out):
    cp = exact_out["cp"]
    c = dict(cp.c)
    coeffs = list(c[2].coeffs)
    coeffs[1] += 1
    c[2] = DensePoly(coeffs, "z")
    bad = dict(exact_out, cp=CharPoly(r=cp.r, n=cp.n, c=c, marked_points=cp.marked_points))
    assert checks.check_exact(bad)


def test_changed_base_coefficient_is_caught(exact_out):
    base = exact_out["base"]
    g = dict(base.g)
    g[3] = (g[3][0] + 1,) + tuple(g[3][1:])
    bad = dict(exact_out, base=dataclasses.replace(base, g=g))
    assert checks.check_exact(bad)


def test_point_off_the_fiber_is_caught(exact_out):
    pt = exact_out["pt"]
    y = [list(row) for row in pt.y]
    y[0][0] += 1
    bad_pt = dataclasses.replace(pt, y=tuple(tuple(row) for row in y))
    assert checks.check_exact(dict(exact_out, pt=bad_pt, orig=bad_pt))


def test_point_on_the_nilpotent_cone_passes():
    # seed 203's first round draws a (2, 8) point whose charpoly is lam^2
    op = pipelines.exact_round(203, 0)[0]
    out = pipelines.exact_op(op, Tracer(False))
    assert not any(poly for poly in out["cp"].c.values())
    problems, stats = pipelines.exact_check(op, out)
    assert problems == [] and stats["c_bits"] == 0


@pytest.fixture(scope="module")
def float_out():
    op = pipelines.float_round(7, 0, grid=((3, 7),), per_point=1, faults=())[0]
    return pipelines.float_op(op, Tracer(False))


def test_float_outputs_pass(float_out):
    problems, err = checks.check_float(float_out)
    assert problems == [] and err < checks.BASE_MAP_REL_TOL


def test_float_rank_deficit_and_base_error_are_caught(float_out):
    jac = float_out["jac"]
    assert checks.check_float(dict(float_out, jac=dataclasses.replace(jac, rank=jac.rank - 1)))[0]
    base = float_out["base"]
    g = dict(base.g)
    g[2] = tuple(c * (1 + 1e-5) for c in g[2])
    assert checks.check_float(dict(float_out, base=dataclasses.replace(base, g=g)))[0]
