import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import cli
from hyperpoly.quiver import QuiverPoint, sample_exact

from conftest import X24


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_betti_csv_bytes(capsys):
    code, out, _ = run(capsys, "betti", "-r", "2", "-n", "4", "--format", "csv")
    assert code == 0
    assert out == "0,1\n2,4\n"


def test_betti_json(capsys):
    code, out, _ = run(capsys, "betti", "-r", "2", "-n", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"r": 2, "n": 5, "coeffs_u": [1, 5, 11]}


def test_betti_invalid_rank(capsys):
    code, _, err = run(capsys, "betti", "-r", "0", "-n", "4")
    assert code == 3
    assert "rank" in err


def test_usage_error_exits_3():
    with pytest.raises(SystemExit) as exc:
        cli.main(["betti", "--bogus"])
    assert exc.value.code == 3


def test_no_subcommand_exits_3():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 3


def test_betti_table_csv(capsys):
    code, out, _ = run(
        capsys, "betti-table", "-r", "2", "--n-max", "4", "--format", "csv"
    )
    assert code == 0
    assert out == "2,3,0,1\n2,4,0,1\n2,4,2,4\n"


def test_betti_table_bad_range(capsys):
    code, _, err = run(capsys, "betti-table", "-r", "3", "--n-max", "3")
    assert code == 3


def test_genericity_witness(capsys):
    code, out, _ = run(capsys, "genericity", "-r", "2", "--alpha", "1,1,1,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["generic"] is False
    assert obj["witness"] == {"rprime": 1, "S": [1, 2]}


def test_genericity_generic_vector(capsys):
    code, out, _ = run(capsys, "genericity", "-r", "2", "--alpha", "1,1,1,2")
    assert code == 0
    obj = json.loads(out)
    assert obj["generic"] is True and obj["witness"] is None


def test_genericity_rational_alpha(capsys):
    code, out, _ = run(capsys, "genericity", "-r", "2", "--alpha", "1/2,1/2,1/2,1")
    assert code == 0
    assert json.loads(out)["alpha"] == ["1/2", "1/2", "1/2", "1/1"]


def test_sample_roundtrip(tmp_path, capsys):
    path = tmp_path / "pt.json"
    code, _, _ = run(capsys, "sample", "-r", "2", "-n", "5", "--seed", "3",
                     "-o", str(path))
    assert code == 0
    text = path.read_text()
    pt = QuiverPoint.loads(text)
    assert pt.flavor == "exact"
    assert pt.dumps() == text


def test_commute_exact_rank6(tmp_path, capsys):
    path = tmp_path / "pt.json"
    code, _, _ = run(capsys, "sample", "-r", "6", "-n", "8", "--seed", "0",
                     "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "commute", "--point", str(path))
    assert code == 0
    assert json.loads(out)["all_zero"] is True


def test_exact_point_with_json_integer_stays_exact(tmp_path, capsys):
    # a hand-edited exact point may write the entry "3/1" as the integer 3
    obj = json.loads(sample_exact(2, 4, seed=0).dumps())
    assert obj["x"][0][1] == "3/1"
    obj["x"][0][1] = 3
    path = tmp_path / "int_entry.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "hitchin", "--point", str(path))
    assert code == 0
    assert json.loads(out) == {"g": {"2": ["1133196480/1"]}}
    code, out, _ = run(capsys, "commute", "--point", str(path))
    assert code == 0
    assert json.loads(out)["all_zero"] is True


def test_sample_determinism(capsys):
    code1, out1, _ = run(capsys, "sample", "-r", "3", "-n", "6", "--seed", "9")
    code2, out2, _ = run(capsys, "sample", "-r", "3", "-n", "6", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_trivial_fiber(capsys):
    code, _, err = run(capsys, "sample", "-r", "2", "-n", "3")
    assert code == 1


def test_solve_then_commute_and_jacobian(tmp_path, capsys):
    path = tmp_path / "solved.json"
    code, _, _ = run(capsys, "sample", "-r", "2", "-n", "4", "--solve",
                     "--alpha", "1,1,1,2", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "commute", "--point", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["flavor"] == "float"
    assert rep["max_rel"] < 1e-8

    code, out, _ = run(capsys, "jacobian", "--point", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["dim_b"] == 1
    assert rep["rank"] == 1


def test_jacobian_below_2r_minus_1_exits_3(tmp_path, capsys):
    path = tmp_path / "pt58.json"
    assert run(capsys, "sample", "-r", "5", "-n", "8", "-o", str(path))[0] == 0
    code, out, err = run(capsys, "jacobian", "--point", str(path))
    assert (code, out) == (3, "")
    assert "dual level (3, 8)" in err


def test_point_commands_with_shifted_marked_points(tmp_path, capsys):
    # evaluation points must clear the largest marked point, not n
    for argv, first in ((("-r", "2", "-n", "4"), 5), (("-r", "2", "-n", "5", "--solve"), 6)):
        code, out, _ = run(capsys, "sample", *argv)
        assert code == 0
        obj = json.loads(out)
        obj["marked_points"] = [f"{first + i}/1" for i in range(obj["n"])]
        path = tmp_path / f"shifted_{obj['flavor']}.json"
        path.write_text(json.dumps(obj))
        for cmd in ("hitchin", "commute", "jacobian"):
            code, _, err = run(capsys, cmd, "--point", str(path))
            assert code == 0, (obj["flavor"], cmd, err)


def _exit_code(capsys, *argv):
    # argparse rejects an option value by raising SystemExit
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    capsys.readouterr()
    return code


def test_zero_denominator_exits_3(capsys):
    assert _exit_code(capsys, "genericity", "-r", "2", "--alpha", "1/0,1") == 3
    assert _exit_code(capsys, "sample", "-r", "2", "-n", "4",
                      "--alpha", "1/0,1,1,1") == 3


def test_alpha_of_wrong_size_exits_3(tmp_path, capsys):
    assert _exit_code(capsys, "sample", "-r", "2", "-n", "4", "--alpha", "1,1") == 3
    obj = json.loads(sample_exact(2, 4, seed=0, alpha=(1, 1, 1, 2)).dumps())
    obj["alpha"] = ["1/1", "1/1"]
    path = tmp_path / "short_alpha.json"
    path.write_text(json.dumps(obj))
    for cmd in ("hitchin", "commute", "jacobian", "spectral"):
        assert _exit_code(capsys, cmd, "--point", str(path)) == 3, cmd


def test_nonpositive_alpha_exits_3(tmp_path, capsys):
    for alpha in ("0,1,1,1", "-1,1,1,1", "1,1,-1/2,1"):
        assert _exit_code(capsys, "sample", "-r", "2", "-n", "4", f"--alpha={alpha}") == 3
    obj = json.loads(sample_exact(2, 4, seed=0, alpha=(1, 1, 1, 2)).dumps())
    obj["alpha"] = ["0/1", "1/1", "1/1", "1/1"]
    path = tmp_path / "zero_alpha.json"
    path.write_text(json.dumps(obj))
    for cmd in ("hitchin", "commute", "jacobian", "spectral"):
        code, _, err = run(capsys, cmd, "--point", str(path))
        assert code == 3, cmd
        assert "length vector entries must be positive" in err


def test_alpha_outside_the_float_range_exits_3(capsys):
    code, out, err = run(capsys, "sample", "-r", "2", "-n", "5", "--solve",
                         "--alpha", "1,1,1,1,1e400")
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: length vector entry 5 is outside the float range"]


def test_negative_solver_seed_exits_3(capsys):
    code, out, err = run(capsys, "sample", "-r", "2", "-n", "4", "--solve", "--seed", "-1")
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: seed must be a non-negative integer, got -1"]
    # the exact sampler takes any seed
    assert run(capsys, "sample", "-r", "2", "-n", "4", "--seed", "-1")[0] == 0


@pytest.mark.parametrize("argv, code, last", [
    # a nilpotent-cone point: c_2 = 0, so the discriminant vanishes
    (("-r", "2", "-n", "4", "--seed", "1"), 0,
     "spectral curve: degenerate discriminant: the curve is non-reduced"),
    (("-r", "2", "-n", "3"), 1, None),
])
def test_verify_point_script_ends_without_a_traceback(argv, code, last):
    script = Path(__file__).parents[1] / "scripts" / "verify_point.py"
    proc = subprocess.run([sys.executable, str(script), *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if last is None:
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: trivial fiber: only y = 0 satisfies the equations at r=2, n=3"
        ]
    else:
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == last


def test_alpha_sum_outside_the_float_range_exits_3():
    # each entry fits a float but their sum does not; a fresh interpreter
    # shows the warnings that pytest would otherwise collect
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hyperpoly.cli", "sample", "-r", "2", "-n", "4",
         "--solve", "--alpha", "1e308,1e308,1e308,1e308"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: length vector sum is outside the float range"
    ]


@pytest.mark.parametrize("big", ["1e100", "1e200"])
def test_huge_alpha_entry_ends_in_one_error_line(big):
    # the sum fits a float, but squares of entries of size sqrt(alpha)
    # overflow; such candidates are rejected and the solve fails cleanly
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "hyperpoly.cli", "sample", "-r", "2", "-n", "4",
         "--solve", "--alpha", f"{big},1,1,1"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: no point below tol=1e-09")
    best = float(line.rsplit(" ", 1)[1])
    assert math.isfinite(best) and best > 0


def test_numeric_options_out_of_range_exit_3(tmp_path, capsys):
    path = tmp_path / "pt.json"
    path.write_text(sample_exact(2, 4, seed=0).dumps())
    point = ("--point", str(path))
    for argv in (
        ("commute", *point, "--tol", "nan"),
        ("commute", *point, "--tol", "0"),
        ("jacobian", *point, "--threshold", "nan"),
        ("jacobian", *point, "--threshold", "2"),
        ("sample", "-r", "2", "-n", "4", "--solve", "--tol", "inf"),
        ("sample", "-r", "2", "-n", "4", "--solve", "--max-iter", "-1"),
        ("sample", "-r", "2", "-n", "4", "--solve", "--restarts", "0"),
    ):
        assert _exit_code(capsys, *argv) == 3, argv


def test_solve_nonconvergence_exit2(capsys):
    code, _, err = run(capsys, "sample", "-r", "2", "-n", "4", "--solve",
                       "--tol", "1e-30", "--max-iter", "4", "--restarts", "1")
    assert code == 2
    assert "residual" in err


def test_hitchin_pipeline(tmp_path, capsys):
    from hyperpoly.quiver import exact_point_from_x

    path = tmp_path / "fix.json"
    path.write_text(exact_point_from_x(X24).dumps())
    code, out, _ = run(capsys, "hitchin", "--point", str(path))
    assert code == 0
    assert json.loads(out) == {"g": {"2": ["20/1"]}}

    code, out, _ = run(capsys, "spectral", "--point", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["c"]["2"] == ["-240/1", "500/1", "-350/1", "100/1", "-10/1"]

    code, out, _ = run(capsys, "spectral", "--point", str(path),
                       "--check-orders")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.endswith(",true") for line in lines)


def test_hitchin_rejects_tampered_point(tmp_path, capsys):
    from hyperpoly.quiver import exact_point_from_x

    obj = json.loads(exact_point_from_x(X24).dumps())
    obj["y"][0][0] = "7/1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "hitchin", "--point", str(path))
    assert code == 1
    assert "moment" in err


def test_float_point_whose_residues_do_not_sum_to_zero_exits_1(tmp_path, capsys):
    # y_1 = 3 (-x_21, x_11) keeps y_1 x_1 = 0, but the residues sum to a
    # matrix 1.04 times the largest of them, at every scale: scaled by 100
    # the point is still refused, and no command reports on it
    obj = json.loads(sample_exact(2, 5, seed=0).dumps())
    obj["flavor"] = "float"
    for key in ("x", "y"):
        obj[key] = [[float(Fraction(v)) * 100 for v in row] for row in obj[key]]
    obj["y"][0] = [-3 * obj["x"][1][0], 3 * obj["x"][0][0]]
    path = tmp_path / "off_sum.json"
    path.write_text(json.dumps(obj))
    for cmd in ("hitchin", "commute", "jacobian", "spectral"):
        code, out, err = run(capsys, cmd, "--point", str(path))
        assert (code, out) == (1, ""), cmd
        assert err == "error: complex moment map violated: residues do not sum to zero\n"


def test_point_file_errors(tmp_path, capsys):
    code, _, _ = run(capsys, "hitchin", "--point", str(tmp_path / "nope.json"))
    assert code == 3
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "hitchin", "--point", str(bad))
    assert code == 3
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"r": 2}))
    code, _, _ = run(capsys, "hitchin", "--point", str(partial))
    assert code == 3
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([1, 2]))
    code, _, _ = run(capsys, "hitchin", "--point", str(listed))
    assert code == 3
    obj = json.loads(sample_exact(2, 4, seed=0).dumps())
    obj["y"][0][0] = "1/0"
    zero_den = tmp_path / "zero_den.json"
    zero_den.write_text(json.dumps(obj))
    code, _, _ = run(capsys, "hitchin", "--point", str(zero_den))
    assert code == 3
    # entries beyond the float range: a float point whose products
    # overflow, a NaN entry, and an exact point that has no float copy
    clean = json.loads(sample_exact(2, 4, seed=0).dumps())

    def scaled(rows, f):
        return [[f(Fraction(v)) for v in row] for row in rows]

    huge_float = dict(
        clean,
        flavor="float",
        x=scaled(clean["x"], lambda v: float(v) * 1e200),
        y=scaled(clean["y"], lambda v: float(v) * 1e200),
    )
    nan_float = dict(huge_float, x=[[float("nan")] * 4, huge_float["x"][1]])
    for name, bad_obj, cmds in (
        ("huge_float", huge_float, ("hitchin", "commute")),
        ("nan_float", nan_float, ("hitchin", "commute", "jacobian", "spectral")),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad_obj))
        for cmd in cmds:
            code, out, err = run(capsys, cmd, "--point", str(path))
            assert (code, out) == (3, ""), (name, cmd)
            assert err.startswith("error: ")
    huge_exact = dict(
        clean,
        x=scaled(clean["x"], lambda v: str(v * 10 ** 400)),
        y=scaled(clean["y"], lambda v: str(v / 10 ** 400)),
    )
    path = tmp_path / "huge_exact.json"
    path.write_text(json.dumps(huge_exact))
    for cmd, want in (("hitchin", 0), ("commute", 0), ("spectral", 0), ("jacobian", 3)):
        code, _, _ = run(capsys, cmd, "--point", str(path))
        assert code == want, cmd
    no_edges = dict(obj, n=0, x=[[], []], y=[], marked_points=[])
    no_rank = dict(obj, r=0, x=[], y=[[] for _ in obj["y"]])
    # r and n must be JSON integers, never truncated floats or bools
    float_shape = dict(clean, r=2.9, n=4.5)
    bool_rank = dict(
        clean, r=True, x=clean["x"][:1], y=[row[:1] for row in clean["y"]]
    )
    # an exact point takes "p/q" strings and JSON integers, never floats
    float_entry = copy.deepcopy(clean)
    float_entry["x"][0][1] = 3.0
    float_complex = copy.deepcopy(clean)
    float_complex["x"][0][1] = {"re": 3.0, "im": 0.0}
    for name, bad_shape in (
        ("no_edges", no_edges),
        ("no_rank", no_rank),
        ("float_shape", float_shape),
        ("bool_rank", bool_rank),
        ("float_entry", float_entry),
        ("float_complex", float_complex),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad_shape))
        for cmd in ("hitchin", "commute", "jacobian", "spectral"):
            code, _, _ = run(capsys, cmd, "--point", str(path))
            assert code == 3, (name, cmd)


# x_11 = 1e200 passes the float moment check, whose tolerance is relative
# to the entry scale, but overflows phi(z)^2
_HUGE_ENTRY_POINT = {
    "r": 2, "n": 4, "flavor": "float", "alpha": None,
    "marked_points": ["1/1", "2/1", "3/1", "4/1"],
    "x": [[1e200, 3, -8, -7], [-9, -6, -4, 6]],
    "y": [[760, -760], [-1482, -741], [-702, 1404], [-810, -945]],
}


def test_float_base_map_overflow_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "huge_entry.json"
    path.write_text(json.dumps(_HUGE_ENTRY_POINT))
    code, out, err = run(capsys, "hitchin", "--point", str(path))
    assert (code, out) == (3, "")
    assert err == "error: base map g_2 outside the float range\n"


def test_float_point_with_huge_rational_entries_exits_3(tmp_path, capsys):
    # x_11 = y_11 = 10^200 as "p/q" strings: each is inside the float
    # range, but their product squared is not.  The entries are read as
    # floats, so the commands take the float range checks of a file with
    # 1e200 entries instead of ending in an OverflowError traceback
    obj = json.loads(sample_exact(2, 4, seed=0).dumps())
    obj["flavor"] = "float"
    for key in ("x", "y"):
        obj[key] = [[float(Fraction(v)) for v in row] for row in obj[key]]
    obj["x"][0][0] = obj["y"][0][0] = f"{10 ** 200}/1"
    path = tmp_path / "huge_rationals.json"
    path.write_text(json.dumps(obj))
    for cmd, message in (
        ("hitchin", "base map g_2 outside the float range"),
        ("spectral", "polynomial twisting requires exact residues"),
        ("commute", "bracket of Tr phi(5)^2 and Tr phi(6)^2 outside the float range"),
    ):
        assert run(capsys, cmd, "--point", str(path)) == (3, "", f"error: {message}\n"), cmd
    # a "p/q" outside the float range is refused as the file is read
    obj["x"][0][0] = f"{10 ** 400}/3"
    path.write_text(json.dumps(obj))
    for cmd in ("hitchin", "spectral", "commute"):
        code, out, err = run(capsys, cmd, "--point", str(path))
        assert (code, out, err) == (3, "", "error: scalar outside the float range\n")


def test_float_bracket_overflow_is_one_error_line(tmp_path, capsys):
    # the first bracket's value and gradient norms leave the float range;
    # the report names that bracket instead of writing nan into the JSON
    path = tmp_path / "huge_entry.json"
    path.write_text(json.dumps(_HUGE_ENTRY_POINT))
    code, out, err = run(capsys, "commute", "--point", str(path))
    assert (code, out) == (3, "")
    assert err == "error: bracket of Tr phi(5)^2 and Tr phi(6)^2 outside the float range\n"


def test_jacobian_at_a_huge_marked_point_is_one_error_line(tmp_path, capsys):
    # prod(z - p_j) on the sampling circle overflows: the rows are refused
    # by their range check, with no numpy warning on stderr
    obj = {
        "r": 2, "n": 4, "flavor": "exact", "alpha": None,
        "marked_points": ["1e100", "2/1", "3/1", "4/1"],
        "x": [["-9/1", "3/1", "-8/1", "-7/1"], ["-9/1", "-6/1", "-4/1", "6/1"]],
        "y": [["760/1", "-760/1"], ["-1482/1", "-741/1"], ["-702/1", "1404/1"], ["-810/1", "-945/1"]],
    }
    path = tmp_path / "huge_pole.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "jacobian", "--point", str(path))
    assert (code, out) == (3, "")
    assert err == "error: Jacobian rows outside the float range\n"


def test_marked_points_must_be_n_distinct_values(tmp_path, capsys):
    # five marked points with four distinct values on four edges once
    # passed the distinctness check and ended in an IndexError traceback;
    # the string "00123" is not a list of marked points at all
    obj = json.loads(sample_exact(2, 4, seed=0).dumps())
    for marked, message in (
        ("00123", "marked_points must be a JSON list"),
        (["0/1", "0/1", "1/1", "2/1", "3/1"], "need n distinct marked points"),
        (["1/1", "1/1", "2/1", "3/1"], "need n distinct marked points"),
    ):
        obj["marked_points"] = marked
        path = tmp_path / "marked.json"
        path.write_text(json.dumps(obj))
        for cmd in ("hitchin", "commute", "jacobian", "spectral"):
            code, out, err = run(capsys, cmd, "--point", str(path))
            assert (code, out, err) == (3, "", f"error: {message}\n"), (marked, cmd)


@pytest.mark.parametrize(
    "where,value,what",
    [
        (("marked_points",), "1234", "marked_points"),
        (("marked_points",), {"1/1": 0, "2/1": 0, "3/1": 0, "4/1": 0}, "marked_points"),
        (("alpha",), "1111", "alpha"),
        (("x",), ["1011", "0112"], "each row of x"),
        (("x",), {"1011": 0, "0112": 0}, "x"),
        (("y", 0), "01", "each row of y"),
    ],
    ids=["marked-string", "marked-object", "alpha-string", "x-row-strings", "x-object", "y-row-string"],
)
def test_point_file_strings_and_objects_are_not_lists(tmp_path, capsys, where, value, what):
    # a string or an object where the format writes a list was read as its
    # characters or keys: on the worked 2x4 point each of these once gave
    # the same point back, and hitchin printed its base map
    from hyperpoly.quiver import exact_point_from_x

    obj = json.loads(exact_point_from_x(X24, alpha=[1, 1, 1, 1]).dumps())
    *outer, last = where
    target = obj
    for k in outer:
        target = target[k]
    target[last] = value
    path = tmp_path / "lists.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "hitchin", "--point", str(path))
    assert (code, out, err) == (3, "", f"error: {what} must be a JSON list\n")


def test_deeply_nested_point_file_is_invalid_json(tmp_path, capsys):
    # json.load raised RecursionError, which ended in a traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, "hitchin", "--point", str(path))
    assert (code, out) == (3, "")
    assert err.startswith(f"error: not valid JSON: {path}: ")
    assert err.count("\n") == 1


# values a hand-edited or corrupted point file may carry in any position
_ODD_VALUES = st.one_of(
    st.sampled_from([
        None, True, "", "x", "1/0", "nan", "float", float("nan"), float("inf"),
        1e200, 10 ** 400, f"{10 ** 400}/3", f"1/{10 ** 400}", [], [1, 2],
        {"re": float("nan"), "im": 0.0}, {"re": "1/2"},
    ]),
    st.integers(),
    st.floats(),
    st.text(alphabet="0123456789/-.e ", max_size=6),
)


# "p/q" with a 150- to 400-digit numerator
_HUGE_RATIONALS = st.builds(
    lambda lead, zeros, den: f"{lead}{'0' * zeros}/{den}",
    st.integers(-9, 9).filter(bool), st.integers(149, 399), st.integers(1, 10 ** 6),
)


@st.composite
def _mutated_points(draw):
    """sample_exact(2, 4) point JSON, exact or as floats, with one to three
    corruptions: a key replaced or dropped, an entry replaced, a list cut,
    or in a float file "p/q" entries with 150- to 400-digit numerators in
    the x column and the y row of one edge, two of which may lie inside
    the float range while their product does not."""
    obj = json.loads(sample_exact(2, 4, seed=0).dumps())

    def odd():
        # a copy, so that later corruptions never edit a sampled value
        return copy.deepcopy(draw(_ODD_VALUES))

    corruptions = draw(st.integers(1, 3))
    if draw(st.booleans()):
        obj["flavor"] = "float"
        for key in ("x", "y"):
            obj[key] = [[float(Fraction(v)) for v in row] for row in obj[key]]
        if draw(st.booleans()):
            corruptions -= 1
            i = draw(st.integers(0, len(obj["y"]) - 1))
            obj["x"][draw(st.integers(0, 1))][i] = draw(_HUGE_RATIONALS)
            obj["y"][i][draw(st.integers(0, 1))] = draw(_HUGE_RATIONALS)
    for _ in range(corruptions):
        how = draw(st.sampled_from(["replace", "drop", "entry", "entry", "shape"]))
        if how in ("replace", "drop"):
            key = draw(st.sampled_from(sorted(obj) or ["r"]))
            if how == "drop":
                obj.pop(key, None)
            else:
                obj[key] = odd()
            continue
        lists = [k for k in ("x", "y", "marked_points") if isinstance(obj.get(k), list) and obj[k]]
        if not lists:
            continue
        key = draw(st.sampled_from(lists))
        if how == "shape":
            obj[key] = obj[key][: draw(st.integers(0, len(obj[key]) - 1))]
            continue
        i = draw(st.integers(0, len(obj[key]) - 1))
        if isinstance(obj[key][i], list) and obj[key][i]:
            j = draw(st.integers(0, len(obj[key][i]) - 1))
            obj[key][i][j] = odd()
        else:
            obj[key][i] = odd()
    return obj


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=60, deadline=None)
@given(obj=_mutated_points(), cmd=st.sampled_from(["hitchin", "commute", "jacobian", "spectral"]))
def test_point_file_fuzz_keeps_exit_contract(tmp_path_factory, obj, cmd):
    path = tmp_path_factory.mktemp("fuzz") / "pt.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([cmd, "--point", str(path)])
    assert code in (0, 1, 2, 3)
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert code != 0 and err.getvalue().startswith("error: ")


FIXTURE_NAMES = [
    "betti-values",
    "rank2-oracle",
    "exact-sample",
    "base-coordinates",
    "char-coefficient",
    "order-bounds",
    "trace-tie",
    "bracket-zero",
    "kernel-identity",
    "local-models",
]


def test_fixtures_all_pass(capsys):
    code, out, _ = run(capsys, "fixtures", "--check")
    assert code == 0
    assert out == "".join(f"PASS {name}\n" for name in FIXTURE_NAMES)


def test_fixtures_failing_row_is_isolated(capsys, monkeypatch):
    def broken(field):
        raise RuntimeError("broken base map")

    monkeypatch.setattr("hyperpoly.hitchin.hitchin_map", broken)
    code, out, err = run(capsys, "fixtures", "--check")
    assert code == 1
    assert out == "".join(
        f"{'FAIL' if name == 'base-coordinates' else 'PASS'} {name}\n"
        for name in FIXTURE_NAMES
    )
    assert err == "base-coordinates: RuntimeError: broken base map\n"


def test_plot_data_rows(capsys):
    code, out, _ = run(capsys, "plot-data", "-r", "2", "-n", "4")
    assert code == 0
    assert out == "0,1\n2,4\n"

    code, out, _ = run(capsys, "plot-data", "-r", "3", "-n", "20")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 33
    assert lines[0] == "0,1"


def test_plot_data_determinism(capsys):
    _, out1, _ = run(capsys, "plot-data", "-r", "3", "-n", "20")
    _, out2, _ = run(capsys, "plot-data", "-r", "3", "-n", "20")
    assert out1 == out2


# sha256 of stdout and the exit code of exact runs; the float commands
# (jacobian and the probe's roots) are left out, since their values come
# from LAPACK and may differ between machines
_FROZEN = {
    ("hitchin", 2, 8): (0, "ccc898d604262485c643bd3de8648e366a687b0164fca800232225fb6edcbc51"),
    ("spectral", 2, 8): (0, "4131a220af5e728ed156bb3675019950fd1b2d335742f4fdf844a1b5b4b6df06"),
    ("spectral --check-orders", 2, 8): (0, "4752a488baa89e00e4f2d8d148f724cc93ed3136fa45de7ca09f0a8ec8792514"),
    ("commute", 2, 8): (0, "9d9b30c04854bb309670033a1d1276043432d47b5a260bad277bf2eee3f95342"),
    ("hitchin", 3, 7): (0, "d788efa4f1e4c2d486c4a958464db3f7223abbe1030f87b73aab5ba9e0bcc289"),
    ("spectral", 3, 7): (0, "9f10ed1b2e1561c33b87585b01c94647edc180d3526a3f6635d9ed70daa7592f"),
    ("spectral --check-orders", 3, 7): (0, "891cf92de7be076e227e552d95a59f0bf01344cd49fe862db486a135944daa36"),
    ("commute", 3, 7): (0, "962ded3c56ab13f4928f553d96f44b237b6a605e96fccd676a28b098f0c3046f"),
    # rank 4 has no base map: exit 1 and empty stdout
    ("hitchin", 4, 8): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("spectral", 4, 8): (0, "120312e8e893a6c87c2e3fe671e4d6de9d2f4862efd06d66fd34f3ddc8900bed"),
    ("spectral --check-orders", 4, 8): (0, "cad689b3333383c098b0280d063e1b03f23bfb69bc3b35ff3efa9804b5b07ab9"),
    ("commute", 4, 8): (0, "0730743a4776740c03f28d47a3acb44a66603fc9663d0618b2c6a50a751fb88f"),
    # past the paper's range: every bracket still vanishes exactly
    ("commute", 5, 9): (0, "1a1948eaa381da9b0a9aa41ce524dd9cb9df96c6516129371f732d1cb3bc1ba0"),
    ("commute", 6, 12): (0, "b5fee59073707aa121a4f31f9c46a9ec2c9d5d0b046cb91493d71e7ae5102442"),
    ("fixtures --check",): (0, "4f119aea2119845fd62b795245e8315db8f39ea44f8ad909638a54859808976d"),
    ("betti-table -r 3 --n-max 12 --format csv",): (0, "578bf888f8466adf190b77af635d675ec9495fc0b751e9112566905b64666737"),
}


def test_exact_outputs_are_frozen(tmp_path, capsys):
    got = {}
    for key in _FROZEN:
        argv = key[0].split()
        if len(key) == 3:
            _, r, n = key
            path = tmp_path / f"pt_{r}_{n}.json"
            if not path.exists():
                path.write_text(sample_exact(r, n, seed=0).dumps())
            argv += ["--point", str(path)]
        code, out, _ = run(capsys, *argv)
        got[key] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == _FROZEN


def test_check_orders_writes_inf_for_a_zero_coefficient(tmp_path, capsys):
    # a nilpotent-cone point: c_2 = 0 has infinite order at every marked
    # point and passes its bound there
    path = tmp_path / "pt.json"
    assert run(capsys, "sample", "-r", "2", "-n", "4", "--seed", "1", "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "spectral", "--point", str(path), "--check-orders")
    assert code == 0
    assert out == "2,1/1,inf,1,true\n2,2/1,inf,1,true\n2,3/1,inf,1,true\n2,4/1,inf,1,true\n"


# the commands that run only the Betti layer
BETTI_COMMANDS = (
    ("betti", "-r", "3", "-n", "9"),
    ("betti-table", "-r", "2", "--n-max", "7", "--format", "csv"),
    ("plot-data", "-r", "3", "-n", "7"),
    ("genericity", "-r", "2", "--alpha", "1,2,2,4"),
)


def python(code):
    """stdout of a fresh interpreter that runs `code` on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


# the exact point commands, on the seed-1 point at (3, 7); "{point}" is its file
EXACT_POINT_COMMANDS = (
    ("sample", "-r", "3", "-n", "7", "--seed", "1"),
    ("hitchin", "--point", "{point}"),
    ("spectral", "--point", "{point}"),
    ("spectral", "--point", "{point}", "--check-orders"),
    ("commute", "--point", "{point}"),
    ("fixtures", "--check"),
)


def test_betti_commands_run_without_numpy(tmp_path, capsys):
    # the Betti commands and the exact point commands, in an interpreter
    # whose every import of numpy fails
    point = tmp_path / "pt.json"
    point.write_text(run(capsys, *EXACT_POINT_COMMANDS[0])[1])
    commands = BETTI_COMMANDS + tuple(
        tuple(arg.format(point=point) for arg in argv) for argv in EXACT_POINT_COMMANDS
    )
    got = json.loads(python(f"""
import contextlib, io, json, sys

class NoNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, NoNumpy())
from hyperpoly import cli
out = []
for argv in {commands!r}:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""))
    assert got == [list(run(capsys, *argv)[:2]) for argv in commands]
    assert all(code == 0 for code, _ in got)


def test_cli_import_leaves_numpy_unloaded():
    assert python("import sys, hyperpoly.cli; print('numpy' in sys.modules)") == "False\n"


def test_package_import_loads_only_the_exact_layers():
    # the exact layers are bound at import; the point layers wait for their
    # first access, and only `floating` loads numpy
    got = python("""
import sys, hyperpoly
print([m for m in ("betti", "errors", "exact") if m in vars(hyperpoly)])
print([m for m in ("hitchin", "quiver", "spectral") if "hyperpoly." + m in sys.modules])
print("numpy" in sys.modules, hyperpoly.__all__ == sorted(set(hyperpoly.__all__)))
import hyperpoly.quiver, hyperpoly.hitchin, hyperpoly.spectral
print("numpy" in sys.modules)
import hyperpoly.floating
print("numpy" in sys.modules)
""")
    assert got == "['betti', 'errors', 'exact']\n[]\nFalse True\nFalse\nTrue\n"


def test_package_names_resolve_to_their_modules():
    # after `import hyperpoly` alone, every exported name and the numeric
    # submodules resolve, lazily where needed, to the submodules' objects
    bad = python("""
import importlib, hyperpoly
bad = []
for name in hyperpoly.__all__:
    obj = getattr(hyperpoly, name)
    if getattr(importlib.import_module(obj.__module__), name) is not obj:
        bad.append(name)
for name in ("hitchin", "quiver", "spectral"):
    if getattr(hyperpoly, name) is not importlib.import_module("hyperpoly." + name):
        bad.append(name)
print(bad)
""")
    assert bad == "[]\n"
    import hyperpoly
    from hyperpoly import hitchin, quiver, spectral

    assert set(hyperpoly.__all__) <= set(dir(hyperpoly))
    # a lazy export missing from __all__ is a half-deleted name
    modules = {"hitchin", "quiver", "spectral"}
    assert set(hyperpoly._LAZY) - modules <= set(hyperpoly.__all__)
    assert hyperpoly.residues is hitchin.residues
    assert hyperpoly.QuiverPoint is quiver.QuiverPoint
    assert hyperpoly.twist is spectral.twist
    with pytest.raises(AttributeError):
        hyperpoly.no_such_name
