"""betti-cli workload: each op is one cold `hyperpoly` CLI process.

The Betti recursion is deterministic, so the seed only sets the order in
which the cold processes run; every round does the same levels.  Single
levels start with an empty level cache, the r = 3 sweep fills its cache
one level at a time, so the two use the cache in opposite ways.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import checks
from harness import Tracer, timed_loop

# The three (5, 30) ops hold the middle of the sorted op times, so op_p50_s
# does not hop between the neighbouring levels from run to run.
SINGLE = ((3, 100), (4, 60)) + ((5, 30),) * 3 + ((8, 20), (24, 26), (28, 30))
SWEEP = (3, 60)  # betti-table -r 3 --n-max 60
# reflection partners cheap enough to compute once per run
DUAL_CHECKED = ((8, 20),)
NO_WORK = ("betti", "-r", "1", "-n", "1")
OP_TIMEOUT_S = 120
TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")


@dataclass(frozen=True)
class BettiOp:
    r: int
    n: int  # n_max for the sweep
    sweep: bool
    fault: None = None

    def argv(self) -> list[str]:
        if self.sweep:
            return ["betti-table", "-r", str(self.r), "--n-max", str(self.n)]
        return ["betti", "-r", str(self.r), "-n", str(self.n)]


def make_round(seed: int, index: int, single=SINGLE, sweep=SWEEP) -> list[BettiOp]:
    ops = [BettiOp(r, n, False) for r, n in single]
    ops.append(BettiOp(*sweep, True))
    random.Random(f"betti-cli:{seed}:{index}").shuffle(ops)
    return ops


def cli_command(args, traced: bool = False) -> list[str]:
    if traced:
        return [sys.executable, TRACED_CLI, *args]
    return [sys.executable, "-m", "hyperpoly.cli", *args]


def run_cli(args, env: dict, traced: bool = False) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        cli_command(args, traced), env=env, capture_output=True, text=True,
        timeout=OP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc


def op_runner(env: dict, traced: bool):
    def run(op: BettiOp, tracer):
        proc = run_cli(op.argv(), env, traced)
        out = json.loads(proc.stdout)
        if traced:
            name = "betti.poincare_sweep" if op.sweep else "betti.poincare_cold"
            for start, end in json.loads(proc.stderr.strip().splitlines()[-1])["spans"]:
                tracer.spans.append((tracer.op, name, start, end))
        return out
    return run


def rows_of(op: BettiOp, out: dict) -> list[tuple[int, int, list[int]]]:
    if op.sweep:
        return [(op.r, row["n"], row["coeffs_u"]) for row in out["rows"]]
    return [(op.r, op.n, out["coeffs_u"])]


def check_op(op: BettiOp, out: dict):
    """Problems and coefficient size of one CLI output.

    Rank n-2 rows are compared with the rank-2 closed form: the duality
    P(r, n) = P(n-r, n) at n - r = 2.
    """
    problems, bits = [], 0
    for r, n, coeffs in rows_of(op, out):
        problems += checks.check_betti(r, n, coeffs)
        if r == n - 2:
            problems += checks.check_duality(r, n, coeffs, checks.rank2_closed_form(n))
        bits = max([bits] + [c.bit_length() for c in coeffs])
    return problems, {"coeff_bits": bits}


def run(seed: int, seconds: float, tracer: Tracer, env: dict, single=SINGLE, sweep=SWEEP):
    """Timed loop of cold CLI ops; returns the loop result and peak RSS in MB.

    The peak is that of the largest child waited for before the duality
    partners are computed, so it is the largest CLI op (the setup probes
    started earlier are smaller).
    """
    seen = {}

    def check(op, out):
        for r, n, coeffs in rows_of(op, out):
            if (r, n) in DUAL_CHECKED:
                seen.setdefault((r, n), []).append(coeffs)
        return check_op(op, out)

    # The CLI children inherit this process's CPU, so the reference loops
    # run around each op measure the CPU the op runs on.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        res = timed_loop(
            lambda i: make_round(seed, i, single, sweep),
            op_runner(env, tracer.on),
            check,
            seconds,
            tracer,
        )
    finally:
        os.sched_setaffinity(0, allowed)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    for (r, n), outputs in seen.items():
        dual = json.loads(run_cli(["betti", "-r", str(n - r), "-n", str(n)], env).stdout)
        for coeffs in outputs:
            res.problems += checks.check_duality(r, n, coeffs, dual["coeffs_u"])
    return res, peak_mb


def time_no_work(env: dict) -> float:
    """Wall time of one CLI process that does no work."""
    start = perf_counter()
    run_cli(NO_WORK, env)
    return perf_counter() - start
