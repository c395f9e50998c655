"""Benchmark for hyperpoly: three workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload betti-cli --seed 1 --seconds 20 --trace 0

Workloads: betti-cli, exact-pipeline, float-pipeline, or all.  Each runs a
closed loop with one op in flight for whole rounds of ops until --seconds
of op time have passed, checks every output, and prints its metrics by
name with their unit.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones from a separate traced
run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import betti_cli
from harness import PINNED_THREADS, LoopResult, Tracer, child_env, local_slowdowns, probe

WORKLOADS = ("betti-cli", "exact-pipeline", "float-pipeline")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_REPEATS = 8  # before and again after the timed loop
CLI_START_REPEATS = 5
WORKER_TIMEOUT_S = 170

# (name, unit); a name ending in _s is the calibrated time spent per
# attempted op in the span of the same name without the suffix
PER_LAYER = (
    ("cli.start_s", "s"),
    ("betti.poincare_cold_s", "s"),
    ("betti.poincare_sweep_s", "s"),
    ("betti.coeff_bits", "bits"),
    ("quiver.sample_exact_s", "s"),
    ("quiver.point_json_s", "s"),
    ("hitchin.residues_s", "s"),
    ("hitchin.hitchin_map_s", "s"),
    ("hitchin.commutation_report_s", "s"),
    ("hitchin.delta_check_s", "s"),
    ("spectral.twist_s", "s"),
    ("spectral.charpoly_s", "s"),
    ("spectral.order_check_s", "s"),
    ("spectral.trace_consistency_s", "s"),
    ("quiver.y_bits", "bits"),
    ("spectral.c_bits", "bits"),
    ("quiver.solve_real_s", "s"),
    ("hitchin.jacobian_rank_s", "s"),
    ("hitchin.rank_deficit", "count"),
    ("hitchin.float_map_rel_err", "ratio"),
    ("op_p90_s", "s"),
    ("op_p90_samples", "count"),
    ("traced.ops_per_s", "1/s"),
    ("machine.slowdown", "ratio"),
)


def measure_setup(workload: str, seed: int, env: dict) -> float:
    """Seconds from starting a fresh worker interpreter to its "ready"."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), "0", "0", "setup"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode})")
    return elapsed


def run_worker(workload: str, seed: int, seconds: float, trace: bool, env: dict,
               trace_path: str):
    """Timed loop of a pipeline workload in its own worker process."""
    proc = subprocess.run(
        [sys.executable, WORKER, workload, str(seed), str(seconds),
         "1" if trace else "0", "run", trace_path],
        capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    return LoopResult(**raw["result"]), raw["peak_rss_mb"], raw["layers"]


def quantile(values: list[float], q: float) -> float:
    """The q-quantile (0 < q < 1) with linear interpolation."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def completed_times(res: LoopResult) -> list[float]:
    return [t for t, ok in zip(res.calibrated(), res.op_ok) if ok]


def end_to_end(res: LoopResult, setup_s: float, peak_rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((res.attempted - res.failed) / sum(res.calibrated()), "1/s"),
        "op_p50_s": (statistics.median(completed_times(res)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(res: LoopResult, layers: dict, start_s: float) -> dict:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    def peak(key):
        return max((s[key] for s in res.stats if key in s), default=0)

    values = {name: layers.get(name[:-2], 0.0) for name, _ in PER_LAYER if name.endswith("_s")}
    values.update({
        "cli.start_s": start_s,
        "betti.coeff_bits": peak("coeff_bits"),
        "quiver.y_bits": peak("y_bits"),
        "spectral.c_bits": peak("c_bits"),
        "hitchin.rank_deficit": sum(s.get("rank_deficit", 0) for s in res.stats) / res.rounds,
        "hitchin.float_map_rel_err": peak("map_err"),
        "op_p90_s": quantile(completed_times(res), 0.9),
        "op_p90_samples": len(completed_times(res)),
        "traced.ops_per_s": (res.attempted - res.failed) / sum(res.calibrated()),
        "machine.slowdown": sum(res.op_s) / sum(res.calibrated()),
    })
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    env = child_env(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"{workload}-seed{seed}-trace.json")
    setup = functools.partial(measure_setup, workload, seed, env)
    setup_times = [] if trace else probe(setup, SETUP_REPEATS)
    if workload == "betti-cli":
        tracer = Tracer(trace)
        res, peak_mb = betti_cli.run(seed, seconds, tracer, env)
        layers = tracer.per_op(local_slowdowns(res.ref_s))
        if trace:
            with open(trace_path, "w") as fh:
                json.dump({"spans": tracer.spans}, fh)
    else:
        res, peak_mb, layers = run_worker(workload, seed, seconds, trace, env, trace_path)
    if trace:
        start_s = statistics.median(
            probe(functools.partial(betti_cli.time_no_work, env), CLI_START_REPEATS))
        metrics = per_layer(res, layers, start_s)
    else:
        # half the set-up probes run after the loop, so their median spans
        # the machine's speed over the whole run
        setup_times += probe(setup, SETUP_REPEATS)
        metrics = end_to_end(res, statistics.median(setup_times), peak_mb)

    correct = not res.problems
    wall_p50 = statistics.median(t for t, ok in zip(res.op_s, res.op_ok) if ok)
    print(f"{workload} seed {seed}: {res.attempted} ops attempted, {res.failed} failed, "
          f"{res.rounds} rounds, {'correct' if correct else 'WRONG RESULTS'}")
    print(f"  before calibration: ops_per_s {(res.attempted - res.failed) / sum(res.op_s):.6g}, "
          f"op_p50_s {wall_p50:.6g}; time-weighted slowdown "
          f"{sum(res.op_s) / sum(res.calibrated()):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for problem in res.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(PINNED_THREADS)  # before the reference loop loads numpy
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hyperpoly", "__init__.py")):
        print("error: run from the root of a hyperpoly checkout (no src/hyperpoly)",
              file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
