"""Worker process: set up one workload, then optionally run its timed loop.

Usage: python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1> <setup|run> [trace file]

Prints "ready" once `import hyperpoly` is done and the first round of
inputs is built.  In `setup` mode it then exits.  In `run` mode (pipeline
workloads only) it runs the timed loop, checks every output, and prints
one JSON line with the raw results for run.py.
"""

import dataclasses
import functools
import json
import resource
import sys

from harness import Tracer, local_slowdowns, timed_loop


def set_up(workload: str, seed: int):
    """Import the library and build the first round; returns the loop's callables."""
    if workload == "betti-cli":
        import hyperpoly.cli  # noqa: F401  (what each CLI process imports)

        import betti_cli

        make_round, run_op, check_op = betti_cli.make_round, None, None
    else:
        import pipelines  # imports hyperpoly

        make_round, run_op, check_op = pipelines.WORKLOADS[workload]
    make_round = functools.partial(make_round, seed)
    make_round(0)
    return make_round, run_op, check_op


def main(workload, seed, seconds, trace, mode, trace_path=None):
    make_round, run_op, check_op = set_up(workload, int(seed))
    print("ready", flush=True)
    if mode != "run":
        return
    tracer = Tracer(trace == "1")
    res = timed_loop(make_round, run_op, check_op, float(seconds), tracer)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer.on:
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    print(json.dumps({
        "result": dataclasses.asdict(res),
        "layers": tracer.per_op(local_slowdowns(res.ref_s)),
        "peak_rss_mb": peak_mb,
    }), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
