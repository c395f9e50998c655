"""Closed-loop timing, layer spans and statistics shared by the workloads."""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

# The benchmark pins every BLAS and OpenMP pool to one thread: with the
# default pool, 2 of 6 runs of 270 solver ops showed ~0.6 s stalls.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env(root: str) -> dict:
    """Environment for every process the benchmark starts.

    The library is imported from the checkout's ``src``; byte code is cached
    under ``.bench_build`` so the source tree stays untouched and only the
    first interpreter of a checkout compiles it.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".bench_build", "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


# Nominal duration of reference_loop(), about its median on the 2-vCPU VM the
# bounds were set on.  The machine's speed drifts by up to ~30 % over tens
# of seconds, so every timed op or probe is divided by the slowdown measured
# around it: the mean of the reference times just before and just after it,
# over this nominal.
REFERENCE_S = 0.0028


def reference_loop() -> float:
    """Seconds taken by a fixed mix of interpreter, big-rational and small
    LAPACK work, the three kinds of work the workloads do.  None of it
    calls the library, so a change to the library cannot move it."""
    import numpy as np  # loaded after the caller pinned the BLAS threads

    start = perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    q = Fraction(1, 3)
    for i in range(1, 120):
        q = q * Fraction(i + 1, 2 * i + 1) + Fraction(1, i)
    eye = np.eye(24)
    a = eye + 0.01
    for _ in range(20):
        a = np.linalg.solve(a + eye, a)
    return perf_counter() - start


def local_slowdowns(ref_s: list[float]) -> list[float]:
    """Slowdown around each of len(ref_s) - 1 timed items, given the
    reference times taken before each item and after the last."""
    return [(a + b) / 2 / REFERENCE_S for a, b in zip(ref_s, ref_s[1:])]


def probe(measure, repeats: int) -> list[float]:
    """Calibrated times of `repeats` calls of measure()."""
    ref_s, times = [reference_loop()], []
    for _ in range(repeats):
        times.append(measure())
        ref_s.append(reference_loop())
    return [t / s for t, s in zip(times, local_slowdowns(ref_s))]


class Tracer:
    """Times calls into the library's public functions when switched on.

    Spans are (op index, layer name, start, end) in perf_counter seconds,
    kept in memory and written out by the caller at the end of the run.
    """

    def __init__(self, on: bool):
        self.on = on
        self.op = -1
        self.spans: list[tuple[int, str, float, float]] = []

    def call(self, name: str, fn, *args):
        if not self.on:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.op, name, start, perf_counter()))

    def per_op(self, slows: list[float]) -> dict[str, float]:
        """Calibrated seconds spent in each layer, summed over the run, per op.

        ``slows`` holds the slowdown around each attempted op.
        """
        totals: dict[str, float] = {}
        for op, name, start, end in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) / slows[op]
        return {name: t / len(slows) for name, t in totals.items()}


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    op_s: list[float] = field(default_factory=list)  # wall time of every op
    op_ok: list[bool] = field(default_factory=list)  # whether it completed
    ref_s: list[float] = field(default_factory=list)  # before each op, after the last
    problems: list[str] = field(default_factory=list)
    stats: list[dict] = field(default_factory=list)

    def calibrated(self) -> list[float]:
        """Wall time of every op divided by the slowdown around it."""
        return [t / s for t, s in zip(self.op_s, local_slowdowns(self.ref_s))]


def timed_loop(make_round, run_op, check_op, seconds: float, tracer: Tracer) -> LoopResult:
    """Run whole rounds of ops, one in flight, until `seconds` of op time.

    At least one round runs, and a reference loop runs before every op and
    after the last, outside their timing.  ``make_round(i)`` gives the op specs of round i;
    each spec has a ``fault`` attribute, a text naming the program fault it
    is known to hit, or None.  ``run_op(spec, tracer)`` does the work and is
    the only part timed; ``check_op(spec, out)`` returns (problems, stats).
    An op that raises, or a kept-fault op whose check fails, counts as
    failed; a check failure on any other op is a wrong result and goes to
    ``problems``.  Whole rounds keep the failed share identical in every
    run.
    """
    res = LoopResult(ref_s=[reference_loop()])
    while res.rounds == 0 or sum(res.op_s) < seconds:
        for spec in make_round(res.rounds):
            tracer.op = res.attempted
            res.attempted += 1
            start = perf_counter()
            try:
                out = run_op(spec, tracer)
                ok = True
            except Exception as exc:  # an op failure is data, not a crash
                ok = False
                if spec.fault is None or type(exc).__name__ not in spec.fault:
                    print(f"op failed: {spec}: {exc!r}", file=sys.stderr)
            res.op_s.append(perf_counter() - start)
            res.ref_s.append(reference_loop())
            if ok:
                problems, stats = check_op(spec, out)
                res.stats.append(stats)
                if problems and spec.fault is not None:
                    ok = False
                else:
                    res.problems.extend(problems)
            res.op_ok.append(ok)
            res.failed += not ok
        res.rounds += 1
    return res
