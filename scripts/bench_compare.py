"""Run one perfbench workload at a parent revision and at the working tree.

    python3 scripts/bench_compare.py --parent <rev> --workload betti-cli \
        --seed 1 --seconds 25 --out BENCH_<tag>.json

The parent revision is exported with `git archive` into a temporary
directory. Each side runs `perfbench/run.py` from its own checkout with
`--trace 0` and with `--trace 1`, the two sides alternating, so the
end-to-end metrics and the per-layer metrics of the traced run sit side by
side. The output file keeps the last stdout line of every run, under the
keys `parent` and `change`, then `trace0` and `trace1`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "parent_rev": rev,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "parent": {},
        "change": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "parent.tar"
        subprocess.run(["git", "archive", "-o", str(archive), rev], cwd=ROOT, check=True)
        parent = Path(tmp) / "parent"
        with tarfile.open(archive) as tar:
            tar.extractall(parent)
        for trace in (0, 1):
            for side, checkout in (("parent", parent), ("change", ROOT)):
                result[side][f"trace{trace}"] = run_bench(
                    checkout, args.workload, args.seed, args.seconds, trace
                )
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
