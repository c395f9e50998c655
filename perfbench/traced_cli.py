"""Run the hyperpoly CLI with its calls to `betti.poincare` timed.

Usage: python3 perfbench/traced_cli.py <hyperpoly CLI arguments>

The CLI's own output goes to stdout unchanged; one JSON line with the
(start, end) perf_counter span of every `poincare` call is appended to
stderr.  perf_counter is the system-wide monotonic clock on Linux, so the
spans line up with the parent's.
"""

import json
import sys
from time import perf_counter

from hyperpoly import betti, cli

spans = []
poincare = betti.poincare


def timed_poincare(*args, **kwargs):
    start = perf_counter()
    try:
        return poincare(*args, **kwargs)
    finally:
        spans.append((start, perf_counter()))


if __name__ == "__main__":
    betti.poincare = timed_poincare
    code = cli.main(sys.argv[1:])
    print(json.dumps({"spans": spans}), file=sys.stderr)
    sys.exit(code)
