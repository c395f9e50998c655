#!/usr/bin/env python3
"""Emit the Betti-number profiles used for the rank-3 plots.

Writes one headerless CSV per (r, n) pair with rows (t-degree, b).  The
files are plot-tool-agnostic; feed them to gnuplot, matplotlib, or a
spreadsheet.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hyperpoly.betti import poincare  # noqa: E402

DEFAULT_PAIRS = ((3, 20), (3, 100))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-o", "--out-dir", default="profiles")
    ap.add_argument(
        "--pairs",
        default=",".join(f"{r}:{n}" for r, n in DEFAULT_PAIRS),
        help="comma-separated r:n pairs",
    )
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = []
    for chunk in args.pairs.split(","):
        r, n = chunk.split(":")
        pairs.append((int(r), int(n)))

    for r, n in pairs:
        start = time.monotonic()
        pp = poincare(r, n)
        rows = pp.betti_numbers()
        path = out / f"profile_r{r}_n{n}.csv"
        path.write_text(pp.to_csv())
        peak_deg, peak = max(rows, key=lambda t: t[1])
        print(
            f"(r={r}, n={n}): {len(rows)} rows, peak b_{peak_deg} has "
            f"{peak.bit_length()} bits, {time.monotonic() - start:.2f}s "
            f"-> {path}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
