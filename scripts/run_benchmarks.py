#!/usr/bin/env python3
"""Run the full benchmark matrix and print a comparison table.

Synthesizes every bundled .pla function with all three backends, writes the
raw rows to a CSV, and prints one line per function comparing qubit counts
and circuit complexity across methods.

Usage:  python scripts/run_benchmarks.py [--csv results.csv] [--jobs 2]
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qoracle.cli import METHODS, run_bench, write_bench_csv

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", default="benchmark_results.csv")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--timeout-s", type=int, default=600)
    parser.add_argument("--completion", default="hamming", choices=("hamming", "naive"))
    args = parser.parse_args()

    with Path(args.csv).open("w", newline="") as fh:
        rows = run_bench(BENCH_DIR, list(METHODS), args.timeout_s, args.jobs,
                         args.completion)
        write_bench_csv(rows, fh)

    by_fn: dict[str, dict[str, object]] = {}
    for row in rows:
        by_fn.setdefault(row.function, {})[row.method] = row

    def cell(row) -> str:
        if row.status != "ok":
            return f"*{row.status}*"
        return f"q={row.qubits} c={row.complexity}"

    print(f"{'function':10s} {'in':>3s} {'out':>3s} | "
          f"{'esop':>16s} | {'esop-rtt':>16s} | {'tbs':>16s}")
    for name in sorted(by_fn):
        cells = by_fn[name]
        any_row = next(iter(cells.values()))
        print(
            f"{name:10s} {any_row.inputs:3d} {any_row.outputs:3d} | "
            f"{cell(cells['esop']):>16s} | {cell(cells['esop-rtt']):>16s} | "
            f"{cell(cells['tbs']):>16s}"
        )
    print(f"\nwrote {len(rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
