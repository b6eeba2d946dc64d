#!/usr/bin/env python3
"""Print a comparison table from a ``qoracle bench`` CSV.

One line per function compares qubit counts and circuit complexity across
the methods in the CSV, one column each in the order they first appear; a
method that did not finish shows its status.

Usage:
    qoracle bench --dir benchmarks --csv results.csv
    python scripts/run_benchmarks.py results.csv
"""
from __future__ import annotations

import argparse
import csv
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("csv", help="rows written by qoracle bench --csv")
    args = parser.parse_args()

    with open(args.csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # One column per method, as wide as its name and at least 16.
    widths = {m: max(16, len(m)) for m in dict.fromkeys(row["method"] for row in rows)}

    by_fn: dict[str, dict[str, dict[str, str]]] = {}
    for row in rows:
        by_fn.setdefault(row["function"], {})[row["method"]] = row

    def cell(row: dict[str, str] | None) -> str:
        if row is None:
            return "-"
        if row["status"] != "ok":
            return f"*{row['status']}*"
        return f"q={row['qubits']} c={row['complexity']}"

    print(f"{'function':10s} {'in':>3s} {'out':>3s} | "
          + " | ".join(m.rjust(w) for m, w in widths.items()))
    for name in sorted(by_fn):
        cells = by_fn[name]
        any_row = next(iter(cells.values()))
        print(
            f"{name:10s} {int(any_row['inputs']):3d} {int(any_row['outputs']):3d} | "
            + " | ".join(cell(cells.get(m)).rjust(w) for m, w in widths.items())
        )
    print(f"\nread {len(rows)} rows from {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
