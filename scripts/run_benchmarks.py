#!/usr/bin/env python3
"""Print a comparison table from a ``qoracle bench`` CSV, or time two trees in one process.

One line per function compares qubit counts and circuit complexity across
the methods in the CSV, one column each in the order they first appear; a
method that did not finish shows its status.

With ``--against DIR`` the script compares this checkout's ``src/qoracle``
(the change) with DIR's (the base) on the bundled ``benchmarks/*.pla`` and
every method both trees have.  Both are imported in this process under
their own package names, and each of PASSES timed passes, after one warm-up
pass, runs each (file, method) item on both trees: parse,
``run_synthesis``, QASM and JSON emission.  Which tree runs an item first
alternates from item to item and from pass to pass, so neither tree is
always second.  For each method it prints the median change/base ratio of
the per-pass times with its quartiles.  The trees must
agree on every item's status, qubits, gates, complexity and QASM bytes;
a difference fails the run with exit status 1.  Comparing a tree with
itself (an A/A run) shows how small a resolved change can be.

Usage:
    qoracle bench --dir benchmarks --csv results.csv
    python scripts/run_benchmarks.py results.csv
    python scripts/run_benchmarks.py --against ../base
"""
from __future__ import annotations

import argparse
import csv
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent

#: Timed passes of an ``--against`` run; quartiles need a few per method.
PASSES = 11


def print_table(path: str) -> int:
    with open(path, newline="") as fh:
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
    print(f"\nread {len(rows)} rows from {path}")
    return 0


def load_tree(checkout: Path, name: str) -> ModuleType:
    """Import ``checkout/src/qoracle`` as the package ``name``, afresh."""
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]
    package = checkout / "src" / "qoracle"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run_item(q: ModuleType, text: str, method: str, name: str) -> tuple[float, tuple]:
    """Seconds for one item on one tree, and the item's quality fields."""
    started = time.perf_counter()
    try:
        result = q.cli.run_synthesis(q.pla.parse_pla(text), method, source=name)
    except q.errors.QOracleError as exc:
        return time.perf_counter() - started, (type(exc).__name__,)
    qasm = q.emit.to_qasm(result.circuit)
    q.emit.to_json(result.circuit)
    seconds = time.perf_counter() - started
    report = result.report
    return seconds, ("ok", report.qubits, report.gate_count, report.complexity, len(qasm))


def compare(against: Path, bench_dir: Path = ROOT / "benchmarks",
            methods: list[str] | None = None, passes: int = PASSES) -> int:
    """Time this checkout against ``against``; ``methods`` defaults to those both trees have."""
    change, base = load_tree(ROOT, "qoracle_change"), load_tree(against, "qoracle_base")
    files = sorted(bench_dir.glob("*.pla"))
    if not files:
        print(f"no .pla files under {bench_dir}", file=sys.stderr)
        return 2
    if methods is None:
        methods = [m for m in change.cli.METHODS if m in base.cli.METHODS]
    missing = [m for m in methods if m not in change.cli.METHODS or m not in base.cli.METHODS]
    if missing:
        print(f"method {', '.join(missing)} is not in both trees", file=sys.stderr)
        return 2
    items = [(f.stem, f.read_text(), method) for method in methods for f in files]
    # times[tree][method] holds one total per timed pass; pass 0 warms up.
    times: dict[str, dict[str, list[float]]] = {"change": {}, "base": {}}
    for p in range(passes + 1):
        totals = {tree: dict.fromkeys(methods, 0.0) for tree in times}
        gc.collect()
        for i, (name, text, method) in enumerate(items):
            fields = {}
            trees = [("change", change), ("base", base)]
            if (p + i) % 2:
                trees.reverse()
            for tree, q in trees:
                seconds, fields[tree] = run_item(q, text, method, name)
                totals[tree][method] += seconds
            if fields["change"] != fields["base"]:
                print(f"{name}/{method}: change gives {fields['change']}, "
                      f"base gives {fields['base']}", file=sys.stderr)
                return 1
        if p:
            for tree, by_method in totals.items():
                for method, seconds in by_method.items():
                    times[tree].setdefault(method, []).append(seconds)
                times[tree].setdefault("all", []).append(sum(by_method.values()))

    print(f"change {ROOT} against base {against}: {passes} passes over {len(files)} files, "
          "change/base time per pass")
    print(f"{'method':18s} {'median':>7s} {'q1':>7s} {'q3':>7s} {'change_s':>9s} {'base_s':>9s}")
    for method in [*methods, "all"]:
        mine, theirs = times["change"][method], times["base"][method]
        ratios = [a / b for a, b in zip(mine, theirs)]
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        print(f"{method:18s} {statistics.median(ratios):7.3f} {q1:7.3f} {q3:7.3f} "
              f"{statistics.median(mine):9.4f} {statistics.median(theirs):9.4f}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("csv", nargs="?", help="rows written by qoracle bench --csv")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="time this checkout against the checkout at DIR instead")
    args = parser.parse_args()
    if args.against is None:
        if args.csv is None:
            parser.error("give a CSV to print or --against DIR")
        return print_table(args.csv)
    if args.csv is not None:
        parser.error("--against takes no CSV")
    if not (args.against / "src" / "qoracle" / "__init__.py").is_file():
        parser.error(f"no qoracle sources under {args.against / 'src'}")
    return compare(args.against.resolve())


if __name__ == "__main__":
    sys.exit(main())
