"""Oracle-synthesis benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload esop-matrix --seed 1 --seconds 30 --trace 0

Runs one workload in this process with one closed-loop caller, in whole
passes over its items until ``--seconds`` have passed.  Every item's output
is checked by ``oracle_check`` outside the timed region, and every execution
of an item must reproduce its first per-item fingerprint.  The last line of
output is one JSON object: with ``--trace 0`` it carries the end-to-end
metrics (at least two passes); with ``--trace 1`` each item runs untraced and
traced back to back and it carries the per-layer metrics of ``layertrace``
plus ``trace.overhead``.  Exit status: 0 when every output is correct, 1 when
one is not, 2 when the benchmark cannot run (no ``src/qoracle`` or no
``benchmarks/*.pla`` in this checkout, or a traced span that never fired).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import layertrace
import oracle_check
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is measured in this many fresh interpreters; the median is reported.
SETUP_SAMPLES = 11

#: End-to-end metrics with units, as BENCHMARK.json lists them.
END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_share": "ratio", "pass_share": "ratio", "verified_share": "ratio",
    "qubits_total": "count", "gates_total": "count", "complexity_total": "count",
    "qasm_bytes_total": "bytes",
}
#: End-to-end metrics printed for people but left out of the JSON result:
#: failed_share is 0 on a correct run, and geomean_ms, which weighs the
#: millisecond items as much as the long ones, moves with the host's speed
#: by more than any bound BENCHMARK.json may set.
ALSO_PRINTED = {"geomean_ms": "ms", "failed_share": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here or its own guards failed."""


def import_qoracle():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "qoracle" / "__init__.py").is_file():
        raise BenchError(f"no qoracle sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qoracle
    if Path(qoracle.__file__).resolve().parent != SRC / "qoracle":
        raise BenchError(f"imported qoracle from {qoracle.__file__}, not {SRC}")
    return qoracle


def setup(workload: str):
    """Import the program and load the inputs; returns (package, items, seconds)."""
    start = time.perf_counter()
    q = import_qoracle()
    items = workloads.load(workload, ROOT)
    return q, items, time.perf_counter() - start


def measure_setup(workload: str) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


@dataclass
class Row:
    key: str
    status: str
    seconds: float
    qubits: int = 0
    gates: int = 0
    complexity: int = 0
    qasm_bytes: int = 0
    qasm_sha: str = ""
    netlist_sha: str = ""
    verified: int = 0
    specified: int = 0

    @property
    def failed(self) -> bool:
        return self.status not in ("ok", "too_large")

    def fingerprint(self) -> tuple:
        return (self.status, self.qubits, self.gates, self.complexity,
                self.qasm_sha, self.netlist_sha)

    def line(self, label: str) -> str:
        return (f"item pass={label} {self.key} status={self.status} "
                f"time_ms={self.seconds * 1e3:.3f} qubits={self.qubits} gates={self.gates} "
                f"complexity={self.complexity} qasm_sha256={self.qasm_sha}")


def finish(item: workloads.Item, out: workloads.Outcome, seconds: float,
           corrupt: bool) -> Row:
    """Fingerprint and independently check one item's output (untimed)."""
    row = Row(item.key, out.status, seconds)
    if out.status != "ok":
        return row
    netlist = out.netlist
    if corrupt:
        netlist = oracle_check.corrupt_one_gate(netlist, item.spec.m)
    try:
        checked = oracle_check.check_netlist(netlist, item.spec)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        row.status = f"unreadable_netlist:{type(exc).__name__}"
        return row
    reported = (out.qubits, out.gates, out.complexity)
    derived = (checked.width, checked.gates, checked.complexity)
    if checked.mismatches:
        row.status = f"wrong_output:{checked.mismatches}_bits"
    elif reported != derived:
        row.status = "wrong_report"
    row.qubits, row.gates, row.complexity = derived
    row.qasm_bytes = len(out.qasm.encode())
    row.qasm_sha = hashlib.sha256(out.qasm.encode()).hexdigest()
    row.netlist_sha = hashlib.sha256(netlist.encode()).hexdigest()
    row.verified, row.specified = out.verified, out.specified
    return row


def run_item(q, item: workloads.Item, corrupt: bool) -> Row:
    start = time.perf_counter()
    try:
        out = workloads.run(q, item)
    except Exception as exc:  # an item that crashes is a failed operation
        out = workloads.Outcome(f"error:{type(exc).__name__}:{exc}".replace(" ", "_"))
    seconds = time.perf_counter() - start
    return finish(item, out, seconds, corrupt)


def run_pass(q, items: list[workloads.Item], corrupt: bool = False,
             tracer: layertrace.Tracer | None = None) -> tuple[list[Row], list[Row]]:
    """One pass over ``items``: (untraced rows, traced rows).

    With a tracer, each item runs untraced and traced back to back, in an
    order that alternates from item to item, so both halves see the same
    machine and their ratio is the tracing overhead.
    """
    # What set-up and earlier passes left alive is frozen out of the
    # collector's scans, and each item starts with no garbage left by the
    # one before it, so its time does not depend on the seeded order.
    gc.collect()
    gc.freeze()
    plain: list[Row] = []
    traced: list[Row] = []
    for i, item in enumerate(items):
        for on in ((False,) if tracer is None else (i % 2 == 1, i % 2 == 0)):
            gc.collect()
            if on:
                with tracer.installed():
                    traced.append(run_item(q, item, False))
            else:
                plain.append(run_item(q, item, corrupt))
                # Only an item that produced a netlist takes the corruption.
                corrupt = corrupt and not plain[-1].qasm_sha
    return plain, traced


def pass_metrics(rows: list[Row]) -> dict[str, float]:
    """Wall time and quality-of-results sums of one pass."""
    ok = [r for r in rows if r.status == "ok"]
    specified = sum(r.specified for r in ok)
    return {
        "wall_s": sum(r.seconds for r in rows),
        "ok_share": len(ok) / len(rows),
        "pass_share": 1 - sum(r.failed for r in rows) / len(rows),
        "verified_share": sum(r.verified for r in ok) / specified if specified else 0.0,
        "qubits_total": sum(r.qubits for r in ok),
        "gates_total": sum(r.gates for r in ok),
        "complexity_total": sum(r.complexity for r in ok),
        "qasm_bytes_total": sum(r.qasm_bytes for r in ok),
    }


class Ledger:
    """Every item execution of a run: fingerprints, failures and timings."""

    def __init__(self) -> None:
        self.first: dict[str, Row] = {}
        self.samples: dict[str, list[float]] = {}
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.passes: list[dict[str, float]] = []
        self.attempted = self.failed = self.differ = 0

    def record(self, rows: list[Row], label: str, traced: bool) -> None:
        """Count, fingerprint-compare and time one pass."""
        self.attempted += len(rows)
        self.failed += sum(r.failed for r in rows)
        for row in rows:
            reference = self.first.setdefault(row.key, row)
            if reference is row:
                print(row.line(label))
            elif reference.fingerprint() != row.fingerprint():
                self.differ += 1
                print(f"NONDETERMINISTIC {row.line(label)}")
            if not traced:
                self.samples.setdefault(row.key, []).append(row.seconds)
        metrics = pass_metrics(rows)
        self.walls[traced].append(metrics["wall_s"])
        if not traced:
            self.passes.append(metrics)
        print(f"pass {label} traced={int(traced)} wall_s={metrics['wall_s']:.4f} "
              f"failed={sum(r.failed for r in rows)}", flush=True)

    def end_to_end(self) -> dict[str, float]:
        # Counts repeat exactly in every pass (record() enforces it); times vary.
        e2e = dict(self.passes[0])
        e2e["wall_s"] = statistics.median(p["wall_s"] for p in self.passes)
        e2e["geomean_ms"] = math.exp(statistics.fmean(
            math.log(statistics.median(v) * 1e3) for v in self.samples.values()))
        return e2e


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-one", action="store_true",
                        help="corrupt one gate of the first checked netlist; the "
                             "run must then report a failure")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup(args.workload)[2])
        return 0

    q, items, _ = setup(args.workload)
    workloads.attach_specs(items)
    print(f"env python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()} workload={args.workload} seed={args.seed} "
          f"items={len(items)} trace={args.trace}")
    setup_s = None if args.trace else measure_setup(args.workload)

    rng = random.Random(args.seed)
    ledger = Ledger()
    layer_runs: list[dict[str, float]] = []
    fired: set[str] = set()
    started = time.perf_counter()
    pass_no = 0
    # Untraced runs make at least two passes and traced runs one paired pass,
    # so every item runs at least twice and its fingerprint can be compared.
    while (pass_no < (1 if args.trace else 2)
           or time.perf_counter() - started < args.seconds):
        tracer = layertrace.Tracer(q) if args.trace else None
        corrupt = args.corrupt_one and pass_no == 0
        order = list(items)
        rng.shuffle(order)  # a seeded order, drawn again every pass
        plain, traced = run_pass(q, order, corrupt, tracer)
        ledger.record(plain, str(pass_no), traced=False)
        if tracer is not None:
            ledger.record(traced, str(pass_no), traced=True)
            layer_runs.append(tracer.metrics())
            fired |= set(tracer.calls)
        pass_no += 1

    for row in ledger.first.values():
        if row.failed:
            print(f"FAILED {row.line('0')}")
    e2e = ledger.end_to_end()
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e["failed_share"] = 1 - e2e["pass_share"]
    for name, unit in dict(END_TO_END, **ALSO_PRINTED).items():
        if e2e[name] is not None:
            print(f"metric {name} = {e2e[name]} {unit}")

    correct = ledger.failed == 0 and ledger.differ == 0
    if args.trace:
        missing = sorted(set(workloads.EXPECTED_SPANS[args.workload]) - fired)
        if missing:
            raise BenchError(f"trace coverage: spans never fired on {args.workload}: "
                             + ", ".join(missing))
        # Counts repeat exactly in every traced pass; times take the median.
        layers = {name: statistics.median(run[name] for run in layer_runs)
                  if unit == "s" else layer_runs[0][name]
                  for name, unit in layertrace.METRICS.items()}
        layers["trace.overhead"] = sum(ledger.walls[True]) / sum(ledger.walls[False]) - 1
        units = dict(layertrace.METRICS, **{"trace.overhead": "ratio"})
        for name, value in layers.items():
            print(f"layer {name} = {value} {units[name]}")
        reported = {name: {"value": v, "unit": units[name]} for name, v in layers.items()}
    else:
        reported = {name: {"value": e2e[name], "unit": unit}
                    for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed + ledger.differ, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, FileNotFoundError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
