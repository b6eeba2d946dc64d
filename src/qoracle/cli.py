"""Command-line entry point: synth / bench / verify / grover / encode."""
from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from . import circuit as circ
from . import embed, emit, esop, grover, pla, sim, tbs
from .errors import (
    GateLimitExceeded,
    QOracleError,
    SynthesisTimeout,
    TooWide,
    VerificationFailed,
)

METHODS = ("esop", "esop-rtt", "tbs")

COMPLETIONS = ("hamming", "naive")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_LIMIT = 4


@dataclass
class SynthResult:
    circuit: circ.Circuit
    report: circ.MetricsReport
    embedding: embed.EmbeddingReport | None
    verification: sim.VerificationReport


def _reexpress(total: embed.ReversibleSpec, report: embed.EmbeddingReport,
               n: int, m: int) -> pla.SpecTable:
    """Rewrite a completed permutation as a fully specified (n+w)/(m+v) table."""
    pad = report.n_total - m - report.v
    entries = {x: (int(y) >> pad, 0) for x, y in enumerate(total.perm)}
    return pla.SpecTable(n=n + report.w, m=m + report.v, entries=entries)


def _embed(resolved: pla.SpecTable, completion: str,
           deadline: float) -> tuple[embed.ReversibleSpec, embed.EmbeddingReport]:
    """RTT-embed a resolved table and complete it onto a permutation."""
    partial_spec, embedding = embed.rtt_embed(resolved)
    # Looked up at call time, so a patched ``embed`` attribute is the one run.
    total = getattr(embed, f"complete_onto_{completion}")(partial_spec, deadline=deadline)
    embed.finish_report(embedding, partial_spec, total)
    return total, embedding


def run_synthesis(
    table: pla.PlaTable,
    method: str,
    *,
    source: str = "",
    minimize: bool = True,
    partial: bool = False,
    dc_minimize: bool = False,
    completion: str = "hamming",
    direction: str = tbs.UNIDIRECTIONAL,
    timeout_s: float = 600.0,
) -> SynthResult:
    """Run one full synthesis pipeline and verify the result.

    Raises TooWide / GateLimitExceeded / SynthesisTimeout when the method
    cannot handle the function within its limits, and VerificationFailed if
    the finished circuit disagrees with the table.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if completion not in COMPLETIONS:
        raise ValueError(f"unknown completion {completion!r}")
    started = time.monotonic()
    deadline = started + timeout_s
    spec = pla.expand(table, partial=partial)
    resolved = embedding = None
    if method != "esop" or dc_minimize:
        policy = embed.RESOLVE_MIN_DUPLICATION if dc_minimize else embed.RESOLVE_ZEROS
        resolved = embed.resolve_dontcares(spec, policy)
    if method != "esop":
        total, embedding = _embed(resolved, completion, deadline)

    if method == "tbs":
        raw = tbs.tbs_synthesize(total, direction=direction, deadline=deadline)
        check_spec, mode = resolved, sim.MODE_MINIMAL
    else:
        if method == "esop-rtt":
            # The completed permutation's minterms are already a disjoint ESOP.
            check_spec = _reexpress(total, embedding, table.n, table.m)
            cube_list = esop.spec_to_esop(check_spec)
        elif dc_minimize:
            check_spec, cube_list = spec, esop.spec_to_esop(resolved)
        else:
            check_spec, cube_list = spec, esop.sop_to_esop(table)
        if minimize:
            cube_list = esop.minimize_esop(cube_list, deadline=deadline)
        raw = esop.esop_to_circuit(cube_list, method=method)
        mode = sim.MODE_PRESERVE
    raw.source = source

    lowered = circ.lower_polarity(raw)
    elapsed_us = int((time.monotonic() - started) * 1e6)
    report = circ.metrics(lowered, elapsed_us)

    verification = sim.verify_oracle(lowered, check_spec, mode)
    if not verification.passed:
        raise VerificationFailed(verification)
    return SynthResult(lowered, report, embedding, verification)


# --- bench harness ---------------------------------------------------------

CSV_HEADER = "function,inputs,outputs,method,qubits,gate_count,complexity,time_us,status"


@dataclass
class BenchRow:
    function: str
    inputs: int
    outputs: int
    method: str
    qubits: int | None
    gate_count: int | None
    complexity: int | None
    time_us: int | None
    status: str

    def as_csv(self) -> list[str]:
        metric = lambda v: "" if v is None else str(v)
        return [
            self.function, str(self.inputs), str(self.outputs), self.method,
            metric(self.qubits), metric(self.gate_count), metric(self.complexity),
            metric(self.time_us), self.status,
        ]


def bench_one(
    path: str,
    method: str,
    timeout_s: float,
    completion: str,
) -> BenchRow:
    """Synthesize one benchmark with one method, mapping failures to a row."""
    file = Path(path)
    table = pla.parse_pla(file.read_text())
    name = file.stem
    try:
        result = run_synthesis(
            table,
            method,
            source=name,
            completion=completion,
            timeout_s=timeout_s,
        )
    except (TooWide, GateLimitExceeded):
        return BenchRow(name, table.n, table.m, method, None, None, None, None, "too_large")
    except SynthesisTimeout:
        return BenchRow(name, table.n, table.m, method, None, None, None, None, "timeout")
    report = result.report
    return BenchRow(
        name, table.n, table.m, method,
        report.qubits, report.gate_count, report.complexity, report.time_us, "ok",
    )


def _bench_task(args: tuple[str, str, float, str]) -> BenchRow:
    return bench_one(*args)


def run_bench(
    bench_dir: Path,
    methods: list[str],
    timeout_s: float,
    jobs: int,
    completion: str,
) -> list[BenchRow]:
    files = sorted(bench_dir.glob("*.pla"))
    if not files:
        raise FileNotFoundError(f"no .pla files under {bench_dir}")
    tasks = [(str(f), m, timeout_s, completion) for f in files for m in methods]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            rows = list(pool.map(_bench_task, tasks))
    else:
        rows = [_bench_task(t) for t in tasks]
    rows.sort(key=lambda r: (r.function, r.method))
    return rows


def write_bench_csv(rows: list[BenchRow], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for row in rows:
        writer.writerow(row.as_csv())


# --- subcommand implementations ---------------------------------------------

def _require_positive(flag: str, value: float) -> None:
    """Reject zero, negative, infinite and NaN option values."""
    if not 0 < value < math.inf:
        raise ValueError(f"{flag} must be a finite number above 0, got {value}")


def _cmd_synth(args) -> int:
    _require_positive("--timeout-s", args.timeout_s)
    table = pla.parse_pla(Path(args.infile).read_text())
    result = run_synthesis(
        table,
        args.method,
        source=Path(args.infile).stem,
        minimize=not args.no_minimize,
        partial=args.partial,
        dc_minimize=args.dc_minimize,
        completion=args.completion,
        direction=tbs.BIDIRECTIONAL if args.bidirectional else tbs.UNIDIRECTIONAL,
        timeout_s=args.timeout_s,
    )
    Path(args.out).write_text(emit.to_qasm(result.circuit))
    if args.netlist:
        Path(args.netlist).write_text(emit.to_json(result.circuit))
    if args.metrics:
        Path(args.metrics).write_text(result.report.to_json())
    r = result.report
    print(
        f"{args.method}: qubits={r.qubits} gates={r.gate_count} "
        f"complexity={r.complexity} time_us={r.time_us}"
    )
    if result.embedding is not None:
        e = result.embedding
        print(
            f"embedding: d={e.d} v={e.v} w={e.w} n_total={e.n_total} "
            f"completed_rows={e.completed_rows} identical_pairings={e.identical_pairings}"
        )
    print(f"verify: {result.verification.summary()}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    _require_positive("--timeout-s", args.timeout_s)
    _require_positive("--jobs", args.jobs)
    bench_dir = Path(args.dir)
    if not bench_dir.is_dir():
        raise ValueError(f"--dir must be a benchmark directory, got {str(bench_dir)!r}")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError(f"--methods must be a non-empty method list, got {args.methods!r}")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"--methods must be a list of {', '.join(METHODS)}, got {m!r}")
    # Opened first, so a bad path fails before the matrix is synthesized.
    with Path(args.csv).open("w", newline="") as fh:
        rows = run_bench(bench_dir, methods, args.timeout_s, args.jobs, args.completion)
        write_bench_csv(rows, fh)
    for row in rows:
        print(",".join(row.as_csv()))
    return EXIT_OK


def _cmd_verify(args) -> int:
    table = pla.parse_pla(Path(args.infile).read_text())
    circuit = emit.from_json(Path(args.circuit).read_text())
    spec = pla.expand(table, partial=args.partial)
    report = sim.verify_oracle(circuit, spec, args.mode)
    print(report.summary())
    for x_bits, expected, got in report.mismatches[:20]:
        print(f"  {x_bits}: expected {expected}, got {got}")
    if len(report.mismatches) > 20:
        print(f"  ... and {len(report.mismatches) - 20} more")
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_grover(args) -> int:
    _require_positive("--shots", args.shots)
    if args.deck == bool(args.pla):
        print("choose exactly one of --deck --query ... or --pla FILE", file=sys.stderr)
        return EXIT_USAGE
    if args.deck:
        table = grover.card_query_to_pla(grover.parse_query(args.query))
        source = f"deck:{args.query}"
    else:
        table = pla.parse_pla(Path(args.pla).read_text())
        source = Path(args.pla).stem
    if table.m != 1:
        print("search predicates need exactly one output", file=sys.stderr)
        return EXIT_USAGE
    spec = pla.expand(table)
    marked = [x for x, (value, _) in sorted(spec.entries.items()) if value == 1]
    if not marked:
        print("the predicate marks no states; nothing to search", file=sys.stderr)
        return EXIT_USAGE

    oracle = run_synthesis(table, "esop", source=source).circuit
    n = table.n
    iterations = None if args.iterations == "auto" else int(args.iterations)
    plan = grover.plan_search(n, len(marked), iterations)
    search = grover.build_grover(oracle, plan.iterations)
    state = grover.search_state(search)
    probs = sim.marginal_probabilities(state, n)

    counts_full = sim.sample(state, args.shots, args.seed)
    counts: dict[str, int] = {}
    for bits, count in counts_full.items():
        key = bits[:n]
        counts[key] = counts.get(key, 0) + count
    measured = sum(counts.get(format(x, f"0{n}b"), 0) for x in marked) / args.shots
    predicted = plan.predicted

    rows = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    lines = ["bitstring,count,probability"]
    for bits, count in rows:
        lines.append(f"{bits},{count},{probs[int(bits, 2)]:.6f}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(
        f"iterations={plan.iterations} marked={plan.marked_count} "
        f"predicted={predicted:.4f} measured={measured:.4f}"
    )
    return EXIT_OK


def _cmd_encode(args) -> int:
    pairs = []
    for number, raw in enumerate(Path(args.csv).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            d, r = (int(field) for field in line.split(","))
        except ValueError:
            raise ValueError(
                f"line {number}: expected '<domain>,<range>' integers, got {raw!r}") from None
        pairs.append((d, r))
    table = pla.encode_integer_pairs(pairs)
    Path(args.out).write_text(pla.write_pla(table))
    print(f"encoded {len(pairs)} pairs as a {table.n}-input {table.m}-output table")
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoracle",
        description="Synthesize verified reversible oracle circuits from .pla tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize one oracle circuit")
    p.add_argument("--in", dest="infile", required=True, metavar="PLA")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--out", required=True, metavar="QASM")
    p.add_argument("--netlist", metavar="JSON")
    p.add_argument("--metrics", metavar="JSON")
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--no-minimize", action="store_true")
    p.add_argument("--partial", action="store_true",
                   help="leave minterms covered by no cube unspecified")
    p.add_argument("--dc-minimize", action="store_true",
                   help="resolve output don't-cares to minimize duplication")
    p.add_argument("--timeout-s", type=float, default=600.0)
    p.add_argument("--completion", choices=COMPLETIONS, default="hamming")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="run the benchmark table harness")
    p.add_argument("--dir", required=True)
    p.add_argument("--methods", default="esop,esop-rtt,tbs")
    p.add_argument("--csv", required=True)
    p.add_argument("--timeout-s", type=float, default=600.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--completion", choices=COMPLETIONS, default="hamming")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="check a circuit netlist against a table")
    p.add_argument("--in", dest="infile", required=True, metavar="PLA")
    p.add_argument("--circuit", required=True, metavar="JSON")
    p.add_argument("--mode", choices=(sim.MODE_MINIMAL, sim.MODE_PRESERVE),
                   default=sim.MODE_PRESERVE)
    p.add_argument("--partial", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("grover", help="assemble and simulate a search circuit")
    p.add_argument("--deck", action="store_true", help="use the deck-of-cards database")
    p.add_argument("--query", default="", help="e.g. suit=diamonds,rank=10")
    p.add_argument("--pla", metavar="FILE", help="single-output predicate table")
    p.add_argument("--iterations", default="auto")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=_cmd_grover)

    p = sub.add_parser("encode", help="turn integer (domain,range) rows into a table")
    p.add_argument("--csv", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="PLA")
    p.set_defaults(func=_cmd_encode)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (TooWide, GateLimitExceeded) as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except SynthesisTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QOracleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
