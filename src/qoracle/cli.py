"""Command-line entry point: synth / bench / verify / grover / encode."""
from __future__ import annotations

import argparse
import csv
import functools
import math
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import circuit as circ
from . import embed, emit, esop, grover, pla, sim, tbs
from .errors import (
    GateLimitExceeded,
    QOracleError,
    SynthesisTimeout,
    TooWide,
    VerificationFailed,
)

METHODS = ("esop", "esop-rtt", tbs.UNIDIRECTIONAL, tbs.BIDIRECTIONAL)

COMPLETIONS = ("hamming", "naive")

#: The longest ``timeout_s`` accepted; ``setitimer`` overflows a few decades above it.
MAX_TIMEOUT_S = 1e6
DEFAULT_TIMEOUT_S = 600.0

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_LIMIT = 4


@dataclass(frozen=True)
class SynthResult:
    circuit: circ.Circuit
    report: circ.MetricsReport
    embedding: embed.EmbeddingReport | None
    verification: sim.VerificationReport


def _on_alarm(timeout_s: float, signum, frame) -> None:
    """Raise ``SynthesisTimeout`` naming the stage that ``run_synthesis`` was running.

    The stage is the frame ``run_synthesis`` called, or ``run_synthesis``
    itself between stages and just before or after the call.
    """
    while frame.f_back is not None and frame.f_back.f_code is not _RUN_SYNTHESIS:
        frame = frame.f_back
    stage = (f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"
             if frame.f_back is not None else f"{__name__}.run_synthesis")
    raise SynthesisTimeout(f"gave up after {timeout_s:g} s in {stage}")


def run_synthesis(
    table: pla.PlaTable,
    method: str,
    *,
    source: str = "",
    minimize: bool = True,
    partial: bool = False,
    dc_minimize: bool = False,
    completion: str = "hamming",
) -> SynthResult:
    """Run one full synthesis pipeline and verify the result.

    Raises TooWide / GateLimitExceeded when the method cannot handle the
    function within its limits, and VerificationFailed if the finished
    circuit disagrees with the table.  It arms no timer, so any thread may
    call it.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if completion not in COMPLETIONS:
        raise ValueError(f"unknown completion {completion!r}")
    if dc_minimize and method == "esop":
        raise ValueError("dc_minimize resolves don't-cares for the embedding, "
                         "which method 'esop' does not build")
    started = time.monotonic()
    spec = pla.expand(table, partial=partial)
    embedding = None
    if method != "esop":
        # Stages are looked up at call time, so a patched attribute is the one run.
        resolved = embed.resolve_dontcares(spec, min_duplication=dc_minimize)
        partial_spec, embedding = embed.rtt_embed(resolved)
        total = getattr(embed, f"complete_onto_{completion}")(partial_spec)
        embedding = embed.finish_report(embedding, partial_spec, total)

    if method in (tbs.UNIDIRECTIONAL, tbs.BIDIRECTIONAL):
        raw = tbs.tbs_synthesize(total, direction=method, source=source)
        check_spec = resolved
    else:
        if method == "esop-rtt":
            # The completed permutation's minterms are already a disjoint ESOP.
            check_spec = embed.reexpress(total, embedding, table.m)
            cube_list = esop.spec_to_esop(check_spec)
        else:
            check_spec, cube_list = spec, esop.sop_to_esop(table)
        if minimize:
            cube_list = esop.minimize_esop(cube_list)
        raw = esop.esop_to_circuit(cube_list, method=method, source=source)

    lowered = circ.lower_polarity(raw)
    report = circ.metrics(lowered, int((time.monotonic() - started) * 1e6))
    verification = sim.verify_oracle(lowered, check_spec)
    if not verification.passed:
        raise VerificationFailed(verification)
    return SynthResult(lowered, report, embedding, verification)


# Taken once, since a tracer may rebind the module's ``run_synthesis`` to a wrapper.
_RUN_SYNTHESIS = run_synthesis.__code__


def _run_with_timeout(timeout_s: float, table: pla.PlaTable, method: str,
                      **options) -> SynthResult:
    """``run_synthesis`` bounded by one SIGALRM interval timer (``ITIMER_REAL``).

    It works on POSIX and on the main thread only.  Python runs the handler
    between bytecodes, so a numpy call in progress finishes first.  The timer
    is disarmed and the previous SIGALRM handler restored on every exit.
    """
    _require_positive("timeout_s", timeout_s, MAX_TIMEOUT_S)
    previous = signal.signal(signal.SIGALRM, functools.partial(_on_alarm, timeout_s))
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            return run_synthesis(table, method, **options)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


# --- bench harness ---------------------------------------------------------

CSV_HEADER = "function,inputs,outputs,method,qubits,gate_count,complexity,time_us,status"


def bench_row(task: tuple[str, str, float, str]) -> list:
    """The CSV fields of one (path, method, timeout_s, completion) bench task.

    A function too large or too slow for the method gets empty metric fields.
    """
    path, method, timeout_s, completion = task
    name = Path(path).stem
    table = pla.parse_pla(Path(path).read_text())
    head = [name, table.n, table.m, method]
    try:
        r = _run_with_timeout(timeout_s, table, method, source=name,
                              completion=completion).report
    except (TooWide, GateLimitExceeded):
        return head + [""] * 4 + ["too_large"]
    except SynthesisTimeout:
        return head + [""] * 4 + ["timeout"]
    return head + [r.qubits, r.gate_count, r.complexity, r.time_us, "ok"]


# --- subcommand implementations ---------------------------------------------

def _require_positive(flag: str, value: float, most: float = math.inf) -> None:
    """Reject zero, negative, infinite and NaN values, and values above ``most``."""
    if not 0 < value < math.inf or value > most:
        limit = f" and at most {most:g}" if most < math.inf else ""
        raise ValueError(f"{flag} must be a finite number above 0{limit}, got {value}")


def _cmd_synth(args) -> int:
    _require_positive("--timeout-s", args.timeout_s, MAX_TIMEOUT_S)
    table = pla.parse_pla(Path(args.infile).read_text())
    result = _run_with_timeout(
        args.timeout_s,
        table,
        args.method,
        source=Path(args.infile).stem,
        minimize=not args.no_minimize,
        partial=args.partial,
        dc_minimize=args.dc_minimize,
        completion=args.completion,
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
    _require_positive("--timeout-s", args.timeout_s, MAX_TIMEOUT_S)
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
    if len(set(methods)) < len(methods):
        raise ValueError(f"--methods must be a list of distinct methods, got {args.methods!r}")
    files = sorted(bench_dir.glob("*.pla"))
    if not files:
        raise FileNotFoundError(f"no .pla files under {bench_dir}")
    tasks = [(str(f), m, args.timeout_s, args.completion) for f in files for m in methods]
    # Opened first, so a bad path fails before the matrix is synthesized.
    with Path(args.csv).open("w", newline="") as fh:
        if args.jobs > 1:
            # Imported here: only a parallel bench pays for the pool's import.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
                rows = list(pool.map(bench_row, tasks))
        else:
            rows = [bench_row(t) for t in tasks]
        rows.sort(key=lambda row: (row[0], row[3]))  # function, method
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(rows)
    for row in rows:
        print(",".join(map(str, row)))
    return EXIT_OK


def _cmd_verify(args) -> int:
    table = pla.parse_pla(Path(args.infile).read_text())
    circuit = emit.from_json(Path(args.circuit).read_text())
    spec = pla.expand(table, partial=args.partial)
    report = sim.verify_oracle(circuit, spec)
    print(report.summary())
    for x_bits, expected, got in report.mismatches[:20]:
        print(f"  {x_bits}: expected {expected}, got {got}")
    if len(report.mismatches) > 20:
        print(f"  ... and {len(report.mismatches) - 20} more")
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_grover(args) -> int:
    _require_positive("--shots", args.shots)
    if args.deck == bool(args.pla):
        raise QOracleError("choose exactly one of --deck --query ... or --pla FILE")
    if args.deck:
        table = grover.card_query_to_pla(grover.parse_query(args.query))
        source = f"deck:{args.query}"
    else:
        table = pla.parse_pla(Path(args.pla).read_text())
        source = Path(args.pla).stem
    if table.m != 1:
        raise QOracleError("search predicates need exactly one output")
    marked = [x for x, value in enumerate(pla.expand(table).entries.tolist()) if value == 1]
    if not marked:
        raise QOracleError("the predicate marks no states; nothing to search")

    oracle = _run_with_timeout(DEFAULT_TIMEOUT_S, table, "esop", source=source).circuit
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
    p.add_argument("--no-minimize", action="store_true")
    p.add_argument("--partial", action="store_true",
                   help="leave minterms covered by no cube unspecified")
    p.add_argument("--dc-minimize", action="store_true",
                   help="resolve output don't-cares to minimize duplication (not esop)")
    p.add_argument("--timeout-s", type=float, default=DEFAULT_TIMEOUT_S)
    p.add_argument("--completion", choices=COMPLETIONS, default="hamming")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("bench", help="run the benchmark table harness")
    p.add_argument("--dir", required=True)
    p.add_argument("--methods", default="esop,esop-rtt,tbs")
    p.add_argument("--csv", required=True)
    p.add_argument("--timeout-s", type=float, default=DEFAULT_TIMEOUT_S)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--completion", choices=COMPLETIONS, default="hamming")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="check a circuit netlist against a table")
    p.add_argument("--in", dest="infile", required=True, metavar="PLA")
    p.add_argument("--circuit", required=True, metavar="JSON")
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
