"""The benchmark's workloads: inputs, the timed item, and span coverage.

Each workload turns a seed into a list of items.  ``run`` is the timed work
of one item and returns an ``Outcome``; the independent check against
``Item.spec`` happens outside the timed region.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import oracle_check

METHODS = {"esop-matrix": ("esop", "esop-rtt"), "tbs-matrix": ("tbs",)}

#: Spans that must fire on each workload's traced run; one or more per layer
#: that the workload exists to measure.
EXPECTED_SPANS = {
    "esop-matrix": (
        "pla.parse_pla", "pla.expand", "embed.rtt_embed", "esop.sop_to_esop",
        "esop.minimize_esop", "esop.esop_to_circuit", "circuit.mcx",
        "circuit.lower_polarity", "sim.verify_oracle", "emit.to_qasm", "emit.to_json",
        "cli.run_synthesis",
    ),
    "tbs-matrix": (
        "pla.parse_pla", "pla.expand", "embed.rtt_embed", "embed.complete_onto_hamming",
        "tbs.tbs_synthesize", "circuit.mcx", "circuit.lower_polarity",
        "sim.verify_oracle", "emit.to_qasm", "emit.to_json", "cli.run_synthesis",
    ),
}
WORKLOADS = tuple(EXPECTED_SPANS)


def synthesis_entry(q: ModuleType):
    """The pipeline entry point, resolved at call time so tracing sees it."""
    return q.cli.run_synthesis


@dataclass
class Item:
    key: str
    payload: object
    spec: oracle_check.Spec | None = None


@dataclass
class Outcome:
    status: str
    qasm: str = ""
    netlist: str = ""
    #: Sizes from the program's own report.
    qubits: int = 0
    gates: int = 0
    complexity: int = 0
    #: Minterms the program's own verification checked, and the minterms it
    #: would have to check to cover its specification.
    verified: int = 0
    specified: int = 0


def load(workload: str, root: Path) -> list[Item]:
    """Read one workload's inputs (the set-up that is timed)."""
    files = sorted((root / "benchmarks").glob("*.pla"))
    if not files:
        raise FileNotFoundError(f"no .pla files under {root / 'benchmarks'}")
    return [Item(f"{f.stem}/{method}", (f.stem, f.read_text(), method))
            for f in files for method in METHODS[workload]]


def attach_specs(items: list[Item]) -> None:
    """Build the independent checker's expected outputs for every item."""
    cache: dict[str, oracle_check.Spec] = {}
    for item in items:
        text = item.payload[1]
        if text not in cache:
            cache[text] = oracle_check.spec_from_pla(text)
        item.spec = cache[text]


def run(q: ModuleType, item: Item) -> Outcome:
    """The timed work of one item: parse, synthesize, emit."""
    name, text, method = item.payload
    table = q.pla.parse_pla(text)
    try:
        result = synthesis_entry(q)(table, method, source=name)
    except (q.errors.TooWide, q.errors.GateLimitExceeded):
        return Outcome("too_large")
    except q.errors.SynthesisTimeout:
        return Outcome("timeout")
    qasm = q.emit.to_qasm(result.circuit)
    netlist = q.emit.to_json(result.circuit)
    report, verification = result.report, result.verification
    # The pipeline checks esop and tbs against the expanded table (2^n
    # minterms) and esop-rtt against the completed embedding (2^n_total).
    specified = 1 << (result.embedding.n_total if method == "esop-rtt" else table.n)
    verified = 0
    if verification is not None:
        if verification.total_minterms != specified:
            raise RuntimeError(f"{item.key}: pipeline checked {verification.total_minterms} "
                               f"minterms, benchmark expected {specified}")
        verified = verification.checked
    return Outcome("ok", qasm, netlist, report.qubits, report.gate_count,
                   report.complexity, verified, specified)
