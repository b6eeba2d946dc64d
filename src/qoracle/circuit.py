"""Multiple-control Toffoli circuit IR, polarity lowering and size metrics."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

from .errors import NotLowered
from .embed import ROLE_INPUT, ROLE_OUTPUT

POSITIVE = "+"
NEGATIVE = "-"

KIND_X = "x"
KIND_MCX = "mcx"
KIND_H = "h"
KIND_Z = "z"
KIND_MCZ = "mcz"

#: Gate kinds the classical permutation simulator accepts.
CLASSICAL_KINDS = frozenset({KIND_X, KIND_MCX})


@dataclass(frozen=True)
class Gate:
    """One gate: a target qubit plus polarized controls.

    ``x``/``mcx`` flip the target when every control matches its polarity;
    ``h``/``z``/``mcz`` exist only for search-circuit assembly and are
    rejected by the classical simulator.
    """

    kind: str
    target: int
    controls: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        qubits = [q for q, _ in self.controls]
        if self.target in qubits:
            raise ValueError(f"gate targets its own control qubit {self.target}")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate control qubit")
        for _, pol in self.controls:
            if pol not in (POSITIVE, NEGATIVE):
                raise ValueError(f"bad polarity {pol!r}")
        if self.kind in (KIND_X, KIND_H, KIND_Z) and self.controls:
            raise ValueError(f"{self.kind} takes no controls")

    @property
    def cost(self) -> int:
        """Number of qubits the gate acts on (controls plus target)."""
        return len(self.controls) + 1


def x(target: int) -> Gate:
    return Gate(KIND_X, target)


def h(target: int) -> Gate:
    return Gate(KIND_H, target)


def z(target: int) -> Gate:
    return Gate(KIND_Z, target)


def mcx(target: int, controls) -> Gate:
    controls = tuple((q, pol) for q, pol in controls)
    return Gate(KIND_MCX, target, controls) if controls else Gate(KIND_X, target)


def mcz(target: int, controls) -> Gate:
    controls = tuple((q, pol) for q, pol in controls)
    return Gate(KIND_MCZ, target, controls) if controls else Gate(KIND_Z, target)


@dataclass
class Circuit:
    """An ordered gate cascade over ``width`` qubits with per-qubit roles."""

    width: int
    gates: list[Gate] = field(default_factory=list)
    roles_in: tuple[str, ...] = ()
    roles_out: tuple[str, ...] = ()
    source: str = ""
    method: str = ""

    def __post_init__(self) -> None:
        if not self.roles_in:
            self.roles_in = (ROLE_INPUT,) * self.width
        if not self.roles_out:
            self.roles_out = (ROLE_OUTPUT,) * self.width
        if len(self.roles_in) != self.width or len(self.roles_out) != self.width:
            raise ValueError("role annotations must cover every qubit")
        for gate in self.gates:
            self._check_gate(gate)

    def _check_gate(self, gate: Gate) -> None:
        qubits = [gate.target] + [q for q, _ in gate.controls]
        if any(q < 0 or q >= self.width for q in qubits):
            raise ValueError(f"gate {gate} outside width {self.width}")

    def replace_gates(self, gates: list[Gate]) -> "Circuit":
        return Circuit(
            self.width, gates, self.roles_in, self.roles_out, self.source, self.method
        )


@dataclass
class MetricsReport:
    """Synthesis result sizes plus wall time and completion status."""

    qubits: int
    gate_count: int
    complexity: int
    time_us: int
    status: str = "ok"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def lower_polarity(circuit: Circuit) -> Circuit:
    """Rewrite negative controls as positive controls in an X sandwich.

    The inserted X pairs are tracked lazily per qubit, so consecutive gates
    sharing a negative control reuse one sandwich instead of cancelling
    X pairs back to back.  The result computes the same function and
    contains positive controls only.
    """
    flipped: set[int] = set()
    out: list[Gate] = []

    def flush(qubits) -> None:
        for q in sorted(qubits):
            if q in flipped:
                out.append(x(q))
                flipped.remove(q)

    for gate in circuit.gates:
        if gate.kind == KIND_X:
            # An explicit X cancels a pending sandwich X on the same wire.
            if gate.target in flipped:
                flipped.remove(gate.target)
            else:
                out.append(gate)
            continue
        if gate.kind in (KIND_H, KIND_Z):
            flush({gate.target})
            out.append(gate)
            continue
        flush({q for q, pol in gate.controls if pol == POSITIVE})
        if gate.kind == KIND_MCZ:
            # Z-type gates read their target; an X flip on X-type targets
            # commutes with the conditional flip and may stay pending.
            flush({gate.target})
        need = sorted(q for q, pol in gate.controls if pol == NEGATIVE)
        for q in need:
            if q not in flipped:
                out.append(x(q))
                flipped.add(q)
        if need:
            gate = Gate(gate.kind, gate.target,
                        tuple((q, POSITIVE) for q, _ in gate.controls))
        out.append(gate)
    flush(set(flipped))
    return circuit.replace_gates(out)


def complexity(circuit: Circuit) -> int:
    """Sum of per-gate costs, each the number of qubits the gate touches."""
    for gate in circuit.gates:
        if any(pol == NEGATIVE for _, pol in gate.controls):
            raise NotLowered("complexity is defined on lowered circuits")
    return sum(gate.cost for gate in circuit.gates)


def metrics(circuit: Circuit, elapsed_us: int, status: str = "ok") -> MetricsReport:
    """Assemble the standard report for a finished synthesis run."""
    return MetricsReport(
        qubits=circuit.width,
        gate_count=len(circuit.gates),
        complexity=complexity(circuit),
        time_us=elapsed_us,
        status=status,
    )
