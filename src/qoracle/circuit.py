"""Multiple-control Toffoli circuit IR, polarity lowering and size metrics."""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import NamedTuple

from .errors import QOracleError
from .embed import ROLE_INPUT, ROLE_OUTPUT

KIND_X = "x"
KIND_MCX = "mcx"
KIND_H = "h"
KIND_Z = "z"
KIND_MCZ = "mcz"

#: Gate kinds the classical permutation simulator accepts.
CLASSICAL_KINDS = frozenset({KIND_X, KIND_MCX})


def _qubits(mask: int):
    """The qubits whose bits are set in ``mask``, in ascending order."""
    if mask < 0:
        raise ValueError(f"negative control mask {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _from_msb_first(mask: int, width: int) -> int:
    """The gate mask of a ``width``-bit table mask whose top bit is qubit 0."""
    return int(format(mask, f"0{width}b")[::-1], 2)


class Gate(NamedTuple):
    """One gate: a target qubit plus positive and negative control masks.

    Bit q of ``pos``/``neg`` stands for qubit q.  ``x``/``mcx`` flip the
    target when every control matches its polarity; ``h``/``z``/``mcz``
    exist only for search-circuit assembly and are rejected by the classical
    simulator.  ``Circuit`` validates its gates against its width.
    """

    kind: str
    target: int
    pos: int = 0
    neg: int = 0

    @property
    def cost(self) -> int:
        """Number of qubits the gate acts on (controls plus target)."""
        return (self.pos | self.neg).bit_count() + 1


def x(target: int) -> Gate:
    return Gate(KIND_X, target)


def h(target: int) -> Gate:
    return Gate(KIND_H, target)


def z(target: int) -> Gate:
    return Gate(KIND_Z, target)


def mcx(target: int, pos: int = 0, neg: int = 0) -> Gate:
    return Gate(KIND_MCX if pos | neg else KIND_X, target, pos, neg)


def mcz(target: int, pos: int = 0, neg: int = 0) -> Gate:
    return Gate(KIND_MCZ if pos | neg else KIND_Z, target, pos, neg)


_UNCONTROLLED = frozenset({KIND_X, KIND_H, KIND_Z})


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
        width = self.width
        for gate in self.gates:
            kind, target, pos, neg = gate
            mask = pos | neg
            if (not 0 <= target < width or mask < 0 or mask >> width or pos & neg
                    or mask >> target & 1 or (mask and kind in _UNCONTROLLED)):
                raise ValueError(f"malformed gate {gate} in a {width}-qubit circuit")

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
    flipped = 0
    out: list[Gate] = []

    def flush(mask: int) -> None:
        nonlocal flipped
        mask &= flipped
        flipped ^= mask
        out.extend(x(q) for q in _qubits(mask))

    for gate in circuit.gates:
        kind, target, pos, neg = gate
        if kind == KIND_X:
            # An explicit X cancels a pending sandwich X on the same wire.
            if flipped >> target & 1:
                flipped ^= 1 << target
            else:
                out.append(gate)
            continue
        if kind in (KIND_H, KIND_Z):
            flush(1 << target)
            out.append(gate)
            continue
        if pos & flipped:
            flush(pos)
        if kind == KIND_MCZ:
            # Z-type gates read their target; an X flip on X-type targets
            # commutes with the conditional flip and may stay pending.
            flush(1 << target)
        if neg:
            out.extend(x(q) for q in _qubits(neg & ~flipped))
            flipped |= neg
            gate = Gate(kind, target, pos | neg)
        out.append(gate)
    flush(flipped)
    return circuit.replace_gates(out)


def complexity(circuit: Circuit) -> int:
    """Sum of per-gate costs, each the number of qubits the gate touches."""
    if any(gate.neg for gate in circuit.gates):
        raise QOracleError("complexity is defined on lowered circuits")
    return sum(gate.cost for gate in circuit.gates)


def metrics(circuit: Circuit, elapsed_us: int) -> MetricsReport:
    """Assemble the standard report for a finished synthesis run."""
    return MetricsReport(
        qubits=circuit.width,
        gate_count=len(circuit.gates),
        complexity=complexity(circuit),
        time_us=elapsed_us,
    )
