"""Multiple-control Toffoli circuit IR, polarity lowering and size metrics."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

from .errors import QOracleError

ROLE_INPUT = "input"
ROLE_ANCILLA = "ancilla"
ROLE_OUTPUT = "output"
ROLE_GARBAGE = "garbage"

KIND_X = "x"
KIND_H = "h"
KIND_Z = "z"

_KINDS = frozenset({KIND_X, KIND_H, KIND_Z})
#: The kinds that may carry controls; an H never does.
_CONTROLLABLE = frozenset({KIND_X, KIND_Z})


#: The set bits of every byte, in ascending order.
_BYTE_QUBITS = tuple(tuple(q for q in range(8) if byte >> q & 1) for byte in range(256))


def _qubits(mask: int) -> tuple[int, ...]:
    """The qubits whose bits are set in ``mask``, in ascending order."""
    if mask < 0:
        raise ValueError(f"negative control mask {mask}")
    qubits, base = _BYTE_QUBITS[mask & 255], 8
    mask >>= 8
    while mask:
        if mask & 255:
            qubits += tuple(map(base.__add__, _BYTE_QUBITS[mask & 255]))
        mask >>= 8
        base += 8
    return qubits


def _from_msb_first(mask: int, width: int) -> int:
    """The gate mask of a ``width``-bit table mask whose top bit is qubit 0."""
    return int(format(mask, f"0{width}b")[::-1], 2)


class Gate(NamedTuple):
    """One gate: a target qubit plus positive and negative control masks.

    Bit q of ``pos``/``neg`` stands for qubit q.  The kind says what the
    gate does and the masks say when: an ``x`` flips its target and a ``z``
    negates its target's 1 amplitude when every control matches its
    polarity; an ``h`` has no controls.  ``h`` and ``z`` exist only for
    search-circuit assembly and are rejected by the classical simulator.
    ``Circuit`` validates its gates against its width.
    """

    kind: str
    target: int
    pos: int = 0
    neg: int = 0


def x(target: int) -> Gate:
    return Gate(KIND_X, target)


def h(target: int) -> Gate:
    return Gate(KIND_H, target)


def z(target: int) -> Gate:
    return Gate(KIND_Z, target)


def mcx(target: int, pos: int = 0, neg: int = 0) -> Gate:
    # ``tuple.__new__`` skips the frame of the generated ``Gate.__new__``.
    return tuple.__new__(Gate, (KIND_X, target, pos, neg))


def mcz(target: int, pos: int = 0, neg: int = 0) -> Gate:
    return Gate(KIND_Z, target, pos, neg)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate cascade over ``width`` qubits with per-qubit roles.

    A built circuit cannot change: its gates and roles are tuples, checked
    against the width once, here.  ``dataclasses.replace`` builds a circuit with new
    gates and checks them again.
    """

    width: int
    gates: tuple[Gate, ...] = ()
    roles_in: tuple[str, ...] = ()
    roles_out: tuple[str, ...] = ()
    source: str = ""
    method: str = ""

    def __post_init__(self) -> None:
        width = self.width
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "roles_in", tuple(self.roles_in) or (ROLE_INPUT,) * width)
        object.__setattr__(self, "roles_out", tuple(self.roles_out) or (ROLE_OUTPUT,) * width)
        if len(self.roles_in) != width or len(self.roles_out) != width:
            raise ValueError("role annotations must cover every qubit")
        for gate in self.gates:
            kind, target, pos, neg = gate
            mask = pos | neg
            if (not 0 <= target < width or mask < 0 or mask >> width or pos & neg
                    or mask >> target & 1 or kind not in (_CONTROLLABLE if mask else _KINDS)):
                raise ValueError(f"malformed gate {gate} in a {width}-qubit circuit")


@dataclass(frozen=True)
class MetricsReport:
    """Synthesis result sizes plus wall time."""

    qubits: int
    gate_count: int
    complexity: int
    time_us: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def lower_polarity(circuit: Circuit) -> Circuit:
    """Rewrite negative controls as positive controls in an X sandwich.

    The inserted X pairs are tracked lazily per qubit, so consecutive gates
    sharing a negative control reuse one sandwich instead of cancelling
    X pairs back to back.  The result computes the same function and
    contains positive controls only; a circuit that has none to rewrite is
    returned as it is.
    """
    if not any(gate.neg for gate in circuit.gates):
        return circuit
    flipped = 0
    out: list[Gate] = []

    def flush(mask: int) -> None:
        nonlocal flipped
        mask &= flipped
        flipped ^= mask
        out.extend(x(q) for q in _qubits(mask))

    for gate in circuit.gates:
        kind, target, pos, neg = gate
        if kind == KIND_X and not pos | neg:
            # An uncontrolled X cancels a pending sandwich X on the same wire.
            if flipped >> target & 1:
                flipped ^= 1 << target
            else:
                out.append(gate)
            continue
        if pos & flipped:
            flush(pos)
        if kind != KIND_X:
            # H and Z gates read their target; an X flip on an X's target
            # commutes with the conditional flip and may stay pending.
            flush(1 << target)
        if neg:
            out.extend(x(q) for q in _qubits(neg & ~flipped))
            flipped |= neg
            gate = Gate(kind, target, pos | neg)
        out.append(gate)
    flush(flipped)
    return replace(circuit, gates=out)


def complexity(circuit: Circuit) -> int:
    """Sum of per-gate costs, each the number of qubits the gate touches."""
    total = len(circuit.gates)
    for _, _, pos, neg in circuit.gates:
        if neg:
            raise QOracleError("complexity is defined on lowered circuits")
        total += pos.bit_count()
    return total


def metrics(circuit: Circuit, elapsed_us: int) -> MetricsReport:
    """Assemble the standard report for a finished synthesis run."""
    return MetricsReport(
        qubits=circuit.width,
        gate_count=len(circuit.gates),
        complexity=complexity(circuit),
        time_us=elapsed_us,
    )
