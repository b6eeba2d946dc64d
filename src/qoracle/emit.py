"""Circuit serialization: a QASM 3 dialect and a JSON netlist."""
from __future__ import annotations

import json

from .circuit import (
    KIND_H,
    KIND_MCX,
    KIND_MCZ,
    KIND_X,
    KIND_Z,
    NEGATIVE,
    Circuit,
    Gate,
)
from .errors import NegativeControlPresent, ParseError

_SIMPLE = {KIND_X: "x", KIND_H: "h", KIND_Z: "z"}
_CONTROLLED = {KIND_MCX: "x", KIND_MCZ: "z"}


def to_qasm(circuit: Circuit) -> str:
    """Emit OPENQASM 3.0 with ctrl(k) modifiers for multi-control gates.

    Requires a lowered circuit: negative controls have no direct QASM
    spelling here and must be rewritten as X sandwiches first.
    """
    lines = ["OPENQASM 3.0;", f"qubit[{circuit.width}] q;"]
    for gate in circuit.gates:
        if any(pol == NEGATIVE for _, pol in gate.controls):
            raise NegativeControlPresent("lower the circuit before QASM emission")
        if gate.kind in _SIMPLE:
            lines.append(f"{_SIMPLE[gate.kind]} q[{gate.target}];")
        else:
            base = _CONTROLLED[gate.kind]
            operands = ", ".join(
                [f"q[{q}]" for q, _ in gate.controls] + [f"q[{gate.target}]"]
            )
            lines.append(f"ctrl({len(gate.controls)}) @ {base} {operands};")
    lines.append("// qubit roles (input -> output):")
    for q in range(circuit.width):
        lines.append(f"// q[{q}]: {circuit.roles_in[q]} -> {circuit.roles_out[q]}")
    return "\n".join(lines) + "\n"


def to_json(circuit: Circuit) -> str:
    """Serialize to the JSON netlist, gates in execution order."""
    doc = {
        "width": circuit.width,
        "roles": [
            [circuit.roles_in[q], circuit.roles_out[q]] for q in range(circuit.width)
        ],
        "gates": [
            # json writes the (qubit, polarity) tuples as arrays.
            {"kind": gate.kind, "target": gate.target, "controls": gate.controls}
            for gate in circuit.gates
        ],
        "provenance": {"source": circuit.source, "method": circuit.method},
    }
    return json.dumps(doc) + "\n"


def from_json(text: str) -> Circuit:
    """Decode a JSON netlist; inverse of to_json."""
    try:
        doc = json.loads(text)
        width = doc["width"]
        roles = doc.get("roles") or [["input", "output"]] * width
        gates = [
            Gate(
                g["kind"],
                g["target"],
                tuple((int(q), str(pol)) for q, pol in g.get("controls", [])),
            )
            for g in doc["gates"]
        ]
        provenance = doc.get("provenance", {})
        return Circuit(
            width=width,
            gates=gates,
            roles_in=tuple(str(r[0]) for r in roles),
            roles_out=tuple(str(r[1]) for r in roles),
            source=str(provenance.get("source", "")),
            method=str(provenance.get("method", "")),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"bad circuit netlist: {exc}") from exc
