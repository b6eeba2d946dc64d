"""Circuit serialization: a QASM 3 dialect and a JSON netlist."""
from __future__ import annotations

import json

from .circuit import KIND_H, KIND_MCX, KIND_MCZ, KIND_X, KIND_Z, Circuit, Gate, _qubits
from .errors import QOracleError

#: Netlist spelling of a control's polarity.
POSITIVE = "+"
NEGATIVE = "-"

_SIMPLE = {KIND_X: "x", KIND_H: "h", KIND_Z: "z"}
_CONTROLLED = {KIND_MCX: "x", KIND_MCZ: "z"}


def to_qasm(circuit: Circuit) -> str:
    """Emit OPENQASM 3.0 with ctrl(k) modifiers for multi-control gates.

    Requires a lowered circuit: negative controls have no direct QASM
    spelling here and must be rewritten as X sandwiches first.  Each
    distinct control mask renders its ``ctrl(k) @ ...`` prefix once.
    """
    lines = ["OPENQASM 3.0;", f"qubit[{circuit.width}] q;"]
    prefixes: dict[tuple[str, int], str] = {}
    for kind, target, pos, neg in circuit.gates:
        if neg:
            raise QOracleError("lower the circuit before QASM emission")
        if kind in _SIMPLE:
            lines.append(f"{_SIMPLE[kind]} q[{target}];")
            continue
        prefix = prefixes.get((kind, pos))
        if prefix is None:
            operands = "".join(f"q[{q}], " for q in _qubits(pos))
            prefix = f"ctrl({pos.bit_count()}) @ {_CONTROLLED[kind]} {operands}"
            prefixes[kind, pos] = prefix
        lines.append(f"{prefix}q[{target}];")
    lines.append("// qubit roles (input -> output):")
    for q in range(circuit.width):
        lines.append(f"// q[{q}]: {circuit.roles_in[q]} -> {circuit.roles_out[q]}")
    return "\n".join(lines) + "\n"


def to_json(circuit: Circuit) -> str:
    """Serialize to the JSON netlist, gates in execution order.

    Gates with the same kind and control masks differ only in their target,
    so each such group is rendered once and the gates are joined as text,
    in the bytes ``json.dumps`` writes for the whole document.
    """
    parts: dict[tuple[str, int, int], tuple[str, str]] = {}
    gates = []
    for kind, target, pos, neg in circuit.gates:
        part = parts.get((kind, pos, neg))
        if part is None:
            controls = ", ".join(f'[{q}, "{POSITIVE if pos >> q & 1 else NEGATIVE}"]'
                                 for q in _qubits(pos | neg))
            part = parts[kind, pos, neg] = (f'{{"kind": {json.dumps(kind)}, "target": ',
                                            f', "controls": [{controls}]}}')
        gates.append(f"{part[0]}{target}{part[1]}")
    roles = [[circuit.roles_in[q], circuit.roles_out[q]] for q in range(circuit.width)]
    head = json.dumps({"width": circuit.width, "roles": roles})
    tail = json.dumps({"provenance": {"source": circuit.source, "method": circuit.method}})
    return f'{head[:-1]}, "gates": [{", ".join(gates)}], {tail[1:]}\n'


def from_json(text: str) -> Circuit:
    """Decode a JSON netlist; inverse of to_json.

    The width and every qubit index must be JSON integers, every gate kind
    one of the circuit kinds, and ``roles`` one ``[input, output]`` pair per
    qubit, checked before anything of the width's size is built; anything
    else raises ``QOracleError``.
    """
    try:
        doc = json.loads(text)
        width = _integer(doc["width"], "width")
        entries, roles = doc["gates"], doc["roles"]
        if len(roles) != width:
            raise ValueError(f"{len(roles)} role pairs for width {width}")
        gates = [_gate(g, width) for g in entries]
        provenance = doc.get("provenance", {})
        return Circuit(
            width=width,
            gates=gates,
            roles_in=tuple(str(r[0]) for r in roles),
            roles_out=tuple(str(r[1]) for r in roles),
            source=str(provenance.get("source", "")),
            method=str(provenance.get("method", "")),
        )
    # json.JSONDecodeError is a ValueError; KeyError and IndexError are LookupErrors.
    except (AttributeError, LookupError, RecursionError, TypeError, ValueError) as exc:
        raise QOracleError(f"bad circuit netlist: {exc}") from exc


def _integer(value, name: str) -> int:
    """``value`` if it is a JSON integer; floats and booleans are refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _gate(entry, width: int) -> Gate:
    """One netlist gate entry as a ``Gate``; ``Circuit`` checks it against the width."""
    kind = entry["kind"]
    if kind not in _SIMPLE and kind not in _CONTROLLED:
        raise ValueError(f"unknown gate kind {kind!r}")
    return Gate(kind, _integer(entry["target"], "target qubit"),
                *_masks(entry.get("controls", []), width))


def _masks(controls, width: int) -> tuple[int, int]:
    """Positive and negative control masks of a gate's [qubit, polarity] pairs."""
    masks = {POSITIVE: 0, NEGATIVE: 0}
    for q, pol in controls:
        q = _integer(q, "control qubit")
        if not 0 <= q < width:
            raise ValueError(f"control qubit {q} outside width {width}")
        if (masks[POSITIVE] | masks[NEGATIVE]) >> q & 1:
            raise ValueError(f"control qubit {q} listed twice")
        if pol not in masks:
            raise ValueError(f"bad polarity {pol!r}")
        masks[pol] |= 1 << q
    return masks[POSITIVE], masks[NEGATIVE]
