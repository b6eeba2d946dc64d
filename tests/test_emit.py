"""Serialization: QASM text and the JSON netlist round trip."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import circuit as circ
from qoracle import emit, esop
from qoracle.errors import QOracleError

from conftest import classical_circuits, from_cubes


def test_qasm_single_x():
    c = circ.Circuit(1, [circ.x(0)])
    text = emit.to_qasm(c)
    assert text.startswith("OPENQASM 3.0;\nqubit[1] q;\nx q[0];\n")


def test_qasm_ccx_line():
    c = circ.Circuit(3, [circ.mcx(2, 1 << 0 | 1 << 1)])
    assert "ctrl(2) @ x q[0], q[1], q[2];" in emit.to_qasm(c)


def test_qasm_lowered_card_oracle_structure():
    cubes = from_cubes(6, 1, [("101010", "1")])
    lowered = circ.lower_polarity(esop.esop_to_circuit(cubes))
    lines = [l for l in emit.to_qasm(lowered).splitlines() if not l.startswith("//")]
    body = lines[2:]
    assert body[:3] == ["x q[1];", "x q[3];", "x q[5];"]
    assert body[3] == "ctrl(6) @ x q[0], q[1], q[2], q[3], q[4], q[5], q[6];"
    assert body[4:] == ["x q[1];", "x q[3];", "x q[5];"]


def test_qasm_rejects_negative_controls():
    c = circ.Circuit(2, [circ.mcx(1, 0, 1 << 0)])
    with pytest.raises(QOracleError, match="lower the circuit before QASM emission"):
        emit.to_qasm(c)


def test_qasm_role_comment():
    c = esop.esop_to_circuit(from_cubes(1, 1, [("1", "1")]))
    text = emit.to_qasm(c)
    assert "// q[0]: input -> input" in text
    assert "// q[1]: ancilla -> output" in text


def test_qasm_emits_h_and_mcz():
    c = circ.Circuit(2, [circ.h(0), circ.mcz(1, 1 << 0), circ.z(1)])
    text = emit.to_qasm(c)
    assert "h q[0];" in text and "ctrl(1) @ z q[0], q[1];" in text and "z q[1];" in text


def test_json_roundtrip_empty():
    c = circ.Circuit(3)
    assert emit.from_json(emit.to_json(c)) == c


def test_json_roundtrip_with_metadata():
    cubes = from_cubes(2, 1, [("10", "1")])
    c = esop.esop_to_circuit(cubes, method="esop", source="demo")
    again = emit.from_json(emit.to_json(c))
    assert again == c
    assert again.source == "demo" and again.method == "esop"


def test_json_parse_error():
    with pytest.raises(QOracleError, match="bad circuit netlist: Expecting property name"):
        emit.from_json("{not json")
    with pytest.raises(QOracleError, match="bad circuit netlist: 'gates'"):
        emit.from_json('{"width": 2}')


def test_qasm_order_matches_ir():
    gates = [circ.x(0), circ.mcx(2, 1 << 0), circ.x(1)]
    c = circ.Circuit(3, gates)
    lines = [l for l in emit.to_qasm(c).splitlines()[2:] if not l.startswith("//")]
    assert lines == ["x q[0];", "ctrl(1) @ x q[0], q[2];", "x q[1];"]


@st.composite
def circuits_of_every_kind(draw, max_width: int = 70, max_gates: int = 12):
    """Circuits of x, h and z gates, the x and z ones with or without mixed-polarity controls."""
    width = draw(st.integers(1, max_width))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        target = draw(st.integers(0, width - 1))
        kind = draw(st.sampled_from([circ.KIND_X, circ.KIND_H, circ.KIND_Z]))
        others = [q for q in range(width) if q != target]
        if kind == circ.KIND_H or not others:
            gates.append(circ.Gate(kind, target))
            continue
        controls = draw(st.lists(st.sampled_from(others), max_size=min(5, len(others)),
                                 unique=True))
        pos = neg = 0
        for q in controls:
            if draw(st.booleans()):
                pos |= 1 << q
            else:
                neg |= 1 << q
        gates.append(circ.Gate(kind, target, pos, neg))
    return circ.Circuit(width, gates, source=draw(st.text(max_size=8)),
                        method=draw(st.text(max_size=8)))


def qasm_reference(c):
    """QASM of a lowered circuit, one gate at a time with nothing cached."""
    names = {circ.KIND_X: "x", circ.KIND_H: "h", circ.KIND_Z: "z"}
    lines = ["OPENQASM 3.0;", f"qubit[{c.width}] q;"]
    for g in c.gates:
        qubits = [q for q in range(c.width) if g.pos >> q & 1] + [g.target]
        modifier = f"ctrl({len(qubits) - 1}) @ " if len(qubits) > 1 else ""
        lines.append(f"{modifier}{names[g.kind]} " + ", ".join(f"q[{q}]" for q in qubits) + ";")
    lines.append("// qubit roles (input -> output):")
    lines += [f"// q[{q}]: {c.roles_in[q]} -> {c.roles_out[q]}" for q in range(c.width)]
    return "\n".join(lines) + "\n"


def json_reference(c):
    """The documented netlist, written by json.dumps in one call.

    A gate with controls is spelled ``mcx``/``mcz``, one without ``x``/``h``/``z``.
    """
    names = {circ.KIND_X: "x", circ.KIND_H: "h", circ.KIND_Z: "z"}
    gates = [{"kind": ("mc" if g.pos | g.neg else "") + names[g.kind], "target": g.target,
              "controls": [[q, "+" if g.pos >> q & 1 else "-"]
                           for q in range(c.width) if (g.pos | g.neg) >> q & 1]}
             for g in c.gates]
    doc = {"width": c.width, "roles": [list(pair) for pair in zip(c.roles_in, c.roles_out)],
           "gates": gates, "provenance": {"source": c.source, "method": c.method}}
    return json.dumps(doc) + "\n"


@settings(max_examples=150, deadline=None)
@given(circuits_of_every_kind())
def test_emitters_match_per_gate_references(c):
    assert emit.to_json(c) == json_reference(c)
    lowered = circ.lower_polarity(c)
    assert emit.to_qasm(lowered) == qasm_reference(lowered)
    assert emit.to_json(lowered) == json_reference(lowered)


@settings(max_examples=100, deadline=None)
@given(st.one_of(classical_circuits(), circuits_of_every_kind()))
def test_json_roundtrip_random_circuits(c):
    assert emit.from_json(emit.to_json(c)) == c
    assert "ctrl(0)" not in emit.to_qasm(circ.lower_polarity(c))
