"""Serialization: QASM text and the JSON netlist round trip."""
from __future__ import annotations

import pytest
from hypothesis import given, settings

from qoracle import circuit as circ
from qoracle import emit, esop, pla
from qoracle.errors import NegativeControlPresent, ParseError

from conftest import classical_circuits


def test_qasm_single_x():
    c = circ.Circuit(1, [circ.x(0)])
    text = emit.to_qasm(c)
    assert text.startswith("OPENQASM 3.0;\nqubit[1] q;\nx q[0];\n")


def test_qasm_ccx_line():
    c = circ.Circuit(3, [circ.mcx(2, 1 << 0 | 1 << 1)])
    assert "ctrl(2) @ x q[0], q[1], q[2];" in emit.to_qasm(c)


def test_qasm_lowered_card_oracle_structure():
    cubes = esop.EsopCubeList(6, 1, [pla.Cube("101010", "1")])
    lowered = circ.lower_polarity(esop.esop_to_circuit(cubes))
    lines = [l for l in emit.to_qasm(lowered).splitlines() if not l.startswith("//")]
    body = lines[2:]
    assert body[:3] == ["x q[1];", "x q[3];", "x q[5];"]
    assert body[3] == "ctrl(6) @ x q[0], q[1], q[2], q[3], q[4], q[5], q[6];"
    assert body[4:] == ["x q[1];", "x q[3];", "x q[5];"]


def test_qasm_rejects_negative_controls():
    c = circ.Circuit(2, [circ.mcx(1, 0, 1 << 0)])
    with pytest.raises(NegativeControlPresent):
        emit.to_qasm(c)


def test_qasm_role_comment():
    c = esop.esop_to_circuit(esop.EsopCubeList(1, 1, [pla.Cube("1", "1")]))
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
    cubes = esop.EsopCubeList(2, 1, [pla.Cube("10", "1")])
    c = esop.esop_to_circuit(cubes, method="esop")
    c.source = "demo"
    again = emit.from_json(emit.to_json(c))
    assert again == c
    assert again.source == "demo" and again.method == "esop"


def test_json_parse_error():
    with pytest.raises(ParseError):
        emit.from_json("{not json")
    with pytest.raises(ParseError):
        emit.from_json('{"width": 2}')


@settings(max_examples=100, deadline=None)
@given(classical_circuits())
def test_json_roundtrip_random_circuits(c):
    assert emit.from_json(emit.to_json(c)) == c


def test_qasm_order_matches_ir():
    gates = [circ.x(0), circ.mcx(2, 1 << 0), circ.x(1)]
    c = circ.Circuit(3, gates)
    lines = [l for l in emit.to_qasm(c).splitlines()[2:] if not l.startswith("//")]
    assert lines == ["x q[0];", "ctrl(1) @ x q[0], q[2];", "x q[1];"]
