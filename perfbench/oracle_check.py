"""Independent output check for the benchmark.

Reads raw ``.pla`` text and emitted JSON netlists with its own code; it
imports nothing from ``qoracle``.  Truth tables and qubit states are
bit-sliced: a plane is a Python int whose bit ``x`` holds the value for
minterm ``x``, so one gate costs a few big-int operations over all minterms
at once, whatever the circuit width.
"""
from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass
class Spec:
    """Expected outputs over all 2^n minterms, one plane per output column."""

    n: int
    m: int
    on: list[int]
    dc: list[int]


@dataclass
class Netlist:
    width: int
    gates: int
    complexity: int
    mismatches: int


def _input_planes(n: int) -> list[int]:
    """Plane of input column j (column 0 is the MSB of the minterm index)."""
    planes = []
    for j in range(n):
        bit = n - 1 - j
        plane = 0
        for x in range(1 << n):
            if x >> bit & 1:
                plane |= 1 << x
        planes.append(plane)
    return planes


def spec_from_pla(text: str) -> Spec:
    """Outputs of a type f/fd table: OR of the cubes' '1' marks per minterm.

    A '-' mark is a don't-care unless another cube asserts the bit, and
    minterms that no cube covers read as all zeros.
    """
    n = m = None
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == ".e":
            break
        if fields[0] == ".i":
            n = int(fields[1])
        elif fields[0] == ".o":
            m = int(fields[1])
        elif not line.startswith("."):
            rows.append((fields[0], fields[1]))
    if n is None or m is None:
        raise ValueError("table lacks .i/.o")
    full = (1 << (1 << n)) - 1
    planes = _input_planes(n)
    on = [0] * m
    dc = [0] * m
    for ins, outs in rows:
        if len(ins) != n or len(outs) != m:
            raise ValueError(f"cube {ins} {outs} does not match .i {n} .o {m}")
        cover = full
        for j, ch in enumerate(ins):
            if ch == "1":
                cover &= planes[j]
            elif ch == "0":
                cover &= ~planes[j]
        for k, ch in enumerate(outs):
            if ch == "1":
                on[k] |= cover
            elif ch == "-":
                dc[k] |= cover
    return Spec(n, m, on, [d & ~o & full for d, o in zip(dc, on)])


def check_netlist(text: str, spec: Spec) -> Netlist:
    """Simulate a JSON netlist on every minterm of ``spec``.

    The minterm goes on the first n input-role qubits and every other qubit
    starts at 0; the first m output-role qubits must match each specified
    output bit.  Returns the number of (minterm, output) bits that differ.
    """
    doc = json.loads(text)
    width = doc["width"]
    roles = doc["roles"]
    ins = [q for q in range(width) if roles[q][0] == "input"][: spec.n]
    outs = [q for q in range(width) if roles[q][1] == "output"][: spec.m]
    if len(ins) != spec.n or len(outs) != spec.m:
        raise ValueError(f"netlist has {len(ins)}/{len(outs)} input/output qubits "
                         f"for an n={spec.n} m={spec.m} table")
    full = (1 << (1 << spec.n)) - 1
    state = [0] * width
    for q, plane in zip(ins, _input_planes(spec.n)):
        state[q] = plane
    complexity = 0
    for gate in doc["gates"]:
        if gate["kind"] not in ("x", "mcx"):
            raise ValueError(f"non-classical gate {gate['kind']!r}")
        fire = full
        for q, pol in gate["controls"]:
            fire &= state[q] if pol == "+" else ~state[q]
        state[gate["target"]] ^= fire & full
        complexity += len(gate["controls"]) + 1
    mismatches = 0
    for q, on, dc in zip(outs, spec.on, spec.dc):
        mismatches += ((state[q] ^ on) & ~dc & full).bit_count()
    return Netlist(width, len(doc["gates"]), complexity, mismatches)


def corrupt_one_gate(text: str, m: int) -> str:
    """Corrupt the last gate on one of the first m output qubits.

    A controlled gate loses its controls and a plain X is deleted, so the
    output flips on every minterm and any checker must reject the netlist
    unless that output is don't-care everywhere.
    """
    doc = json.loads(text)
    gates = doc["gates"]
    outs = [q for q, (_, r) in enumerate(doc["roles"]) if r == "output"][:m]
    for i in range(len(gates) - 1, -1, -1):
        if gates[i]["target"] in outs:
            if gates[i]["controls"]:
                gates[i]["kind"], gates[i]["controls"] = "x", []
            else:
                del gates[i]
            return json.dumps(doc)
    gates.append({"kind": "x", "target": outs[0], "controls": []})
    return json.dumps(doc)
