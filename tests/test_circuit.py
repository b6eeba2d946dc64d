"""Circuit IR: polarity lowering and the complexity metric."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import circuit as circ
from qoracle import sim
from qoracle.errors import QOracleError

from conftest import classical_circuits, control_masks, gate_controls, induced_permutation


def test_gate_validation():
    malformed = [
        circ.Gate("mcx", 1, 1 << 1),          # control on the target
        circ.Gate("mcx", 0, 1 << 1, 1 << 1),  # qubit 1 both positive and negative
        circ.Gate("x", 0, 1 << 1),            # controls on an X
        circ.Gate("mcx", 0, 1 << 3),          # control outside the width
        circ.Gate("mcx", 3, 1 << 0),          # target outside the width
        circ.Gate("mcx", -1, 1 << 0),         # negative target
        circ.Gate("mcx", 0, 0, -2),           # negative control mask
    ]
    for gate in malformed:
        with pytest.raises(ValueError):
            circ.Circuit(3, [gate])


def test_lower_basic_sandwich():
    c = circ.Circuit(3, [circ.mcx(2, 1 << 0, 1 << 1)])
    lowered = circ.lower_polarity(c)
    kinds = [(g.kind, g.target) for g in lowered.gates]
    assert kinds == [("x", 1), ("mcx", 2), ("x", 1)]
    assert lowered.gates[1] == circ.mcx(2, 1 << 0 | 1 << 1)


def test_lower_all_positive_unchanged():
    c = circ.Circuit(3, [circ.x(0), circ.mcx(2, 1 << 0 | 1 << 1)])
    assert circ.lower_polarity(c).gates == c.gates


def test_lower_elides_shared_sandwich():
    # Consecutive gates sharing a negative control reuse one X pair; the
    # sandwich X count drops from four to two and the function is unchanged.
    c = circ.Circuit(
        3, [circ.mcx(2, 1 << 0, 1 << 1), circ.mcx(0, 1 << 2, 1 << 1)]
    )
    lowered = circ.lower_polarity(c)
    assert sum(1 for g in lowered.gates if g.kind == "x") == 2
    assert induced_permutation(lowered) == induced_permutation(c)


def test_lower_flushes_before_positive_use():
    c = circ.Circuit(
        2, [circ.mcx(0, 0, 1 << 1), circ.mcx(0, 1 << 1)]
    )
    lowered = circ.lower_polarity(c)
    assert induced_permutation(lowered) == induced_permutation(c)
    assert all(g.neg == 0 for g in lowered.gates)


def test_lower_cancels_explicit_x():
    c = circ.Circuit(2, [circ.mcx(0, 0, 1 << 1), circ.x(1)])
    lowered = circ.lower_polarity(c)
    assert induced_permutation(lowered) == induced_permutation(c)
    assert sum(1 for g in lowered.gates if g.kind == "x") == 1


@settings(max_examples=120, deadline=None)
@given(classical_circuits())
def test_lower_preserves_permutation(c):
    lowered = circ.lower_polarity(c)
    assert all(g.neg == 0 for g in lowered.gates)
    assert induced_permutation(lowered) == induced_permutation(c)


def reference_lower(gates):
    """Polarity lowering on (qubit, polarity) tuples, gate for gate.

    Flushes go in ascending qubit order, consecutive gates share one
    sandwich, an explicit X cancels a pending sandwich X, and an MCZ flushes
    its target after its positive controls.
    """
    flipped: set[int] = set()
    out = []

    def flush(qubits):
        for q in sorted(qubits):
            if q in flipped:
                out.append(("x", q, ()))
                flipped.remove(q)

    for gate in gates:
        kind, target, controls = gate.kind, gate.target, gate_controls(gate)
        if kind == "x":
            if target in flipped:
                flipped.remove(target)
            else:
                out.append((kind, target, controls))
            continue
        if kind in ("h", "z"):
            flush({target})
            out.append((kind, target, controls))
            continue
        flush({q for q, pol in controls if pol == "+"})
        if kind == "mcz":
            flush({target})
        for q in sorted(q for q, pol in controls if pol == "-"):
            if q not in flipped:
                out.append(("x", q, ()))
                flipped.add(q)
        out.append((kind, target, tuple((q, "+") for q, _ in controls)))
    flush(set(flipped))
    return out


@st.composite
def mixed_circuits(draw):
    """Classical circuits with X, H, Z and MCZ gates inserted at random."""
    c = draw(classical_circuits())
    gates = list(c.gates)
    for _ in range(draw(st.integers(0, 6))):
        target = draw(st.integers(0, c.width - 1))
        kind = draw(st.sampled_from(["x", "h", "z", "mcz"]))
        if kind == "mcz":
            others = [q for q in range(c.width) if q != target]
            controls = draw(st.lists(
                st.tuples(st.sampled_from(others), st.sampled_from("+-")),
                unique_by=lambda q: q[0], max_size=min(3, len(others)),
            )) if others else []
            gate = circ.mcz(target, *control_masks(controls))
        else:
            gate = getattr(circ, kind)(target)
        gates.insert(draw(st.integers(0, len(gates))), gate)
    return c.replace_gates(gates)


@settings(max_examples=200, deadline=None)
@given(mixed_circuits())
def test_lower_matches_reference_gate_for_gate(c):
    lowered = circ.lower_polarity(c)
    assert [(g.kind, g.target, gate_controls(g)) for g in lowered.gates] == \
        reference_lower(c.gates)


def test_lower_flushes_before_phase_gates():
    # Pending sandwich flips must not leak into H/Z/MCZ, which read their
    # wires; compare full statevectors before and after lowering.
    import numpy as np
    from qoracle import sim

    c = circ.Circuit(
        3,
        [
            circ.h(0),
            circ.h(1),
            circ.mcx(2, 1 << 0, 1 << 1),
            circ.mcz(1, 0, 1 << 2),
            circ.h(1),
            circ.mcx(0, 1 << 2, 1 << 1),
            circ.z(1),
            circ.x(1),
        ],
    )
    lowered = circ.lower_polarity(c)
    assert all(g.neg == 0 for g in lowered.gates)
    a = sim.apply_statevector(c, sim.zero_state(3)).amplitudes
    b = sim.apply_statevector(lowered, sim.zero_state(3)).amplitudes
    assert np.allclose(a, b)


def test_complexity_unit_costs():
    assert circ.complexity(circ.Circuit(1, [circ.x(0)])) == 1
    ccx = circ.mcx(2, 1 << 0 | 1 << 1)
    assert circ.complexity(circ.Circuit(3, [ccx])) == 3
    mcx6 = circ.mcx(6, (1 << 6) - 1)
    sandwich = [circ.x(q) for q in (1, 3, 5)]
    c = circ.Circuit(7, sandwich + [mcx6] + sandwich)
    assert circ.complexity(c) == 7 + 6


def test_complexity_requires_lowered():
    c = circ.Circuit(2, [circ.mcx(0, 0, 1 << 1)])
    with pytest.raises(QOracleError, match="complexity is defined on lowered circuits"):
        circ.complexity(c)


@settings(max_examples=60, deadline=None)
@given(classical_circuits())
def test_complexity_is_reorder_invariant(c):
    lowered = circ.lower_polarity(c)
    reordered = lowered.replace_gates(list(reversed(lowered.gates)))
    assert circ.complexity(reordered) == circ.complexity(lowered)


def test_metrics_report():
    empty = circ.Circuit(3)
    report = circ.metrics(empty, elapsed_us=5)
    assert (report.qubits, report.gate_count, report.complexity) == (3, 0, 0)
    assert report.status == "ok"

    c = circ.Circuit(3, [circ.mcx(2, 1 << 0 | 1 << 1), circ.mcx(1, 1 << 0)])
    assert circ.metrics(c, 1).complexity == 5
