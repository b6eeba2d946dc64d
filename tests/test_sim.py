"""Simulators: classical cascades, oracle verification, statevectors."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import circuit as circ
from qoracle import esop, pla, sim
from qoracle.errors import QOracleError, TooWide

from conftest import (classical_circuits, control_masks, from_cubes, gate_controls,
                      induced_permutation)


def ten_of_diamonds_oracle():
    cubes = from_cubes(6, 1, [("101010", "1")])
    return esop.esop_to_circuit(cubes)


def test_apply_classical_basics():
    c = circ.Circuit(3, [circ.x(0)])
    assert sim.apply_classical(c, [0b000]) == [0b100]
    ccx = circ.Circuit(3, [circ.mcx(2, 1 << 0 | 1 << 1)])
    assert sim.apply_classical(ccx, [0b110]) == [0b111]
    assert sim.apply_classical(ccx, [0b100]) == [0b100]
    assert sim.apply_classical(ccx, [0b110, 0b100, 0b111]) == [0b111, 0b100, 0b110]
    assert sim.apply_classical(ccx, []) == []


def test_apply_classical_card_oracle():
    oracle = ten_of_diamonds_oracle()
    assert sim.apply_classical(oracle, [0b1010100]) == [0b1010101]
    assert sim.apply_classical(oracle, [0b0000000]) == [0b0000000]


def test_apply_classical_rejects_nonclassical():
    c = circ.Circuit(1, [circ.h(0)])
    with pytest.raises(QOracleError, match="h gate has no classical action"):
        sim.apply_classical(c, [0])


def test_induced_permutation_examples():
    assert induced_permutation(circ.Circuit(2)) == [0, 1, 2, 3]
    cnot = circ.Circuit(2, [circ.mcx(1, 1 << 0)])
    assert induced_permutation(cnot) == [0, 1, 3, 2]
    with pytest.raises(TooWide):
        sim.apply_statevector(circ.Circuit(21), sim.zero_state(1))


@settings(max_examples=100, deadline=None)
@given(classical_circuits())
def test_cascades_induce_bijections(c):
    table = induced_permutation(c)
    assert sorted(table) == list(range(1 << c.width))


def make_spec(n, m, mapping):
    return pla.SpecTable(n=n, m=m, entries={x: (y, 0) for x, y in mapping.items()})


def test_verify_oracle_passes_and_catches_corruption():
    table = pla.parse_pla(".i 2\n.o 1\n11 1\n01 1\n.e")
    cubes = esop.sop_to_esop(table)
    oracle = esop.esop_to_circuit(cubes)
    lowered = circ.lower_polarity(oracle)
    spec = pla.expand(table)
    report = sim.verify_oracle(lowered, spec, sim.MODE_PRESERVE)
    assert report.passed and report.checked == 4

    broken = lowered.replace_gates(lowered.gates[:-1])
    bad = sim.verify_oracle(broken, spec, sim.MODE_PRESERVE)
    assert not bad.passed and len(bad.mismatches) >= 1


def test_verify_oracle_empty_spec():
    oracle = ten_of_diamonds_oracle()
    report = sim.verify_oracle(oracle, pla.SpecTable(6, 1), sim.MODE_MINIMAL)
    assert report.passed and report.checked == 0


def test_verify_oracle_skips_dontcare_bits():
    spec = pla.SpecTable(1, 1, {0: (0, 1), 1: (0, 1)})
    c = circ.Circuit(2, [circ.mcx(1, 1 << 0)],
                     roles_in=("input", "ancilla"),
                     roles_out=("input", "output"))
    assert sim.verify_oracle(c, spec, sim.MODE_PRESERVE).passed


def test_verify_oracle_role_mismatch():
    oracle = ten_of_diamonds_oracle()
    with pytest.raises(QOracleError, match="6 input qubits for an n=3 table"):
        sim.verify_oracle(oracle, pla.SpecTable(3, 1), sim.MODE_MINIMAL)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_cross_backend_oracle_agreement(data):
    # Both backends must realize the same randomly generated table; each
    # pipeline verifies every specified minterm or raises.
    from qoracle.cli import run_synthesis

    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 4))
    entries = data.draw(
        st.dictionaries(
            st.integers(0, (1 << n) - 1),
            st.tuples(st.integers(0, (1 << m) - 1), st.just(0)),
            min_size=1,
        )
    )
    table = pla.table_from_spec(pla.SpecTable(n, m, entries))
    esop_result = run_synthesis(table, "esop", partial=True)
    tbs_result = run_synthesis(table, "tbs", partial=True)
    for result in (esop_result, tbs_result):
        assert result.verification is not None and result.verification.passed
        assert result.verification.checked == len(entries)


def reference_apply(circuit, pattern):
    """Evaluate an X/MCX cascade one gate at a time on one basis state."""
    w = circuit.width
    for gate in circuit.gates:
        if all((pattern >> (w - 1 - q) & 1) == (pol == "+") for q, pol in gate_controls(gate)):
            pattern ^= 1 << (w - 1 - gate.target)
    return pattern


@settings(max_examples=80, deadline=None)
@given(classical_circuits(max_width=80, max_gates=30), st.data())
def test_bitplane_simulator_matches_reference_at_any_width(c, data):
    w = c.width
    patterns = data.draw(st.lists(st.integers(0, (1 << w) - 1), min_size=1, max_size=8))
    assert sim.apply_classical(c, patterns) == [reference_apply(c, p) for p in patterns]

    # Random roles: n input qubits (the rest ancillas at zero), m outputs.
    n = data.draw(st.integers(1, min(w, 6)))
    m = data.draw(st.integers(1, min(w, 4)))
    ins = sorted(data.draw(st.lists(st.integers(0, w - 1), min_size=n, max_size=n, unique=True)))
    outs = sorted(data.draw(st.lists(st.integers(0, w - 1), min_size=m, max_size=m, unique=True)))
    oracle = circ.Circuit(
        w, c.gates,
        tuple("input" if q in ins else "ancilla" for q in range(w)),
        tuple("output" if q in outs else "garbage" for q in range(w)),
    )

    def qubits(state, qs):
        return int("".join(str(state >> (w - 1 - q) & 1) for q in qs), 2)

    entries, actual, preserved = {}, {}, True
    for x in data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=16)):
        start = sum(1 << (w - 1 - q) for j, q in enumerate(ins) if x >> (n - 1 - j) & 1)
        end = reference_apply(c, start)
        actual[x] = qubits(end, outs)
        dc = data.draw(st.integers(0, (1 << m) - 1))
        entries[x] = (actual[x] & ~dc, dc)
        preserved = preserved and qubits(end, ins) == x
    spec = pla.SpecTable(n, m, entries)
    report = sim.verify_oracle(oracle, spec, sim.MODE_MINIMAL)
    assert report.passed and report.checked == report.total_minterms == len(entries)
    assert sim.verify_oracle(oracle, spec, sim.MODE_PRESERVE).passed == preserved

    # Demand the opposite of one output bit of one minterm: only it fails.
    x = data.draw(st.sampled_from(sorted(entries)))
    bit = 1 << data.draw(st.integers(0, m - 1))
    dc = entries[x][1] & ~bit
    wrong = pla.SpecTable(n, m, {**entries, x: ((actual[x] ^ bit) & ~dc, dc)})
    bad = sim.verify_oracle(oracle, wrong, sim.MODE_MINIMAL)
    assert bad.mismatches == [
        (format(x, f"0{n}b"), wrong.output_bits(x), format(actual[x], f"0{m}b"))
    ]


def test_apply_classical_matches_reference_at_every_width():
    rng = random.Random(11)
    for w in range(1, 81):
        gates = []
        for _ in range(20):
            target = rng.randrange(w)
            others = [q for q in range(w) if q != target]
            chosen = rng.sample(others, min(len(others), rng.randint(0, 4)))
            gates.append(circ.mcx(target, *control_masks(
                [(q, rng.choice("+-")) for q in chosen])))
        c = circ.Circuit(w, gates)
        patterns = [rng.getrandbits(w) for _ in range(16)]
        assert sim.apply_classical(c, patterns) == [reference_apply(c, p) for p in patterns], w


def test_statevector_hadamard():
    state = sim.apply_statevector(circ.Circuit(1, [circ.h(0)]), sim.zero_state(1))
    assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2)


def test_statevector_double_x_is_identity():
    c = circ.Circuit(2, [circ.x(0), circ.x(0)])
    state = sim.apply_statevector(c, sim.zero_state(2))
    assert np.allclose(state.amplitudes, sim.zero_state(2).amplitudes)


def test_statevector_mcz_phase():
    prep = circ.Circuit(2, [circ.x(0), circ.x(1), circ.mcz(1, 1 << 0)])
    state = sim.apply_statevector(prep, sim.zero_state(2))
    assert np.isclose(state.amplitudes[0b11], -1.0)


@settings(max_examples=60, deadline=None)
@given(classical_circuits(max_width=5))
def test_statevector_matches_classical_on_basis_states(c):
    perm = induced_permutation(c)
    for x in range(min(1 << c.width, 8)):
        amps = np.zeros(1 << c.width, dtype=complex)
        amps[x] = 1.0
        out = sim.apply_statevector(c, sim.StateVector(c.width, amps))
        assert np.isclose(abs(out.amplitudes[perm[x]]), 1.0)


@settings(max_examples=40, deadline=None)
@given(classical_circuits(max_width=5))
def test_statevector_norm_preserved(c):
    gates = [circ.h(q) for q in range(c.width)] + list(c.gates)
    state = sim.apply_statevector(c.replace_gates(gates), sim.zero_state(c.width))
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10


def test_marginal_probabilities_uniform_and_basis():
    uniform = sim.apply_statevector(
        circ.Circuit(2, [circ.h(0), circ.h(1)]), sim.zero_state(2)
    )
    dist = sim.marginal_probabilities(uniform, 2)
    assert len(dist) == 4
    assert all(abs(p - 0.25) < 1e-12 for p in dist)
    assert np.allclose(sim.marginal_probabilities(uniform, 1), [0.5, 0.5])

    basis = sim.zero_state(3)
    assert sim.marginal_probabilities(basis, 3).tolist() == [1.0] + [0.0] * 7
    assert sim.marginal_probabilities(basis, 1).tolist() == [1.0, 0.0]


def test_sample_is_seed_deterministic():
    state = sim.apply_statevector(
        circ.Circuit(3, [circ.h(q) for q in range(3)]), sim.zero_state(3)
    )
    a = sim.sample(state, 1024, seed=7)
    b = sim.sample(state, 1024, seed=7)
    assert a == b
    assert sum(a.values()) == 1024
