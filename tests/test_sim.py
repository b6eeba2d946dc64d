"""Simulators: classical cascades, oracle verification, statevectors."""
from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import circuit as circ
from qoracle import cli, esop, pla, sim
from qoracle.errors import QOracleError, TooWide

from conftest import (BENCH_DIR, apply_classical, classical_circuits, control_masks, from_cubes,
                      gate_controls, induced_permutation, spec_table, table_from_spec)


def ten_of_diamonds_oracle():
    cubes = from_cubes(6, 1, [("101010", "1")])
    return esop.esop_to_circuit(cubes)


def test_apply_classical_basics():
    c = circ.Circuit(3, [circ.x(0)])
    assert apply_classical(c, [0b000]) == [0b100]
    ccx = circ.Circuit(3, [circ.mcx(2, 1 << 0 | 1 << 1)])
    assert apply_classical(ccx, [0b110]) == [0b111]
    assert apply_classical(ccx, [0b100]) == [0b100]
    assert apply_classical(ccx, [0b110, 0b100, 0b111]) == [0b111, 0b100, 0b110]
    assert apply_classical(ccx, []) == []


def test_apply_classical_card_oracle():
    oracle = ten_of_diamonds_oracle()
    assert apply_classical(oracle, [0b1010100]) == [0b1010101]
    assert apply_classical(oracle, [0b0000000]) == [0b0000000]


def test_apply_classical_rejects_nonclassical():
    c = circ.Circuit(1, [circ.h(0)])
    with pytest.raises(QOracleError, match="h gate has no classical action"):
        apply_classical(c, [0])


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


def test_verify_oracle_passes_and_catches_corruption():
    table = pla.parse_pla(".i 2\n.o 1\n11 1\n01 1\n.e")
    cubes = esop.sop_to_esop(table)
    oracle = esop.esop_to_circuit(cubes)
    lowered = circ.lower_polarity(oracle)
    spec = pla.expand(table)
    report = sim.verify_oracle(lowered, spec)
    assert report.passed and report.checked == 4

    broken = dataclasses.replace(lowered, gates=lowered.gates[:-1])
    bad = sim.verify_oracle(broken, spec)
    assert not bad.passed and len(bad.mismatches) >= 1


def test_verification_report_cannot_change_after_it_is_built():
    table = pla.parse_pla((BENCH_DIR / "squar5.pla").read_text())
    report = cli.run_synthesis(table, "tbs").verification
    assert report.passed and report.mismatches == ()
    with pytest.raises(AttributeError):
        report.mismatches.append(("00000", "0", "1"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.mismatches = [("00000", "0", "1")]
    assert report.passed and report.summary() == "32/32 minterms checked: PASS"
    # A failing report keeps no reference to a list its caller can still change.
    found = [("0", "1", "0")]
    failed = sim.VerificationReport(total_minterms=2, checked=2, mismatches=found)
    found.clear()
    assert failed.mismatches == (("0", "1", "0"),) and not failed.passed


def test_verify_oracle_empty_spec():
    oracle = ten_of_diamonds_oracle()
    report = sim.verify_oracle(oracle, spec_table(6, 1, {}))
    assert report.passed and report.checked == 0


def test_verify_oracle_skips_dontcare_bits():
    spec = spec_table(1, 1, {0: (0, 1), 1: (0, 1)})
    c = circ.Circuit(2, [circ.mcx(1, 1 << 0)],
                     roles_in=("input", "ancilla"),
                     roles_out=("input", "output"))
    assert sim.verify_oracle(c, spec).passed


def test_verify_oracle_role_mismatch():
    oracle = ten_of_diamonds_oracle()
    with pytest.raises(QOracleError, match="6 input qubits for an n=3 table"):
        sim.verify_oracle(oracle, spec_table(3, 1, {}))


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
    table = table_from_spec(spec_table(n, m, entries))
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
    assert apply_classical(c, patterns) == [reference_apply(c, p) for p in patterns]

    # Random roles: n input qubits (the rest ancillas at zero), m outputs.
    # ``claimed`` gives the input qubits that are not outputs the output role
    # "input", a promise to hand their bit back; ``oracle`` promises nothing.
    n = data.draw(st.integers(1, min(w, 6)))
    m = data.draw(st.integers(1, min(w, 4)))
    ins = sorted(data.draw(st.lists(st.integers(0, w - 1), min_size=n, max_size=n, unique=True)))
    outs = sorted(data.draw(st.lists(st.integers(0, w - 1), min_size=m, max_size=m, unique=True)))
    roles_in = tuple("input" if q in ins else "ancilla" for q in range(w))
    oracle = circ.Circuit(w, c.gates, roles_in,
                          tuple("output" if q in outs else "garbage" for q in range(w)))
    claimed = circ.Circuit(w, c.gates, roles_in, tuple(
        "output" if q in outs else "input" if q in ins else "garbage" for q in range(w)))
    kept = [j for j, q in enumerate(ins) if q not in outs]

    def qubits(state, qs):
        return "".join(str(state >> (w - 1 - q) & 1) for q in qs)

    entries, actual, ends = {}, {}, {}
    for x in sorted(data.draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=16))):
        start = sum(1 << (w - 1 - q) for j, q in enumerate(ins) if x >> (n - 1 - j) & 1)
        ends[x] = end = reference_apply(c, start)
        actual[x] = int(qubits(end, outs), 2)
        dc = data.draw(st.integers(0, (1 << m) - 1))
        entries[x] = (actual[x] & ~dc, dc)
    spec = spec_table(n, m, entries)
    report = sim.verify_oracle(oracle, spec)
    assert report.passed and report.checked == report.total_minterms == len(entries)

    # Verification passes exactly when the claimed qubits end holding their minterm.
    claims = []
    for x, end in ends.items():
        x_bits = format(x, f"0{n}b")
        held, got = "".join(x_bits[j] for j in kept), qubits(end, [ins[j] for j in kept])
        if got != held:
            claims.append((x_bits, f"{spec.output_bits(x)}|{held}", f"{qubits(end, outs)}|{got}"))
    assert sim.verify_oracle(claimed, spec).mismatches == tuple(claims)

    # Demand the opposite of one output bit of one minterm: only it fails.
    x = data.draw(st.sampled_from(sorted(entries)))
    bit = 1 << data.draw(st.integers(0, m - 1))
    dc = entries[x][1] & ~bit
    wrong = spec_table(n, m, {**entries, x: ((actual[x] ^ bit) & ~dc, dc)})
    bad = sim.verify_oracle(oracle, wrong)
    assert bad.mismatches == (
        (format(x, f"0{n}b"), wrong.output_bits(x), format(actual[x], f"0{m}b")),
    )


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
        assert apply_classical(c, patterns) == [reference_apply(c, p) for p in patterns], w


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
    state = sim.apply_statevector(dataclasses.replace(c, gates=gates), sim.zero_state(c.width))
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


@st.composite
def repeated_mask_runs(draw):
    """Runs of gates with one (pos, neg) pair and distinct targets outside it;
    each run after the first puts the previous gate's target in its masks."""
    width = draw(st.integers(2, 9))
    gates, previous = [], None
    for _ in range(draw(st.integers(1, 6))):
        controls = sorted(draw(st.sets(st.integers(0, width - 1), max_size=width - 1)))
        if previous is not None and previous not in controls:
            controls = [previous] + controls[:width - 2]
        neg = sum(1 << q for q in controls if draw(st.booleans()))
        pos = sum(1 << q for q in controls) & ~neg
        outside = [q for q in range(width) if q not in controls]
        targets = draw(st.lists(st.sampled_from(outside), min_size=1, max_size=len(outside),
                                unique=True))
        gates += [circ.mcx(t, pos, neg) for t in targets]
        previous = targets[-1]
    return circ.Circuit(width, gates)


@settings(max_examples=150, deadline=None)
@given(repeated_mask_runs(), st.randoms(use_true_random=False))
def test_run_planes_fire_reuse_matches_per_gate_reference(c, rng):
    w = c.width
    full = (1 << 64) - 1
    planes = [rng.getrandbits(64) for _ in range(w)]
    expected = list(planes)
    for gate in c.gates:
        fire = full
        for q in range(w):
            if gate.pos >> q & 1:
                fire &= expected[q]
            if gate.neg >> q & 1:
                fire &= ~expected[q]
        expected[gate.target] ^= fire
    sim._run_planes(c, planes, full)
    assert planes == expected

    # Verification reads the same planes: it passes on the per-gate table and
    # reports exactly one flipped output bit.
    table = {x: reference_apply(c, x) for x in range(1 << w)}
    report = sim.verify_oracle(c, spec_table(w, w, {x: (y, 0) for x, y in table.items()}))
    assert report.passed and report.checked == 1 << w
    x = rng.randrange(1 << w)
    wrong = spec_table(w, w, {**{k: (y, 0) for k, y in table.items()}, x: (table[x] ^ 1, 0)})
    assert sim.verify_oracle(c, wrong).mismatches == (
        (format(x, f"0{w}b"), format(table[x] ^ 1, f"0{w}b"), format(table[x], f"0{w}b")),)
