"""Transformation-based synthesis: soundness, ordering and limits."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import circuit as circ
from qoracle import embed, sim, tbs
from qoracle.errors import GateLimitExceeded, NotBijective, SynthesisTimeout


def make_spec(width, perm):
    return embed.ReversibleSpec(width, np.array(perm, dtype=np.int64))


def synth(perm, direction=tbs.UNIDIRECTIONAL, **kw):
    width = (len(perm) - 1).bit_length()
    return tbs.tbs_synthesize(make_spec(width, perm), direction=direction, **kw)


def reference_tbs(perm, width, bidirectional):
    """TBS on Python lists, each gate walking its pairs one submask at a time."""
    size = 1 << width
    perm = list(perm)
    inv = [0] * size
    for x, y in enumerate(perm):
        inv[y] = x
    bits = [1 << k for k in reversed(range(width))]

    def plan(value, row):
        gates, current = [], value
        for bit in bits:
            if row & bit and not current & bit:
                gates.append((current, bit))
                current |= bit
        for bit in bits:
            if current & bit and not row & bit:
                gates.append((row, bit))
                current ^= bit
        return gates

    def swap(table, other, cmask, tbit):
        free = (size - 1) & ~(cmask | tbit)
        sub = free
        while True:
            x = cmask | sub
            y = x | tbit
            a, b = table[x], table[y]
            table[x], table[y] = b, a
            other[a], other[b] = y, x
            if not sub:
                return
            sub = (sub - 1) & free

    def cost(gates):
        return len(gates), sum(bin(c).count("1") for c, _ in gates)

    out_gates, in_gates = [], []
    for row in range(size - 1):
        if perm[row] == row:
            continue
        out_plan = plan(perm[row], row)
        in_plan = plan(inv[row], row)
        if bidirectional and cost(in_plan) < cost(out_plan):
            for cmask, tbit in in_plan:
                swap(perm, inv, cmask, tbit)
                in_gates.append((cmask, tbit))
        else:
            for cmask, tbit in out_plan:
                swap(inv, perm, cmask, tbit)
                out_gates.append((cmask, tbit))
    return [
        circ.mcx(width - tbit.bit_length(),
                 sum(1 << q for q in range(width) if cmask >> (width - 1 - q) & 1))
        for cmask, tbit in in_gates + out_gates[::-1]
    ]


def test_identity_gives_empty_circuit():
    assert synth(list(range(8))).gates == []
    assert synth(list(range(8)), tbs.BIDIRECTIONAL).gates == []


def test_single_cnot():
    c = synth([0, 1, 3, 2])
    assert len(c.gates) == 1
    gate = c.gates[0]
    assert gate == circ.mcx(1, 1 << 0)
    assert sim.induced_permutation(c) == [0, 1, 3, 2]


def test_single_toffoli():
    c = synth([0, 1, 2, 3, 4, 5, 7, 6])
    assert len(c.gates) == 1
    gate = c.gates[0]
    assert gate == circ.mcx(2, 1 << 0 | 1 << 1)


def test_row_zero_emits_plain_x():
    c = synth([3, 2, 1, 0])
    kinds = {g.kind for g in c.gates}
    assert sim.induced_permutation(c) == [3, 2, 1, 0]
    assert kinds == {"x"}


def test_all_two_qubit_permutations_both_directions():
    for perm in itertools.permutations(range(4)):
        for direction in (tbs.UNIDIRECTIONAL, tbs.BIDIRECTIONAL):
            c = synth(list(perm), direction, validate=True)
            assert tuple(sim.induced_permutation(c)) == perm


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda w: st.permutations(list(range(1 << w)))),
    st.booleans(),
)
def test_random_permutations_up_to_six_qubits(perm, bidirectional):
    direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
    c = synth(list(perm), direction, validate=True)
    assert all(g.neg == 0 for g in c.gates)
    assert sim.induced_permutation(c) == list(perm)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda w: st.permutations(list(range(1 << w)))),
    st.booleans(),
)
def test_matches_list_reference(perm, bidirectional):
    direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
    width = (len(perm) - 1).bit_length()
    assert synth(list(perm), direction).gates == reference_tbs(perm, width, bidirectional)


def test_sixteen_qubit_last_pair_swap_is_one_gate():
    perm = list(range(1 << 16))
    perm[-2], perm[-1] = perm[-1], perm[-2]
    c = synth(perm)
    assert c.gates == [circ.mcx(15, (1 << 15) - 1)]
    assert sim.induced_permutation(c) == perm


def test_bidirectional_prefers_cheaper_input_side():
    # Row 1 maps to 6 (three output-side gates) but its preimage 3 is one
    # bit away, so the bidirectional pass must fix it with a single gate on
    # the input end of the cascade.
    perm = [0, 6, 2, 1, 4, 5, 3, 7]
    bi = synth(perm, tbs.BIDIRECTIONAL, validate=True)
    assert sim.induced_permutation(bi) == perm
    first = bi.gates[0]
    assert first == circ.mcx(1, 1 << 2)

    uni = synth(perm)
    assert sim.induced_permutation(uni) == perm
    assert len(bi.gates) < len(uni.gates)


def test_not_bijective_rejected():
    with pytest.raises(NotBijective):
        synth([0, 0, 1, 2])
    partial = embed.ReversibleSpec(2, np.array([0, 1, 2, embed.UNSPECIFIED]))
    with pytest.raises(NotBijective):
        tbs.tbs_synthesize(partial)


def test_gate_limit_enforced(monkeypatch):
    rng = np.random.default_rng(3)
    perm = rng.permutation(64).tolist()
    monkeypatch.setattr(tbs, "GATE_LIMIT", 5)
    with pytest.raises(GateLimitExceeded):
        synth(perm)


def test_timeout_enforced():
    rng = np.random.default_rng(4)
    perm = rng.permutation(256).tolist()
    with pytest.raises(SynthesisTimeout):
        synth(perm, deadline=0.0)


def test_rejects_bad_arguments():
    spec = make_spec(2, [0, 1, 3, 2])
    with pytest.raises(ValueError):
        tbs.tbs_synthesize(spec, direction="sideways")


def test_width_matches_embedding(bench_tables):
    from qoracle import pla

    spec = pla.expand(bench_tables["squar5"])
    partial, report = embed.rtt_embed(spec)
    total = embed.complete_onto_hamming(partial)
    c = tbs.tbs_synthesize(total)
    assert c.width == report.n_total == 9
    assert sim.induced_permutation(c) == total.perm.tolist()
    assert c.roles_in == total.roles_in and c.roles_out == total.roles_out
