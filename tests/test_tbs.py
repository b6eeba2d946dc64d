"""Transformation-based synthesis: soundness, ordering and limits."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import circuit as circ
from qoracle import embed, tbs
from qoracle.errors import GateLimitExceeded, QOracleError, SynthesisTimeout

from conftest import induced_permutation


def make_spec(width, perm):
    return embed.ReversibleSpec(width, np.array(perm, dtype=np.int64))


def synth(perm, direction=tbs.UNIDIRECTIONAL, **kw):
    width = (len(perm) - 1).bit_length()
    return tbs.tbs_synthesize(make_spec(width, perm), direction=direction, **kw)


def reference_tbs(perm, width, bidirectional):
    """TBS on Python lists, each gate walking its pairs one submask at a time.

    Asserts after every gate that the rows before the current one are still
    fixed, and after each row's gates that the row itself is fixed.
    """
    size = 1 << width
    perm = list(perm)
    ident = list(range(size))
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
        take_input = bidirectional and cost(in_plan) < cost(out_plan)
        for cmask, tbit in in_plan if take_input else out_plan:
            if take_input:
                swap(perm, inv, cmask, tbit)
                in_gates.append((cmask, tbit))
            else:
                swap(inv, perm, cmask, tbit)
                out_gates.append((cmask, tbit))
            assert perm[:row] == ident[:row], f"a row before {row} was disturbed"
        assert perm[row] == row, f"row {row} not fixed after its gates"
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
    assert induced_permutation(c) == [0, 1, 3, 2]


def test_single_toffoli():
    c = synth([0, 1, 2, 3, 4, 5, 7, 6])
    assert len(c.gates) == 1
    gate = c.gates[0]
    assert gate == circ.mcx(2, 1 << 0 | 1 << 1)


def test_row_zero_emits_plain_x():
    c = synth([3, 2, 1, 0])
    kinds = {g.kind for g in c.gates}
    assert induced_permutation(c) == [3, 2, 1, 0]
    assert kinds == {"x"}


def test_all_two_qubit_permutations_both_directions():
    for perm in itertools.permutations(range(4)):
        for bidirectional in (False, True):
            direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
            c = synth(list(perm), direction)
            assert tuple(induced_permutation(c)) == perm
            assert c.gates == reference_tbs(perm, 2, bidirectional)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda w: st.permutations(list(range(1 << w)))),
    st.booleans(),
)
def test_random_permutations_up_to_six_qubits(perm, bidirectional):
    direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
    c = synth(list(perm), direction)
    assert all(g.neg == 0 for g in c.gates)
    assert induced_permutation(c) == list(perm)
    width = (len(perm) - 1).bit_length()
    assert c.gates == reference_tbs(perm, width, bidirectional)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda w: st.permutations(list(range(1 << w)))),
    st.booleans(),
)
def test_matches_list_reference(perm, bidirectional):
    direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
    width = (len(perm) - 1).bit_length()
    assert synth(list(perm), direction).gates == reference_tbs(perm, width, bidirectional)


@pytest.mark.parametrize("width,seed", [(10, 10), (11, 11)])
@pytest.mark.parametrize("bidirectional", [False, True])
def test_wide_permutations_match_list_reference(width, seed, bidirectional):
    # Wide enough that the planes drop fixed rows several times.
    perm = np.random.default_rng(seed).permutation(1 << width).tolist()
    direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
    c = synth(perm, direction)
    assert c.gates == reference_tbs(perm, width, bidirectional)
    assert induced_permutation(c) == perm


@pytest.mark.parametrize("bidirectional", [False, True])
def test_mostly_fixed_permutation_matches_list_reference(bidirectional):
    # Runs of fixed rows between shuffled blocks, on both sides of the
    # points where the planes drop fixed rows.
    rng = np.random.default_rng(12)
    perm = list(range(1 << 10))
    for start, stop in ((3, 9), (250, 262), (300, 340), (511, 520), (900, 1024)):
        perm[start:stop] = rng.permutation(perm[start:stop]).tolist()
    direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
    c = synth(perm, direction)
    assert c.gates == reference_tbs(perm, 10, bidirectional)
    assert induced_permutation(c) == perm


@pytest.mark.parametrize("bidirectional", [False, True])
def test_row_zero_uncontrolled_x_before_dropping_rows(bidirectional):
    # Row 0 maps to all ones, so every fix for it is an uncontrolled X, and
    # 512 rows run past the first time the planes drop fixed rows.
    perm = np.random.default_rng(9).permutation(512).tolist()
    top = perm.index(511)
    perm[0], perm[top] = perm[top], perm[0]
    direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
    c = synth(perm, direction)
    assert any(g.kind == circ.KIND_X for g in c.gates)
    assert c.gates == reference_tbs(perm, 9, bidirectional)
    assert induced_permutation(c) == perm


def test_sixteen_qubit_last_pair_swap_is_one_gate():
    perm = list(range(1 << 16))
    perm[-2], perm[-1] = perm[-1], perm[-2]
    c = synth(perm)
    assert c.gates == [circ.mcx(15, (1 << 15) - 1)]
    assert induced_permutation(c) == perm


def test_bidirectional_prefers_cheaper_input_side():
    # Row 1 maps to 6 (three output-side gates) but its preimage 3 is one
    # bit away, so the bidirectional pass must fix it with a single gate on
    # the input end of the cascade.
    perm = [0, 6, 2, 1, 4, 5, 3, 7]
    bi = synth(perm, tbs.BIDIRECTIONAL)
    assert induced_permutation(bi) == perm
    assert bi.gates == reference_tbs(perm, 3, True)
    first = bi.gates[0]
    assert first == circ.mcx(1, 1 << 2)

    uni = synth(perm)
    assert induced_permutation(uni) == perm
    assert len(bi.gates) < len(uni.gates)


def test_not_bijective_rejected():
    with pytest.raises(QOracleError, match="TBS needs a total bijection"):
        synth([0, 0, 1, 2])
    partial = embed.ReversibleSpec(2, np.array([0, 1, 2, embed.UNSPECIFIED]))
    with pytest.raises(QOracleError, match="TBS needs a total bijection"):
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
    with pytest.raises(SynthesisTimeout):
        synth(perm, tbs.BIDIRECTIONAL, deadline=0.0)


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
    assert induced_permutation(c) == total.perm.tolist()
    assert c.roles_in == total.roles_in and c.roles_out == total.roles_out
