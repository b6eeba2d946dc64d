"""Transformation-based synthesis: soundness, ordering and limits."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import circuit as circ
from qoracle import cli, embed, pla, sim, tbs
from qoracle.errors import GateLimitExceeded, QOracleError, SynthesisTimeout

from conftest import BENCH_DIR, induced_permutation, slow


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
    return tuple(
        circ.mcx(width - tbit.bit_length(),
                 sum(1 << q for q in range(width) if cmask >> (width - 1 - q) & 1))
        for cmask, tbit in in_gates + out_gates[::-1]
    )


def test_identity_gives_empty_circuit():
    assert synth(list(range(8))).gates == ()
    assert synth(list(range(8)), tbs.BIDIRECTIONAL).gates == ()


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


def test_unknown_direction_is_refused():
    with pytest.raises(ValueError, match="^unknown direction 'bogus'$"):
        synth([1, 0], "bogus")


def test_row_zero_emits_plain_x():
    c = synth([3, 2, 1, 0])
    assert induced_permutation(c) == [3, 2, 1, 0]
    assert c.gates and all(g == circ.x(g.target) for g in c.gates)


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
    # Wide enough that most rows are found behind many fixed rows' positions.
    perm = np.random.default_rng(seed).permutation(1 << width).tolist()
    direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
    c = synth(perm, direction)
    assert c.gates == reference_tbs(perm, width, bidirectional)
    assert induced_permutation(c) == perm


@pytest.mark.parametrize("bidirectional", [False, True])
def test_mostly_fixed_permutation_matches_list_reference(bidirectional):
    # Runs of fixed rows between shuffled blocks, so the walk skips to the
    # lowest moved row many times and every fixed row keeps its position.
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
    # all 512 rows run with the fixed rows' positions kept in the planes.
    perm = np.random.default_rng(9).permutation(512).tolist()
    top = perm.index(511)
    perm[0], perm[top] = perm[top], perm[0]
    direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
    c = synth(perm, direction)
    assert any(g == circ.x(g.target) for g in c.gates)
    assert c.gates == reference_tbs(perm, 9, bidirectional)
    assert induced_permutation(c) == perm


@pytest.mark.parametrize("width", [8, 9, 10])
@pytest.mark.parametrize("first", [64, 200])
def test_unidirectional_shift_points_match_list_reference(width, first):
    # Rows below ``first`` are fixed, so the first skip lands on row 64, the
    # first point where the fixed rows are shifted out of the planes, or on
    # row 200, past three such points at once; the later shuffled blocks
    # straddle multiples of 256.
    rng = np.random.default_rng(width)
    size = 1 << width
    perm = list(range(size))
    blocks = [(first, first + 8)] + [(s - 4, s + 4) for s in range(256, size, 256)]
    for start, stop in blocks + [(size - 4, size)]:
        perm[start:stop] = rng.permutation(perm[start:stop]).tolist()
        if perm[start] == start:
            perm[start], perm[start + 1] = perm[start + 1], perm[start]
    c = synth(perm)
    assert c.gates == reference_tbs(perm, width, False)
    assert induced_permutation(c) == perm


@pytest.mark.parametrize("bidirectional", [False, True])
def test_only_bidirectional_runs_search_for_rows(monkeypatch, bidirectional):
    # Unidirectional runs read row r at its own position, so never call _find.
    perm = np.random.default_rng(6).permutation(256).tolist()
    expected = reference_tbs(perm, 8, bidirectional)

    def no_search(*args):
        raise AssertionError("searched the planes")

    monkeypatch.setattr(tbs, "_find", no_search)
    direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
    if bidirectional:
        with pytest.raises(AssertionError, match="searched the planes"):
            synth(perm, direction)
    else:
        assert synth(perm, direction).gates == expected


@pytest.mark.parametrize("width", [*range(6), 70])
def test_planes_match_bitwise_reference(width):
    # Bit p of plane q is bit width - 1 - q of the value at position p; widths 0 and 1
    # included, and a 70-bit column of Python ints (dtype=object) built 63 bits at a time.
    rng = np.random.default_rng(width)
    if width < 64:
        perm = rng.permutation(1 << width)
    else:
        perm = np.array([int(rng.integers(1 << 62)) << 8 | int(rng.integers(256))
                         for _ in range(40)] + [(1 << width) - 1, 0], dtype=object)
    planes = sim._planes(perm, width)
    assert len(planes) == width
    assert sim._values(planes, len(perm)).tolist() == perm.tolist()
    for q, plane in enumerate(planes):
        assert plane == sum((int(y) >> (width - 1 - q) & 1) << p for p, y in enumerate(perm))


def test_widths_zero_and_one():
    assert synth([0]).gates == ()
    assert synth([0, 1]).gates == ()
    assert synth([1, 0]).gates == (circ.x(0),)
    assert synth([1, 0], tbs.BIDIRECTIONAL).gates == (circ.x(0),)


def test_read_matches_bitwise_reference_at_both_ends():
    width, size = 12, 1 << 12
    perm = np.random.default_rng(8).permutation(size)
    planes, full = sim._planes(perm, width), (1 << size) - 1
    for at in (0, 1, size // 2 - 1, size // 2, size - 1):
        bits = [format(plane, f"0{size}b")[size - 1 - at] for plane in planes]
        assert tbs._read(planes, at, full) == sum(1 << q for q, b in enumerate(bits) if b == "1")
        assert tbs._read(planes, at, full) == circ._from_msb_first(int(perm[at]), width)


def reference_fix(planes, value, row, full, gates):
    """``_fix`` with one AND of the value's planes before the set bits and one
    of the row's planes before the cleared bits, each walked bit by bit."""
    def controls(mask):
        fire = full
        for q in range(len(planes)):
            if mask >> q & 1:
                fire &= planes[q]
        return fire

    add = row & ~value
    if add:
        fire = controls(value)
    for q in range(len(planes)):
        if add >> q & 1:
            planes[q] ^= fire
            gates.append((q, value))
            fire &= planes[q]
            value |= 1 << q
    drop = value & ~row
    if drop:
        fire = controls(row)
    for q in range(len(planes)):
        if drop >> q & 1:
            planes[q] ^= fire
            gates.append((q, row))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda w: st.tuples(
    st.lists(st.integers(0, (1 << 40) - 1), min_size=w, max_size=w),
    st.integers(0, (1 << w) - 1), st.integers(0, (1 << w) - 1))))
def test_fix_matches_two_and_reference(case):
    # Odd widths give ``_split`` halves of different sizes.
    planes, value, row = case
    full = (1 << 40) - 1
    expected_planes, expected_gates = list(planes), []
    reference_fix(expected_planes, value, row, full, expected_gates)
    got_gates = []
    tbs._fix(planes, value, row, full, got_gates, tbs._split(len(planes)))
    assert planes == expected_planes
    assert got_gates == expected_gates


@pytest.mark.parametrize("width", range(13))
def test_split_lists_every_masks_qubits(width):
    half, lows, low, high = tbs._split(width)
    for mask in range(1 << width):
        assert low[mask & lows] + high[mask >> half] == \
            tuple(q for q in range(width) if mask >> q & 1)


@pytest.mark.parametrize("direction,row", [(tbs.UNIDIRECTIONAL, 6598), (tbs.BIDIRECTIONAL, 7989)],
                         ids=["unidirectional-6598", "bidirectional-7989"])
def test_dense_width_15_permutation_hits_gate_limit_at_pinned_row(direction, row):
    # A dense table built without an RNG: an odd multiplier, then an xorshift.
    y = (0x9E37 * np.arange(1 << 15, dtype=np.int64) + 0x1D) % (1 << 15)
    with pytest.raises(GateLimitExceeded, match=f"at row {row} of 32768"):
        tbs.tbs_synthesize(make_spec(15, y ^ (y >> 7)), direction=direction)


def test_sixteen_qubit_last_pair_swap_is_one_gate():
    perm = list(range(1 << 16))
    perm[-2], perm[-1] = perm[-1], perm[-2]
    c = synth(perm)
    assert c.gates == (circ.mcx(15, (1 << 15) - 1),)
    assert induced_permutation(c) == perm


@pytest.mark.parametrize("bidirectional", [False, True])
def test_gates_built_through_module_mcx(monkeypatch, bidirectional):
    # The benchmark's tracer counts gates by patching this binding.
    perm = np.random.default_rng(7).permutation(64).tolist()
    direction = tbs.BIDIRECTIONAL if bidirectional else tbs.UNIDIRECTIONAL
    expected = synth(perm, direction).gates
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return circ.mcx(*args, **kwargs)

    monkeypatch.setattr(tbs, "mcx", counted)
    assert synth(perm, direction).gates == expected
    assert len(calls) == len(expected) > 0


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


def test_timeout_enforced(monkeypatch):
    # The timer stops TBS inside its row loop, in both directions, and names the stage.
    monkeypatch.setattr(tbs, "_fix", slow(tbs._fix))
    table = pla.parse_pla((BENCH_DIR / "squar5.pla").read_text())
    for method in ("tbs", "tbs-bidirectional"):
        with pytest.raises(SynthesisTimeout, match=r"s in qoracle\.tbs\.tbs_synthesize$"):
            cli._run_with_timeout(0.1, table, method)


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
