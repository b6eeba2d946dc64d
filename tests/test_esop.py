"""ESOP conversion, minimization and the Toffoli mapping."""
from __future__ import annotations

import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import circuit as circ
from qoracle import esop, pla, sim
from qoracle.errors import SynthesisTimeout

from conftest import pla_tables


def truth_table(cubes: esop.EsopCubeList) -> list[int]:
    """Independent XOR-semantics evaluation of a cube list, per minterm."""
    out = []
    for x in range(1 << cubes.n):
        word = 0
        for cube in cubes.cubes:
            hit = all(
                ch == "-" or int(ch) == (x >> (cubes.n - 1 - col)) & 1
                for col, ch in enumerate(cube.inputs)
            )
            if hit:
                word ^= int(cube.outputs, 2)
        out.append(word)
    return out


def or_table(table: pla.PlaTable) -> list[int]:
    spec = pla.expand(table)
    return [spec.entries[x][0] for x in range(1 << table.n)]


def test_sop_to_esop_disjoints_overlap():
    table = pla.parse_pla(".i 2\n.o 1\n1- 1\n-1 1\n.e")
    cubes = esop.sop_to_esop(table)
    assert [(c.inputs, c.outputs) for c in cubes.cubes] == [("1-", "1"), ("01", "1")]
    assert truth_table(cubes) == or_table(table)


def test_sop_to_esop_single_cube_unchanged():
    table = pla.parse_pla(".i 3\n.o 2\n1-0 11\n.e")
    cubes = esop.sop_to_esop(table)
    assert [(c.inputs, c.outputs) for c in cubes.cubes] == [("1-0", "11")]


def test_sop_to_esop_disjoint_input_unchanged():
    table = pla.parse_pla(".i 2\n.o 1\n11 1\n00 1\n.e")
    cubes = esop.sop_to_esop(table)
    assert [(c.inputs, c.outputs) for c in cubes.cubes] == [("11", "1"), ("00", "1")]


@settings(max_examples=150, deadline=None)
@given(pla_tables(max_n=4, max_m=3))
def test_sop_to_esop_matches_or_semantics(table):
    assert truth_table(esop.sop_to_esop(table)) == or_table(table)


def test_minimize_merges_distance_one():
    cubes = esop.EsopCubeList(2, 1, [pla.Cube("11", "1"), pla.Cube("1-", "1")])
    result = esop.minimize_esop(cubes)
    assert [(c.inputs, c.outputs) for c in result.cubes] == [("10", "1")]
    assert truth_table(result) == truth_table(cubes)


def test_minimize_cancels_distance_zero():
    cubes = esop.EsopCubeList(2, 1, [pla.Cube("11", "1"), pla.Cube("11", "1")])
    assert esop.minimize_esop(cubes).cubes == []


def test_minimize_single_cube_unchanged():
    cubes = esop.EsopCubeList(2, 1, [pla.Cube("1-", "1")])
    assert esop.minimize_esop(cubes).cubes == cubes.cubes


def test_minimize_distance_two_without_helper_stays_put():
    # A lone distance-2 pair has no third cube to absorb a rewrite, so the
    # conditional rule must leave it alone.
    cubes = esop.EsopCubeList(
        2, 1, [pla.Cube("11", "1"), pla.Cube("--", "1")]
    )
    result = esop.minimize_esop(cubes)
    assert truth_table(result) == truth_table(cubes)
    assert len(result.cubes) == 2


def test_minimize_commits_distance_two_rewrite():
    # 110 and 1-- are two apart and both are two or more from 000, so the
    # saturated set has three cubes; rewriting the pair exposes 100, which
    # merges with 000 and the list drops to two cubes.
    cubes = esop.EsopCubeList(
        3, 1, [pla.Cube("110", "1"), pla.Cube("1--", "1"), pla.Cube("000", "1")]
    )
    result = esop.minimize_esop(cubes)
    assert truth_table(result) == truth_table(cubes)
    assert len(result.cubes) == 2


@settings(max_examples=150, deadline=None)
@given(pla_tables(max_n=4, max_m=3), st.integers(1, 4))
def test_minimize_preserves_xor_semantics(table, passes):
    cubes = esop.sop_to_esop(table)
    result = esop.minimize_esop(cubes, passes=passes)
    assert truth_table(result) == truth_table(cubes)
    assert len(result.cubes) <= len(cubes.cubes)


def test_esop_to_circuit_single_toffoli():
    cubes = esop.EsopCubeList(2, 1, [pla.Cube("11", "1")])
    c = esop.esop_to_circuit(cubes)
    assert c.width == 3
    assert c.gates == [circ.mcx(2, 1 << 0 | 1 << 1)]


def test_esop_to_circuit_card_polarity():
    cubes = esop.EsopCubeList(6, 1, [pla.Cube("101010", "1")])
    c = esop.esop_to_circuit(cubes)
    assert c.gates[0].controls == (
        (0, "+"), (1, "-"), (2, "+"), (3, "-"), (4, "+"), (5, "-")
    )
    assert c.gates[0].target == 6


def test_esop_to_circuit_empty():
    cubes = esop.EsopCubeList(3, 2, [])
    c = esop.esop_to_circuit(cubes)
    assert c.width == 5 and c.gates == []


@settings(max_examples=100, deadline=None)
@given(pla_tables(max_n=4, max_m=3))
def test_end_to_end_oracle_and_xor_shift(table):
    spec = pla.expand(table)
    lowered = circ.lower_polarity(
        esop.esop_to_circuit(esop.minimize_esop(esop.sop_to_esop(table)))
    )
    assert lowered.width == table.n + table.m
    report = sim.verify_oracle(lowered, spec, sim.MODE_PRESERVE)
    assert report.passed

    # Ancilla set to all-ones reads back the complement of the resolved bits.
    n, m = table.n, table.m
    ones = (1 << m) - 1
    words = np.array([(x << m) | ones for x in range(1 << n)])
    outs = sim.apply_classical_batch(lowered, words)
    for x in range(1 << n):
        got = int(outs[x])
        assert got >> m == x
        value, dc = spec.entries[x]
        assert (got & ones) & ~dc == (value ^ ones) & ~dc


@st.composite
def wide_tables(draw):
    """33-40 input tables whose cubes overlap on a few columns.

    Literals sit mostly in a small window of columns that includes column 0
    (mask bit n-1 >= 32), so random points hit the cubes and the cubes
    cancel and merge against each other.
    """
    n = draw(st.integers(33, 40))
    m = draw(st.integers(1, 3))
    window = [0] + draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=5, unique=True))
    cubes = []
    for _ in range(draw(st.integers(1, 6))):
        lits = ["-"] * n
        for col in window:
            lits[col] = draw(st.sampled_from("01-"))
        extra = draw(st.integers(0, n - 1))
        if lits[extra] == "-":
            lits[extra] = draw(st.sampled_from("01-"))
        outs = draw(st.text(alphabet="01", min_size=m, max_size=m))
        cubes.append(pla.Cube("".join(lits), outs))
    return pla.PlaTable(n=n, m=m, cubes=cubes, kind=pla.KIND_F), draw(st.randoms())


def mask_eval(cubes, x: int, xor: bool) -> int:
    """OR- or XOR-combined output word of string cubes at minterm x."""
    word = 0
    for cube in cubes:
        care = int(cube.inputs.replace("0", "1").replace("-", "0"), 2)
        value = int(cube.inputs.replace("-", "0"), 2)
        if x & care == value:
            mark = int(cube.outputs.replace("-", "0"), 2)
            word = word ^ mark if xor else word | mark
    return word


def run_gates(circuit: circ.Circuit, state: list[int]) -> list[int]:
    for gate in circuit.gates:
        if all(state[q] == (pol == "+") for q, pol in gate.controls):
            state[gate.target] ^= 1
    return state


@settings(max_examples=60, deadline=None)
@given(wide_tables())
def test_wide_inputs_keep_xor_semantics(drawn):
    table, rng = drawn
    n, m = table.n, table.m
    converted = esop.sop_to_esop(table)
    minimized = esop.minimize_esop(converted)
    assert len(minimized.cubes) <= len(converted.cubes)
    circuit = esop.esop_to_circuit(minimized)
    assert circuit.width == n + m
    for _ in range(300):
        x = rng.getrandbits(n)
        expected = mask_eval(table.cubes, x, xor=False)
        assert mask_eval(converted.cubes, x, xor=True) == expected
        assert mask_eval(minimized.cubes, x, xor=True) == expected
        bits = [x >> (n - 1 - q) & 1 for q in range(n)] + [0] * m
        out = run_gates(circuit, list(bits))
        assert out[:n] == bits[:n]
        assert int("".join(map(str, out[n:])), 2) == expected


@settings(max_examples=150, deadline=None)
@given(pla_tables(max_n=5, max_m=4), st.booleans())
def test_spec_to_esop_matches_the_table_route(table, partial):
    # spec_to_esop skips rendering the minterm table as .pla cubes, but must
    # keep sop_to_esop's cube order, which the minimizer's cascade depends on.
    spec = pla.expand(table, partial=partial)
    direct = esop.spec_to_esop(spec)
    assert direct == esop.sop_to_esop(pla.table_from_spec(spec))
    assert esop.minimize_esop(direct) == esop.minimize_esop(
        esop.sop_to_esop(pla.table_from_spec(spec)))


def xor_words(cubes: esop.EsopCubeList) -> np.ndarray:
    """XOR-semantics output word of every minterm, from the cube masks."""
    xs = np.arange(1 << cubes.n)
    words = np.zeros(1 << cubes.n, dtype=np.int64)
    for care, value, outs in cubes.rows:
        words[xs & care == value] ^= outs
    return words


@st.composite
def minterm_lists(draw):
    """Fully specified rows drawn from one or two small subcubes.

    The subcubes keep the points dense, so rows repeat minterms within a
    column and across outputs and many pairs are one bit apart.
    """
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 3))
    full = (1 << n) - 1
    subcubes = draw(st.lists(st.tuples(st.integers(0, full), st.integers(0, full)),
                             min_size=1, max_size=2))
    points = st.builds(lambda sub, x: sub[0] & ~sub[1] | x & sub[1],
                       st.sampled_from(subcubes), st.integers(0, full))
    rows = draw(st.lists(st.tuples(points, st.integers(1, (1 << m) - 1)), max_size=60))
    return esop.EsopCubeList(n, m, rows=[(full, x, outs) for x, outs in rows])


@settings(max_examples=200, deadline=None)
@given(minterm_lists())
def test_minimize_minterm_columns_keeps_xor_semantics(cubes):
    result = esop.minimize_esop(cubes)
    assert np.array_equal(xor_words(result), xor_words(cubes))
    assert len(result.rows) <= len(cubes.rows)


def test_minimize_wide_minterm_column_keeps_xor_semantics():
    rng = random.Random(7)
    n = 40
    full = (1 << n) - 1
    base = rng.getrandbits(n)
    free = [1 << k for k in rng.sample(range(n), 6)]
    points = [base ^ sum(rng.sample(free, rng.randint(0, 6))) for _ in range(80)]
    cubes = esop.EsopCubeList(n, 2, rows=[(full, x, rng.randint(1, 3)) for x in points])
    result = esop.minimize_esop(cubes)
    assert len(result.rows) < len(cubes.rows)
    samples = points + [x ^ bit for x in points[:10] for bit in free] + [
        rng.getrandbits(n) for _ in range(200)]
    for x in samples:
        assert mask_eval(result.cubes, x, xor=True) == mask_eval(cubes.cubes, x, xor=True)


def test_minimize_is_deterministic():
    rng = random.Random(3)
    rows = [((1 << 8) - 1, rng.getrandbits(8), rng.randint(1, 7)) for _ in range(300)]
    first = esop.minimize_esop(esop.EsopCubeList(8, 3, rows=list(rows)))
    again = esop.minimize_esop(esop.EsopCubeList(8, 3, rows=list(rows)))
    assert first.rows == again.rows


def test_minterm_pairing_bit_order_and_rank():
    # 000 pairs with 001 at bit 0 before it could pair with 100 at bit 2,
    # and 00- takes the rank of 001, so it comes before 100.
    cubes = esop.EsopCubeList(3, 1, [pla.Cube(x, "1") for x in ("001", "100", "000")])
    result = esop.minimize_esop(cubes)
    assert [(c.inputs, c.outputs) for c in result.cubes] == [("00-", "1"), ("100", "1")]
    assert truth_table(result) == truth_table(cubes)
    # Three copies of 101 leave one, at the first copy's rank.
    cubes = esop.EsopCubeList(3, 1, [pla.Cube(x, "1") for x in ("101", "010", "101", "101")])
    result = esop.minimize_esop(cubes)
    assert [(c.inputs, c.outputs) for c in result.cubes] == [("101", "1"), ("010", "1")]


@pytest.mark.parametrize("literals", [("110", "111", "011"), ("1-0", "111")])
def test_minimize_checks_deadline_before_building_columns(monkeypatch, literals):
    inserted = []
    insert = esop._ColumnSet.insert

    def record(self, cube):
        inserted.append(cube)
        return insert(self, cube)

    monkeypatch.setattr(esop._ColumnSet, "insert", record)
    cubes = esop.EsopCubeList(3, 2, [pla.Cube(x, "11") for x in literals])
    with pytest.raises(SynthesisTimeout):
        esop.minimize_esop(cubes, deadline=time.monotonic() - 1)
    assert inserted == []
