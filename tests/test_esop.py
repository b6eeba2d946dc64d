"""ESOP conversion, minimization and the Toffoli mapping."""
from __future__ import annotations

import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import circuit as circ
from qoracle import cli, esop, pla, sim
from qoracle.errors import SynthesisTimeout

from conftest import (apply_classical, as_cubes, cube, from_cubes, gate_controls, pairs,
                      pla_tables, table_from_spec, xor_words)


def truth_table(cubes: esop.EsopCubeList) -> list[int]:
    """Independent XOR-semantics evaluation of a cube list, per minterm."""
    out = []
    for x in range(1 << cubes.n):
        word = 0
        for inputs, outputs in as_cubes(cubes):
            hit = all(
                ch == "-" or int(ch) == (x >> (cubes.n - 1 - col)) & 1
                for col, ch in enumerate(inputs)
            )
            if hit:
                word ^= int(outputs, 2)
        out.append(word)
    return out


def or_table(table: pla.PlaTable) -> list[int]:
    return pla.expand(table).entries.tolist()


def test_sop_to_esop_disjoints_overlap():
    table = pla.parse_pla(".i 2\n.o 1\n1- 1\n-1 1\n.e")
    cubes = esop.sop_to_esop(table)
    assert as_cubes(cubes) == [("1-", "1"), ("01", "1")]
    assert truth_table(cubes) == or_table(table)


def test_sop_to_esop_single_cube_unchanged():
    table = pla.parse_pla(".i 3\n.o 2\n1-0 11\n.e")
    cubes = esop.sop_to_esop(table)
    assert as_cubes(cubes) == [("1-0", "11")]


def test_sop_to_esop_disjoint_input_unchanged():
    table = pla.parse_pla(".i 2\n.o 1\n11 1\n00 1\n.e")
    cubes = esop.sop_to_esop(table)
    assert as_cubes(cubes) == [("11", "1"), ("00", "1")]


@settings(max_examples=150, deadline=None)
@given(pla_tables(max_n=4, max_m=3))
def test_sop_to_esop_matches_or_semantics(table):
    assert truth_table(esop.sop_to_esop(table)) == or_table(table)


def overlapping_cubes() -> pla.PlaTable:
    """100 seeded 20-input cubes, each column a literal with probability 0.45, polarity 50/50."""
    rng = random.Random(5)
    cubes = []
    for _ in range(100):
        literals = [(1 << k, rng.random() < 0.5) for k in reversed(range(20))
                    if rng.random() < 0.45]
        cubes.append((sum(bit for bit, _ in literals),
                      sum(bit for bit, one in literals if one), 1, 0))
    return pla.PlaTable(n=20, m=1, cubes=cubes)


def test_sop_to_esop_stops_at_the_deadline():
    # Disjoint-sharp splits these 100 cubes into about 19 000 pieces.
    started = time.monotonic()
    with pytest.raises(SynthesisTimeout,
                       match=r"^gave up after 0\.5 s in qoracle\.esop\.sop_to_esop$"):
        cli._run_with_timeout(0.5, overlapping_cubes(), "esop")
    assert time.monotonic() - started < 2


def test_minimize_merges_distance_one():
    cubes = from_cubes(2, 1, [("11", "1"), ("1-", "1")])
    result = esop.minimize_esop(cubes)
    assert as_cubes(result) == [("10", "1")]
    assert truth_table(result) == truth_table(cubes)


def test_minimize_cancels_distance_zero():
    cubes = from_cubes(2, 1, [("11", "1"), ("11", "1")])
    assert esop.minimize_esop(cubes).cubes == []


def test_minimize_single_cube_unchanged():
    cubes = from_cubes(2, 1, [("1-", "1")])
    assert esop.minimize_esop(cubes).cubes == cubes.cubes


def test_minimize_distance_two_without_helper_stays_put():
    # A lone distance-2 pair has no third cube to absorb a rewrite, so the
    # conditional rule must leave it alone.
    cubes = from_cubes(
        2, 1, [("11", "1"), ("--", "1")]
    )
    result = esop.minimize_esop(cubes)
    assert truth_table(result) == truth_table(cubes)
    assert len(result.cubes) == 2


def test_minimize_commits_distance_two_rewrite():
    # 110 and 1-- are two apart and both are two or more from 000, so the
    # saturated set has three cubes; rewriting the pair exposes 100, which
    # merges with 000 and the list drops to two cubes.
    cubes = from_cubes(
        3, 1, [("110", "1"), ("1--", "1"), ("000", "1")]
    )
    result = esop.minimize_esop(cubes)
    assert truth_table(result) == truth_table(cubes)
    assert len(result.cubes) == 2


@settings(max_examples=150, deadline=None)
@given(pla_tables(max_n=4, max_m=3))
def test_minimize_preserves_xor_semantics(table):
    cubes = esop.sop_to_esop(table)
    result = esop.minimize_esop(cubes)
    assert truth_table(result) == truth_table(cubes)
    assert pairs(result) <= pairs(cubes)


def test_minimize_ships_fewer_pairs_in_more_rows():
    # Output 1 keeps cube 0 and output 3 keeps cube 1, while output 2's 0
    # and 1 merge into -.  Regrouped by cube that is three rows where the
    # input had two, but three pairs where it had four: three gates, not four.
    table = pla.parse_pla(".i 1\n.o 3\n.type f\n0 110\n1 001\n1 010\n.e")
    cubes = esop.sop_to_esop(table)
    assert cubes.cubes == [(1, 0, 0b110), (1, 1, 0b011)]
    result = esop.minimize_esop(cubes)
    assert result.cubes == [(1, 0, 0b100), (0, 0, 0b010), (1, 1, 0b001)]
    assert (len(result.cubes), pairs(result)) == (3, 3)
    assert len(esop.esop_to_circuit(result).gates) == 3
    assert truth_table(result) == truth_table(cubes)


def test_apex4_esop_ships_the_minimized_cubes(bench_tables):
    # apex4's 1580 rows (2253 pairs) minimize to more rows but fewer pairs,
    # and the minimized list is what ships.
    cubes = esop.sop_to_esop(bench_tables["apex4"])
    minimized = esop.minimize_esop(cubes)
    assert (len(cubes.cubes), pairs(cubes)) == (1580, 2253)
    assert (len(minimized.cubes), pairs(minimized)) == (1598, 1882)
    r = cli.run_synthesis(bench_tables["apex4"], "esop", source="apex4").report
    assert (r.qubits, r.gate_count, r.complexity) == (28, 6392, 20843)


def test_cubes_are_mask_rows_counted_by_len():
    # The benchmark's layer trace counts cubes in and out of minimize_esop
    # as len(cubes.cubes), so the rows themselves are the contract.
    table = pla.parse_pla(".i 2\n.o 1\n11 1\n10 1\n00 1\n.e")
    cubes = esop.sop_to_esop(table)
    assert cubes.cubes == [(0b11, 0b11, 1), (0b11, 0b10, 1), (0b11, 0b00, 1)]
    result = esop.minimize_esop(cubes)
    assert result.cubes == [(0b10, 0b10, 1), (0b11, 0b00, 1)]
    assert len(result.cubes) == 2
    assert truth_table(result) == truth_table(cubes)


def test_esop_to_circuit_single_toffoli():
    cubes = from_cubes(2, 1, [("11", "1")])
    c = esop.esop_to_circuit(cubes)
    assert c.width == 3
    assert c.gates == (circ.mcx(2, 1 << 0 | 1 << 1),)


def test_esop_to_circuit_card_polarity():
    cubes = from_cubes(6, 1, [("101010", "1")])
    c = esop.esop_to_circuit(cubes)
    # Qubits 0, 2 and 4 are positive controls, qubits 1, 3 and 5 negative.
    assert (c.gates[0].pos, c.gates[0].neg) == (0b010101, 0b101010)
    assert c.gates[0].target == 6


def test_esop_to_circuit_empty():
    cubes = esop.EsopCubeList(3, 2, [])
    c = esop.esop_to_circuit(cubes)
    assert c.width == 5 and c.gates == ()


@settings(max_examples=100, deadline=None)
@given(pla_tables(max_n=4, max_m=3))
def test_end_to_end_oracle_and_xor_shift(table):
    spec = pla.expand(table)
    lowered = circ.lower_polarity(
        esop.esop_to_circuit(esop.minimize_esop(esop.sop_to_esop(table)))
    )
    assert lowered.width == table.n + table.m
    report = sim.verify_oracle(lowered, spec)
    assert report.passed

    # Ancilla set to all-ones reads back the complement of the resolved bits.
    n, m = table.n, table.m
    ones = (1 << m) - 1
    outs = apply_classical(lowered, [(x << m) | ones for x in range(1 << n)])
    for x in range(1 << n):
        got = outs[x]
        assert got >> m == x
        value, dc = int(spec.entries[x]), int(spec.dc[x])
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
        cubes.append(("".join(lits), outs))
    table = pla.PlaTable(n=n, m=m, cubes=[cube(*pair) for pair in cubes], kind=pla.KIND_F)
    return table, cubes, draw(st.randoms())


def mask_eval(cubes, x: int, xor: bool) -> int:
    """OR- or XOR-combined output word of (inputs, outputs) string cubes at minterm x."""
    word = 0
    for inputs, outputs in cubes:
        care = int(inputs.replace("0", "1").replace("-", "0"), 2)
        value = int(inputs.replace("-", "0"), 2)
        if x & care == value:
            mark = int(outputs.replace("-", "0"), 2)
            word = word ^ mark if xor else word | mark
    return word


def run_gates(circuit: circ.Circuit, state: list[int]) -> list[int]:
    for gate in circuit.gates:
        if all(state[q] == (pol == "+") for q, pol in gate_controls(gate)):
            state[gate.target] ^= 1
    return state


@settings(max_examples=60, deadline=None)
@given(wide_tables())
def test_wide_inputs_keep_xor_semantics(drawn):
    table, literals, rng = drawn
    n, m = table.n, table.m
    converted = esop.sop_to_esop(table)
    minimized = esop.minimize_esop(converted)
    assert pairs(minimized) <= pairs(converted)
    circuit = esop.esop_to_circuit(minimized)
    assert circuit.width == n + m
    for _ in range(300):
        x = rng.getrandbits(n)
        expected = mask_eval(literals, x, xor=False)
        assert mask_eval(as_cubes(converted), x, xor=True) == expected
        assert mask_eval(as_cubes(minimized), x, xor=True) == expected
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
    assert direct == esop.sop_to_esop(table_from_spec(spec))
    assert esop.minimize_esop(direct) == esop.minimize_esop(
        esop.sop_to_esop(table_from_spec(spec)))


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
    return esop.EsopCubeList(n, m, [(full, x, outs) for x, outs in rows])


@settings(max_examples=200, deadline=None)
@given(minterm_lists())
def test_minimize_minterm_columns_keeps_xor_semantics(cubes):
    result = esop.minimize_esop(cubes)
    assert np.array_equal(xor_words(result), xor_words(cubes))
    assert pairs(result) <= pairs(cubes)


def test_minimize_wide_minterm_column_keeps_xor_semantics():
    rng = random.Random(7)
    n = 40
    full = (1 << n) - 1
    base = rng.getrandbits(n)
    free = [1 << k for k in rng.sample(range(n), 6)]
    points = [base ^ sum(rng.sample(free, rng.randint(0, 6))) for _ in range(80)]
    cubes = esop.EsopCubeList(n, 2, [(full, x, rng.randint(1, 3)) for x in points])
    result = esop.minimize_esop(cubes)
    assert pairs(result) < pairs(cubes)
    samples = points + [x ^ bit for x in points[:10] for bit in free] + [
        rng.getrandbits(n) for _ in range(200)]
    for x in samples:
        assert mask_eval(as_cubes(result), x, xor=True) == mask_eval(as_cubes(cubes), x, xor=True)


def test_minimize_is_deterministic():
    rng = random.Random(3)
    rows = [((1 << 8) - 1, rng.getrandbits(8), rng.randint(1, 7)) for _ in range(300)]
    first = esop.minimize_esop(esop.EsopCubeList(8, 3, list(rows)))
    again = esop.minimize_esop(esop.EsopCubeList(8, 3, list(rows)))
    assert first.cubes == again.cubes


def test_minterm_pairing_bit_order_and_rank():
    # 000 pairs with 001 at bit 0 before it could pair with 100 at bit 2,
    # and 00- takes the rank of 001, so it comes before 100.
    cubes = from_cubes(3, 1, [(x, "1") for x in ("001", "100", "000")])
    result = esop.minimize_esop(cubes)
    assert as_cubes(result) == [("00-", "1"), ("100", "1")]
    assert truth_table(result) == truth_table(cubes)
    # Three copies of 101 leave one, at the first copy's rank.
    cubes = from_cubes(3, 1, [(x, "1") for x in ("101", "010", "101", "101")])
    result = esop.minimize_esop(cubes)
    assert as_cubes(result) == [("101", "1"), ("010", "1")]


def reference_distance2_pairs(column: esop._ColumnSet) -> list[tuple[int, int]]:
    """Dict-keyed distance-2 pair builder, the reference for ``_distance2_pairs``.

    Each (live cube, bit pair) key sets bits i and j in care and value; the
    first owner of a key is remembered, and every later owner pairs with
    all earlier ones.
    """
    n = column.n
    bit_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    shift = len(bit_pairs).bit_length()
    marks = [((1 << i | 1 << j) << n | 1 << i | 1 << j) << shift | p
             for p, (i, j) in enumerate(bit_pairs)]
    first: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    pairs: set[tuple[int, int]] = set()
    for cube_id, (care, value) in column.live.items():
        packed = (care << n | value) << shift
        keys = [packed | mark for mark in marks]
        for key in first.keys() & keys:
            ids = groups.setdefault(key, [first[key]])
            pairs.update((a, cube_id) for a in ids)
            ids.append(cube_id)
        first.update(dict.fromkeys(keys, cube_id))
    return sorted(pairs)


@st.composite
def saturated_columns(draw, widths):
    """A ``_ColumnSet`` of cubes that share a base and vary on a few bits.

    The varied window always holds the top bit, so wide columns carry
    masks past bit 31; keeping the rest fixed makes distance-2 pairs and
    three-cube buckets common after the cascade.
    """
    n = draw(widths)
    full = (1 << n) - 1
    window = {n - 1, *draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=6))}
    base_care = draw(st.integers(0, full))
    base_value = draw(st.integers(0, full)) & base_care
    cubes = []
    for _ in range(draw(st.integers(0, 40))):
        care, value = base_care, base_value
        for k in window:
            literal = draw(st.sampled_from("01-"))
            care = care & ~(1 << k) | (literal != "-") << k
            value = value & ~(1 << k) | (literal == "1") << k
        cubes.append((care, value))
    return esop._ColumnSet(n, cubes)


@pytest.mark.parametrize("widths", [st.integers(1, 8), st.just(20), st.integers(33, 40)],
                         ids=["narrow", "int64-keys", "object-keys"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_distance2_pairs_match_reference(widths, data):
    column = data.draw(saturated_columns(widths))
    assert esop._distance2_pairs(column) == reference_distance2_pairs(column)


def test_distance2_pairs_three_cube_bucket():
    column = esop._ColumnSet(2, [pla._masks(x) for x in ("01", "1-", "-0")])
    assert len(column.live) == 3
    assert esop._distance2_pairs(column) == [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("n, literals", [(3, ()), (3, ("1-0",)), (1, ("0", "1")),
                                         (3, ("000", "111")), (4, ("00--", "1111", "-10-"))])
def test_columns_without_distance2_pairs(n, literals):
    column = esop._ColumnSet(n, [pla._masks(x) for x in literals])
    assert esop._distance2_pairs(column) == []
    assert esop._distance2_sweep(column) is False


def pairwise_overlap(cubes: list[tuple[int, int]]) -> bool:
    """Whether two cubes of the list share a minterm, pair by pair."""
    return any(not (v ^ ov) & c & oc for i, (c, v) in enumerate(cubes) for oc, ov in cubes[:i])


def reference_disjoint(cubes: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The plain disjoint-sharp loop: each cube less every earlier result piece."""
    result: list[tuple[int, int]] = []
    for cube in cubes:
        pieces = [cube]
        for ex in result:
            pieces = [p for piece in pieces for p in esop._subtract(piece, ex)]
        result += pieces
    return result


@st.composite
def or_columns(draw, widths):
    """An OR cube column whose cubes share a base and vary on a few bits.

    The base is fully specified off the window two times in three, so
    columns of minterms, repeated minterms and minterms under a dashed cube
    are all common.  One column in three is the loop's disjoint output of
    such a column, so columns with no overlap are common too.  The window
    always holds the top bit, so wide columns carry masks past bit 62.
    """
    n = draw(widths)
    full = (1 << n) - 1
    window = {n - 1, *draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))}
    fixed = full & ~sum(1 << k for k in window)
    base_care = draw(st.sampled_from([fixed, fixed, draw(st.integers(0, full)) & fixed]))
    base_value = draw(st.integers(0, full)) & base_care
    literals = st.sampled_from("01-" if draw(st.booleans()) else "0011-")
    cubes = []
    for _ in range(draw(st.integers(0, 12))):
        care, value = base_care, base_value
        for k in window:
            literal = draw(literals)
            care |= (literal != "-") << k
            value |= (literal == "1") << k
        cubes.append((care, value))
    if draw(st.integers(0, 2)) == 0:
        cubes = reference_disjoint(cubes)
    return cubes, full


@pytest.mark.parametrize("widths", [st.integers(1, 6), st.integers(63, 70)],
                         ids=["int64", "object"])
@pytest.mark.parametrize("chunk", [1, 3, esop._OVERLAP_CHUNK])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_disjoint_shortcut_matches_the_loop(widths, chunk, data):
    cubes, full = data.draw(or_columns(widths))
    overlap = pairwise_overlap(cubes)
    with mock.patch.object(esop, "_OVERLAP_CHUNK", chunk):
        result = esop._disjoint_column(list(cubes), full)
    assert result == reference_disjoint(cubes)
    assert (result == cubes) is not overlap


@pytest.mark.parametrize("n, literals, overlap", [
    (3, ("000", "011", "1-1", "-10"), False),
    (3, ("011", "000", "011"), True),             # a repeated minterm
    (3, ("1-1", "000", "101"), True),             # a minterm under an earlier dashed cube
    (3, ("101", "000", "1-1"), True),             # a dashed cube over an earlier minterm
    (3, ("1--", "0-1", "01-"), True),             # two dashed cubes
    (3, ("1-1", "101", "101"), True),             # a repeat whose first lies under a dash
    (3, ("000", "11-", "011", "0--"), True),      # a dash over cubes 0 and 2, not 1
    (64, ("1" + "-" * 63, "0" * 64, "01" + "-" * 62), False),
    (64, ("1" * 64, "0" * 64, "1-" + "1" * 62), True),
    (64, ("1" * 64, "0" * 64, "1" * 64), True),
], ids=["disjoint", "repeat", "minterm-under-dash", "dash-over-minterm", "dashes",
        "repeat-under-dash", "dash-over-two", "wide-disjoint", "wide-dash", "wide-repeat"])
def test_disjoint_shortcut_cases(n, literals, overlap):
    cubes, full = [pla._masks(x) for x in literals], (1 << n) - 1
    result = esop._disjoint_column(list(cubes), full)
    assert result == reference_disjoint(cubes)
    assert (result == cubes) is not overlap


class ReferenceColumn:
    """The insertion cascade with a set-based probe, the reference for ``_ColumnSet``.

    Every key list is rebuilt where it is used, and ``has_partner`` gathers
    all owners of a cube's keys into a set before it compares.
    """

    def __init__(self, n: int):
        self.n, self.shift = n, n.bit_length()
        self.live: dict[int, tuple[int, int]] = {}
        self.by_key: dict[int, int] = {}
        self.next_id = 0

    def keys(self, cube: tuple[int, int]) -> list[int]:
        care, value = cube
        return [((care | 1 << k) << self.n | value | 1 << k) << self.shift | k
                for k in range(self.n)]

    def remove(self, cube_id: int) -> tuple[int, int]:
        cube = self.live.pop(cube_id)
        for key in self.keys(cube):
            del self.by_key[key]
        return cube

    def insert(self, cube: tuple[int, int]) -> None:
        while True:
            owners = [(k, self.by_key[key]) for k, key in enumerate(self.keys(cube))
                      if key in self.by_key]
            if not owners:
                self.live[self.next_id] = cube
                self.by_key.update(dict.fromkeys(self.keys(cube), self.next_id))
                self.next_id += 1
                return
            k, partner_id = owners[0]
            partner = self.remove(partner_id)
            if partner == cube:
                return
            cube = esop._merge_literal(1 << k, cube, partner)

    def has_partner(self, cube: tuple[int, int], exclude: tuple[int, int]) -> bool:
        return not set(map(self.by_key.get, self.keys(cube))) <= {None, *exclude}


@pytest.mark.parametrize("widths", [st.integers(1, 5), st.integers(33, 40)],
                         ids=["narrow", "wide"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_column_set_matches_the_set_based_reference(widths, data):
    n = data.draw(widths)
    full = (1 << n) - 1
    # Wide columns vary only a few low bits, so cubes still meet.
    free = full if n <= 5 else 0b111
    base = data.draw(st.integers(0, full)) & ~free
    cubes = st.tuples(st.integers(0, free), st.integers(0, free)).map(
        lambda cv: (base | cv[0], base | cv[0] & cv[1]))
    column, reference = esop._ColumnSet(n, []), ReferenceColumn(n)
    for _ in range(data.draw(st.integers(1, 30))):
        if reference.live and data.draw(st.booleans()):
            cube_id = data.draw(st.sampled_from(sorted(reference.live)))
            assert column.remove(cube_id) == reference.remove(cube_id)
        else:
            cube = data.draw(cubes)
            column.insert(cube)
            reference.insert(cube)
        assert list(column.live.items()) == list(reference.live.items())
        assert column.by_key == reference.by_key and column.next_id == reference.next_id
        ids = st.sampled_from(sorted(reference.live) + [-1])
        for _ in range(4):
            probe = data.draw(st.one_of(cubes, st.sampled_from(list(reference.live.values())))
                              if reference.live else cubes)
            exclude = (data.draw(ids), data.draw(ids))
            assert column.has_partner(probe, exclude) == reference.has_partner(probe, exclude)
