"""Tables: parsing, expansion, emission and integer ingestion."""
from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import pla
from qoracle.errors import QOracleError, TooWide

from conftest import cube, pla_tables, spec_rows, table_from_spec


def test_parse_single_cube_and():
    table = pla.parse_pla(".i 2\n.o 1\n11 1\n.e")
    assert (table.n, table.m) == (2, 1)
    assert table.cubes == [cube("11", "1")]
    assert table.kind == pla.KIND_FD


def test_parse_dash_literal():
    table = pla.parse_pla(".i 2\n.o 1\n1- 1\n.e")
    assert table.cubes[0] == cube("1-", "1")


def test_parse_width_mismatch():
    with pytest.raises(QOracleError, match="has widths 3/1, declared 2/1"):
        pla.parse_pla(".i 2\n.o 1\n111 1\n.e")


def test_parse_unknown_directive():
    with pytest.raises(QOracleError, match="unsupported directive .mv"):
        pla.parse_pla(".i 2\n.o 1\n.mv 4\n11 1\n.e")


def test_parse_missing_header():
    with pytest.raises(QOracleError, match="cube line before .i/.o declarations"):
        pla.parse_pla("11 1\n.e")
    with pytest.raises(QOracleError, match="cube line before .i/.o declarations"):
        pla.parse_pla(".i 2\n11 1\n.e")


def test_parse_illegal_char():
    with pytest.raises(QOracleError, match="illegal literal 'x'"):
        pla.parse_pla(".i 2\n.o 1\n1x 1\n.e")
    with pytest.raises(QOracleError, match="illegal literal '2'"):
        pla.parse_pla(".i 2\n.o 1\n10 2\n.e")
    # int("1_0", 2) is 2, so the codec checks characters before it converts.
    with pytest.raises(QOracleError, match="illegal literal '_'"):
        pla.parse_pla(".i 3\n.o 1\n1_0 1\n.e")
    with pytest.raises(QOracleError, match="widths 3/1"):
        pla.parse_pla(".i 2\n.o 1\n1x1 1\n.e")


_WIDTHS = "does not match .i 2 .o 1"
_MARKS = "has value outside care or ones inside dc"


@pytest.mark.parametrize("row,kind,message", [
    ((-1, 0, 1, 0), pla.KIND_FD, _WIDTHS),
    ((0b111, 0b100, 1, 0), pla.KIND_FD, _WIDTHS),
    ((0b11, 0b11, 0b10, 0), pla.KIND_FD, _WIDTHS),
    ((0b11, 0b11, 0, 0b10), pla.KIND_FD, _WIDTHS),
    ((0b10, 0b11, 1, 0), pla.KIND_FD, _MARKS),
    ((0b11, 0b11, 1, 1), pla.KIND_FD, _MARKS),
    ((0b11, 0b11, 0, 1), pla.KIND_F, "type f tables forbid '-' output marks"),
], ids=["negative", "input-beyond-n", "ones-beyond-m", "dc-beyond-m",
        "value-outside-care", "ones-and-dc", "dc-in-type-f"])
def test_table_rejects_malformed_rows(row, kind, message):
    with pytest.raises(QOracleError, match=message):
        pla.PlaTable(n=2, m=1, cubes=[(0b11, 0b01, 1, 0), row], kind=kind)


def test_parse_p_count_checked():
    with pytest.raises(QOracleError, match=r"\.p 2 but 1 cubes parsed"):
        pla.parse_pla(".i 2\n.o 1\n.p 2\n11 1\n.e")


def test_parse_malformed_directives():
    with pytest.raises(QOracleError, match="malformed .i directive: '.i'"):
        pla.parse_pla(".i\n.o 1\n.e")
    with pytest.raises(QOracleError, match="malformed .i directive: '.i two'"):
        pla.parse_pla(".i two\n.o 1\n.e")
    with pytest.raises(QOracleError, match="malformed .i directive: '.i ²'"):
        pla.parse_pla(".i ²\n.o 1\n.e")
    with pytest.raises(QOracleError, match="repeated .i directive: '.i 3'"):
        pla.parse_pla(".i 2\n.o 1\n01 1\n.i 3\n.e")
    with pytest.raises(QOracleError, match="repeated .o directive: '.o 3'"):
        pla.parse_pla(".i 2\n.o 2\n01 11\n.o 3\n.e")
    with pytest.raises(QOracleError, match="unsupported table type in '.type fr'"):
        pla.parse_pla(".i 1\n.o 1\n.type fr\n1 1\n.e")
    with pytest.raises(QOracleError, match="repeated .p directive: '.p 1'"):
        pla.parse_pla(".i 1\n.o 1\n.p 1\n.p 1\n1 1\n.e")
    with pytest.raises(QOracleError, match="repeated .type directive: '.type f'"):
        pla.parse_pla(".i 1\n.o 1\n.type fd\n.type f\n1 1\n.e")
    with pytest.raises(QOracleError, match="repeated .ob directive: '.ob b'"):
        pla.parse_pla(".i 1\n.o 1\n.ob a\n.ob b\n1 1\n.e")
    with pytest.raises(QOracleError, match="repeated .ilb directive: '.ilb a b'"):
        pla.parse_pla(".i 2\n.o 1\n.ilb a\n11 1\n.ilb a b\n.e")


def test_parse_labels_and_type():
    text = ".i 2\n.o 1\n.ilb a b\n.ob f\n.type f\n10 1\n.e"
    table = pla.parse_pla(text)
    assert table.kind == pla.KIND_F
    assert table.input_labels == ["a", "b"]
    assert table.output_labels == ["f"]
    assert pla.parse_pla(pla.write_pla(table)) == table


def test_type_f_rejects_output_dash():
    with pytest.raises(QOracleError, match="type f tables forbid '-' output marks"):
        pla.parse_pla(".i 1\n.o 1\n.type f\n1 -\n.e")


def test_expand_dash_inputs():
    table = pla.parse_pla(".i 2\n.o 1\n1- 1\n.e")
    spec = pla.expand(table)
    assert spec.entries.tolist() == [0, 0, 1, 1] and spec.dc.tolist() == [0, 0, 0, 0]


def test_expand_fd_dontcare_combination():
    # Hand expansion: "0- -" marks 00 and 01 as don't-care, "01 1" then
    # upgrades 01 to One; 10 and 11 stay at the all-zero default.
    table = pla.parse_pla(".i 2\n.o 1\n01 1\n0- -\n.e")
    spec = pla.expand(table)
    rows = spec_rows(spec)
    assert rows[0b01] == (1, 0)
    assert rows[0b00] == (0, 1)
    assert rows[0b10] == (0, 0)
    assert rows[0b11] == (0, 0)


def test_expand_too_wide():
    table = pla.PlaTable(n=21, m=1, cubes=[cube("-" * 21, "1")])
    with pytest.raises(TooWide):
        pla.expand(table)


def test_expand_at_the_input_limit_stays_small():
    # Two int64 arrays over 2^20 minterms take 16 MB.
    rng = random.Random(20)
    rows = [" ".join("".join(rng.choice("01-") for _ in range(width)) for width in (20, 4))
            for _ in range(60)]
    table = pla.parse_pla(".i 20\n.o 4\n" + "\n".join(rows) + "\n.e\n")
    tracemalloc.start()
    try:
        spec = pla.expand(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20, peak
    assert len(spec.entries) == len(spec.dc) == 1 << 20


def test_expand_partial_leaves_minterms_out():
    table = pla.parse_pla(".i 3\n.o 1\n111 1\n000 0\n.e")
    spec = pla.expand(table, partial=True)
    assert spec.specified().tolist() == [0b000, 0b111]
    assert spec.entries.tolist() == [0] + [pla.UNSPECIFIED] * 6 + [1]
    total = pla.expand(table)
    assert total.specified().tolist() == list(range(8))


def test_write_pla_exact():
    table = pla.PlaTable(n=1, m=1, cubes=[cube("1", "1")])
    assert pla.write_pla(table) == ".i 1\n.o 1\n.p 1\n1 1\n.e\n"


def test_write_pla_empty():
    table = pla.PlaTable(n=2, m=1, cubes=[])
    assert pla.write_pla(table) == ".i 2\n.o 1\n.p 0\n.e\n"


def test_roundtrip_benchmark_files(bench_tables):
    for name, table in bench_tables.items():
        again = pla.parse_pla(pla.write_pla(table))
        assert again == table, name


@settings(max_examples=100)
@given(pla_tables())
def test_parse_write_identity(table):
    assert pla.parse_pla(pla.write_pla(table)) == table


@settings(max_examples=60)
@given(pla_tables(max_n=4, max_m=2), st.data())
def test_expand_monotone(table, data):
    extra = cube(
        data.draw(st.text(alphabet="01-", min_size=table.n, max_size=table.n)),
        data.draw(
            st.text(
                alphabet="01" if table.kind == pla.KIND_F else "01-",
                min_size=table.m,
                max_size=table.m,
            )
        ),
    )
    before = pla.expand(table)
    grown = pla.PlaTable(table.n, table.m, table.cubes + [extra], table.kind)
    after = pla.expand(grown)
    assert ((after.entries & before.entries) == before.entries).all()


@settings(max_examples=60)
@given(pla_tables(max_n=4, max_m=2, kind=pla.KIND_F))
def test_kind_f_expansion_has_no_dontcares(table):
    assert not pla.expand(table).has_dontcares()


def test_encode_card_domain_width():
    pairs = [(d, 1) for d in range(53)]
    table = pla.encode_integer_pairs(pairs)
    assert table.n == 6


def test_encode_identity_pairs():
    table = pla.encode_integer_pairs([(0, 0), (1, 1)])
    assert (table.n, table.m) == (1, 1)
    assert table.cubes == [cube("0", "0"), cube("1", "1")]


def test_encode_power_of_two_range():
    table = pla.encode_integer_pairs([(0, 8)])
    assert table.m == 4


def test_encode_duplicate_domain():
    with pytest.raises(QOracleError, match="domain value 3 listed twice"):
        pla.encode_integer_pairs([(3, 1), (3, 2)])


@pytest.mark.parametrize("pairs,named", [
    ([(-1, 0), (2, 1)], "-1,0"),  # would print as the don't-care cube '-1'
    ([(1, -1), (2, 1)], "1,-1"),
    ([(0, 0), (-5, -7)], "-5,-7"),
], ids=["domain", "range", "both"])
def test_encode_rejects_negative_values(pairs, named):
    with pytest.raises(QOracleError, match=f"negative value in the pair {named}"):
        pla.encode_integer_pairs(pairs)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 500)),
        min_size=1,
        max_size=12,
        unique_by=lambda p: p[0],
    )
)
def test_encode_roundtrip(pairs):
    table = pla.encode_integer_pairs(pairs)
    full = (1 << table.n) - 1
    assert table.cubes == [(full, d, r, 0) for d, r in pairs]


def test_spec_roundtrip_partition(bench_tables):
    # Expanding and re-compacting covers the same ON/DC/OFF partition.
    table = bench_tables["squar5"]
    spec = pla.expand(table)
    again = pla.expand(table_from_spec(spec))
    assert np.array_equal(again.entries, spec.entries) and np.array_equal(again.dc, spec.dc)
