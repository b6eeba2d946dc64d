"""Embedding: multiplicity, don't-care resolution, RTT and onto-completion."""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import embed, pla
from qoracle.errors import QOracleError, SynthesisTimeout, TooWide


def spec_of(n, m, mapping):
    return pla.SpecTable(n=n, m=m, entries={x: (y, 0) for x, y in mapping.items()})


def test_multiplicity_counts_duplicates():
    spec = spec_of(2, 1, {0b00: 0, 0b01: 0, 0b10: 1, 0b11: 0})
    assert embed.max_output_multiplicity(spec) == 3


def test_multiplicity_injective_and_empty():
    assert embed.max_output_multiplicity(spec_of(2, 2, {0: 1, 1: 2, 2: 3, 3: 0})) == 1
    assert embed.max_output_multiplicity(pla.SpecTable(2, 1)) == 0


def test_multiplicity_requires_resolution():
    spec = pla.SpecTable(1, 1, {0: (0, 1)})
    with pytest.raises(QOracleError, match="resolve don't-care output bits first"):
        embed.max_output_multiplicity(spec)


def test_resolve_zeros():
    spec = pla.SpecTable(1, 1, {0: (0, 1)})
    assert embed.resolve_dontcares(spec).entries == {0: (0, 0)}


def test_resolve_min_duplication_avoids_crowded_pattern():
    # Rows 00 and 10 already use pattern 01 twice, so the free bit of the
    # 0- row must complete to 00.
    spec = pla.SpecTable(2, 2, {0b00: (0b01, 0), 0b01: (0b00, 0b01), 0b10: (0b01, 0)})
    resolved = embed.resolve_dontcares(spec, embed.RESOLVE_MIN_DUPLICATION)
    assert resolved.entries[0b01] == (0b00, 0)


def test_resolve_without_dontcares_is_identity():
    spec = spec_of(2, 1, {0: 1, 1: 0})
    assert embed.resolve_dontcares(spec) is spec


def test_rtt_worked_example():
    spec = spec_of(2, 1, {0b00: 0, 0b01: 0, 0b10: 1, 0b11: 0})
    partial, report = embed.rtt_embed(spec)
    assert (report.d, report.v, report.w, report.n_total) == (3, 2, 1, 3)
    assert report.specified_rows == 4
    rows = {i: int(v) for i, v in enumerate(partial.perm) if v != embed.UNSPECIFIED}
    assert rows == {0b000: 0b000, 0b010: 0b001, 0b100: 0b100, 0b110: 0b010}
    assert partial.roles_in == ("input", "input", "ancilla")
    assert partial.roles_out == ("output", "garbage", "garbage")


def test_rtt_injective_square_table_is_unchanged():
    mapping = {0: 2, 1: 0, 2: 3, 3: 1}
    partial, report = embed.rtt_embed(spec_of(2, 2, mapping))
    assert (report.v, report.w, report.n_total) == (0, 0, 2)
    assert {x: int(y) for x, y in enumerate(partial.perm)} == mapping


def test_rtt_squar5_width(bench_tables):
    spec = pla.expand(bench_tables["squar5"])
    _, report = embed.rtt_embed(spec)
    assert report.n_total == 9


def test_rtt_too_wide(bench_tables):
    spec = pla.expand(bench_tables["b11"])
    with pytest.raises(TooWide):
        embed.rtt_embed(spec)


def test_rtt_pads_garbage_for_partial_wide_tables():
    # Two specified rows of a 3-in/1-out partial table: injective, so the
    # output side needs two pad garbage columns to reach width 3.
    spec = pla.SpecTable(3, 1, {0b000: (0, 0), 0b111: (1, 0)})
    partial, report = embed.rtt_embed(spec)
    assert (report.v, report.w, report.n_total) == (0, 0, 3)
    assert partial.roles_out == ("output", "garbage", "garbage")
    rows = {i: int(v) for i, v in enumerate(partial.perm) if v != embed.UNSPECIFIED}
    assert rows == {0b000: 0b000, 0b111: 0b100}


def _partial(width, mapping):
    perm = np.full(1 << width, embed.UNSPECIFIED, dtype=np.int64)
    for k, v in mapping.items():
        perm[k] = v
    return embed.ReversibleSpec(width, perm)


def test_naive_completion_pairs_ascending():
    partial = _partial(2, {0: 3, 2: 1})  # unused inputs 1,3; unused outputs 0,2
    total = embed.complete_onto_naive(partial)
    assert total.perm.tolist() == [3, 0, 1, 2]


def test_naive_completion_of_total_spec_is_identity_operation():
    partial = _partial(1, {0: 1, 1: 0})
    assert embed.complete_onto_naive(partial).perm.tolist() == [1, 0]


def test_hamming_completion_prefers_close_outputs():
    # Unused input 001 can take 110 or 011; 011 differs by one bit.
    partial = _partial(3, {0: 0, 2: 1, 3: 2, 4: 4, 5: 5, 6: 7})
    unused_in = [1, 7]
    unused_out = [3, 6]
    total = embed.complete_onto_hamming(partial)
    assert int(total.perm[0b001]) == 0b011
    assert int(total.perm[0b111]) == 0b110
    assert total.is_bijection()
    assert unused_in and unused_out  # documents the hole structure above


def test_hamming_pass_one_fixes_identical_patterns():
    # Unused inputs {001,011,101,111}; unused outputs {011,101,110,111}.
    partial = _partial(3, {0b000: 0b000, 0b010: 0b001, 0b100: 0b010, 0b110: 0b100})
    total = embed.complete_onto_hamming(partial)
    assert int(total.perm[0b011]) == 0b011
    assert int(total.perm[0b101]) == 0b101
    assert int(total.perm[0b111]) == 0b111
    assert int(total.perm[0b001]) == 0b110


def test_hamming_identity_when_sets_match():
    partial = _partial(2, {1: 1})
    total = embed.complete_onto_hamming(partial)
    assert total.perm.tolist() == [0, 1, 2, 3]


def test_completion_deadline_stops_pass_two():
    partial = _partial(3, {0: 0, 2: 1, 3: 2, 4: 4, 5: 5, 6: 7})  # leftover inputs 001, 111
    past, future = time.monotonic() - 1, time.monotonic() + 60
    with pytest.raises(SynthesisTimeout, match="completion gave up at leftover row 0 of 2"):
        embed.complete_onto_hamming(partial, deadline=past)
    total = embed.complete_onto_hamming(partial, deadline=future)
    assert total.perm.tolist() == embed.complete_onto_hamming(partial).perm.tolist()
    # Pass 1 and the naive pairing are single linear passes and do not check it.
    matched = _partial(2, {1: 1})
    assert embed.complete_onto_hamming(matched, deadline=past).perm.tolist() == [0, 1, 2, 3]
    assert embed.complete_onto_naive(partial, deadline=past).is_bijection()


def test_is_bijection_needs_every_row_once():
    assert not _partial(2, {0: 1, 1: 0}).is_bijection()  # rows 2 and 3 unspecified
    assert not embed.ReversibleSpec(1, [0, 0]).is_bijection()
    assert embed.ReversibleSpec(2, [3, 2, 1, 0]).is_bijection()


def test_finish_report_counts_completed_rows():
    partial = _partial(2, {1: 1})
    total = embed.complete_onto_hamming(partial)
    report = embed.EmbeddingReport(d=1, v=0, w=0, n_total=2, specified_rows=1)
    assert embed.finish_report(report, partial, total) is report
    assert (report.completed_rows, report.identical_pairings) == (3, 3)


def test_report_fields():
    spec = spec_of(2, 1, {0b00: 0, 0b01: 0, 0b10: 1, 0b11: 0})
    partial, report = embed.rtt_embed(spec)
    embed.finish_report(report, partial, embed.complete_onto_hamming(partial))
    doc = dataclasses.asdict(report)
    assert list(doc) == [
        "d", "v", "w", "n_total", "specified_rows", "completed_rows",
        "identical_pairings",
    ]
    assert doc["completed_rows"] == 4 and doc["d"] == 3


@st.composite
def random_specs(draw, max_n=6, max_m=6):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    minterms = draw(
        st.lists(st.integers(0, (1 << n) - 1), unique=True, min_size=1, max_size=1 << n)
    )
    values = draw(
        st.lists(
            st.integers(0, (1 << m) - 1), min_size=len(minterms), max_size=len(minterms)
        )
    )
    return pla.SpecTable(n, m, {x: (v, 0) for x, v in zip(minterms, values)})


@settings(max_examples=80, deadline=None)
@given(random_specs())
def test_rtt_report_formulas_and_injectivity(spec):
    partial, report = embed.rtt_embed(spec)
    d = embed.max_output_multiplicity(spec)
    assert report.d == d
    assert report.v == (0 if d <= 1 else (d - 1).bit_length())
    assert report.w == max(0, report.v + spec.m - spec.n)
    assert report.n_total == max(spec.n + report.w, spec.m + report.v)
    if report.v + spec.m - spec.n >= 0:
        assert spec.n + report.w == spec.m + report.v
    specified = partial.perm[partial.perm != embed.UNSPECIFIED]
    assert len(set(specified.tolist())) == len(specified)

    # Projection: ancilla-zero rows reproduce the source function bits.
    pad = report.n_total - spec.m - report.v
    for x, (value, _) in spec.entries.items():
        out = int(partial.perm[x << report.w])
        assert out >> (report.v + pad) == value


@settings(max_examples=60, deadline=None)
@given(random_specs(max_n=5, max_m=5), st.booleans())
def test_completions_produce_bijections(spec, use_hamming):
    partial, _ = embed.rtt_embed(spec)
    complete = embed.complete_onto_hamming if use_hamming else embed.complete_onto_naive
    total = complete(partial)
    assert total.is_bijection()
    # Completion never rewrites a specified row.
    for x in range(1 << partial.width):
        if partial.perm[x] != embed.UNSPECIFIED:
            assert total.perm[x] == partial.perm[x]


@settings(max_examples=60, deadline=None)
@given(random_specs(max_n=5, max_m=5))
def test_hamming_pass_one_property(spec):
    partial, _ = embed.rtt_embed(spec)
    used_out = set(partial.perm[partial.perm != embed.UNSPECIFIED].tolist())
    total = embed.complete_onto_hamming(partial)
    for x in range(1 << partial.width):
        if partial.perm[x] == embed.UNSPECIFIED and x not in used_out:
            assert int(total.perm[x]) == x
