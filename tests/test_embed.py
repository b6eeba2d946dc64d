"""Embedding: multiplicity, don't-care resolution, RTT and onto-completion."""
from __future__ import annotations

import dataclasses
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoracle import cli, embed, pla
from qoracle.errors import QOracleError, SynthesisTimeout, TooWide

from conftest import spec_rows, spec_table


def spec_of(n, m, mapping):
    return spec_table(n, m, {x: (y, 0) for x, y in mapping.items()})


def test_multiplicity_counts_duplicates():
    spec = spec_of(2, 1, {0b00: 0, 0b01: 0, 0b10: 1, 0b11: 0})
    assert embed.max_output_multiplicity(spec) == 3


def test_multiplicity_injective_and_empty():
    assert embed.max_output_multiplicity(spec_of(2, 2, {0: 1, 1: 2, 2: 3, 3: 0})) == 1
    assert embed.max_output_multiplicity(spec_table(2, 1, {})) == 0


def test_multiplicity_requires_resolution():
    spec = spec_table(1, 1, {0: (0, 1)})
    with pytest.raises(QOracleError, match="resolve don't-care output bits first"):
        embed.max_output_multiplicity(spec)


def test_resolve_zeros():
    resolved = embed.resolve_dontcares(spec_table(1, 1, {0: (0, 1)}))
    assert resolved.entries.tolist() == [0, pla.UNSPECIFIED] and resolved.dc.tolist() == [0, 0]


def test_resolve_rejects_unknown_policy():
    # The flag is keyword-only, so a policy string cannot read as true.
    with pytest.raises(TypeError):
        embed.resolve_dontcares(spec_table(1, 1, {0: (0, 1)}), "min-duplication")


def test_resolve_min_duplication_avoids_crowded_pattern():
    # Rows 00 and 10 already use pattern 01 twice, so the free bit of the
    # 0- row must complete to 00.
    spec = spec_table(2, 2, {0b00: (0b01, 0), 0b01: (0b00, 0b01), 0b10: (0b01, 0)})
    resolved = embed.resolve_dontcares(spec, min_duplication=True)
    assert spec_rows(resolved)[0b01] == (0b00, 0)


def reference_min_duplication(spec):
    """Min-duplication on dict rows, ``min`` over all completions of each row with don't-cares."""
    rows = spec_rows(spec)
    counts = Counter(value for value, dc in rows.values() if not dc)
    resolved = {}
    for x, (value, dc) in rows.items():
        if dc:
            value = min(pla._fill(value, dc), key=lambda c: (counts[c], c))
            counts[value] += 1
        resolved[x] = (value, 0)
    return resolved


@st.composite
def dontcare_specs(draw):
    """Tables with few outputs and many don't-cares, so some rows find every completion taken."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    word = st.integers(0, (1 << m) - 1)
    rows = draw(st.dictionaries(st.integers(0, (1 << n) - 1), st.tuples(word, word)))
    return spec_table(n, m, {x: (value & ~dc, dc) for x, (value, dc) in rows.items()})


@settings(max_examples=150, deadline=None)
@given(dontcare_specs())
def test_min_duplication_matches_brute_force_min(spec):
    resolved = embed.resolve_dontcares(spec, min_duplication=True)
    assert spec_rows(resolved) == reference_min_duplication(spec)
    assert not resolved.has_dontcares()


def test_min_duplication_finishes_rows_of_40_dontcares():
    # Each row has 2^40 completions; the first unused one is taken without looking further.
    table = pla.parse_pla(".i 3\n.o 40\n--- " + "-" * 40 + "\n.e\n")
    resolved = embed.resolve_dontcares(pla.expand(table), min_duplication=True)
    assert resolved.entries.tolist() == list(range(8)) and not resolved.has_dontcares()


def test_min_duplication_stops_at_the_deadline():
    # Every row completes one of 16 patterns, so from row 16 on each row compares all 16.
    table = pla.PlaTable(n=20, m=4, cubes=[(0, 0, 0, 0b1111)])
    started = time.monotonic()
    with pytest.raises(SynthesisTimeout,
                       match=r"^gave up after 0\.5 s in qoracle\.embed\.resolve_dontcares$"):
        cli._run_with_timeout(0.5, table, "esop-rtt", dc_minimize=True)
    assert time.monotonic() - started < 2


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
    spec = spec_table(3, 1, {0b000: (0, 0), 0b111: (1, 0)})
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
    # Pass 2 gives 001 the closer of the unused outputs 011 and 110, and 111 the other.
    total = embed.complete_onto_hamming(partial)
    assert total.perm.tolist() == [0, 0b011, 1, 2, 4, 5, 7, 0b110]
    matched = _partial(2, {1: 1})
    assert embed.complete_onto_hamming(matched).perm.tolist() == [0, 1, 2, 3]
    assert embed.complete_onto_naive(partial).is_bijection()


def reference_complete_onto_hamming(partial):
    """Hamming completion on Python lists: ``min`` over the remaining outputs per leftover row."""
    perm = partial.perm.copy()
    unused_in = [p for p in range(1 << partial.width) if perm[p] == embed.UNSPECIFIED]
    out_set = set(range(1 << partial.width)) - set(perm[perm != embed.UNSPECIFIED].tolist())
    leftover_in = []
    for p in unused_in:
        if p in out_set:
            perm[p] = p
            out_set.remove(p)
        else:
            leftover_in.append(p)
    remaining = sorted(out_set)
    for p in leftover_in:
        best = min(remaining, key=lambda q: ((p ^ q).bit_count(), q))
        remaining.remove(best)
        perm[p] = best
    return perm


def _holes(rng, width, free_in, free_out):
    """A partial map leaving inputs ``free_in`` and outputs ``free_out`` unused."""
    size = 1 << width
    perm = np.full(size, embed.UNSPECIFIED, dtype=np.int64)
    ins = np.setdiff1d(np.arange(size), free_in)
    perm[ins] = rng.permutation(np.setdiff1d(np.arange(size), free_out))
    return embed.ReversibleSpec(width, perm)


@pytest.mark.parametrize("width", range(3, 13))
def test_hamming_completion_matches_list_reference(width):
    rng = np.random.default_rng(width)
    size = 1 << width
    weight = np.array([bin(v).count("1") for v in range(size)])
    for _ in range(4):
        holes = int(rng.integers(1, min(size, 300) + 1))
        # Random holes, where pass 1 pairs the inputs that are also unused outputs.
        scattered = _holes(rng, width, rng.choice(size, holes, replace=False),
                           rng.choice(size, holes, replace=False))
        # Tie-heavy: the unused outputs are all of one weight and no unused
        # input is among them, so most leftovers have several nearest outputs.
        ring = np.flatnonzero(weight == rng.integers(1, width))[:holes]
        others = np.setdiff1d(np.arange(size), ring)
        tied = _holes(rng, width, rng.choice(others, len(ring), replace=False), ring)
        for partial in (scattered, tied):
            total = embed.complete_onto_hamming(partial)
            assert total.perm.tolist() == reference_complete_onto_hamming(partial).tolist()


def test_is_bijection_needs_every_row_once():
    assert not _partial(2, {0: 1, 1: 0}).is_bijection()  # rows 2 and 3 unspecified
    assert not embed.ReversibleSpec(1, [0, 0]).is_bijection()
    assert embed.ReversibleSpec(2, [3, 2, 1, 0]).is_bijection()


def test_reversible_spec_cannot_be_reshaped_after_it_is_built():
    spec = embed.ReversibleSpec(2, [3, 2, 1, 0])
    for name, value in (("width", 5), ("perm", np.arange(8)), ("roles_in", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, value)
    assert spec.width == 2 and spec.perm.tolist() == [3, 2, 1, 0]
    assert spec.roles_in == ("input",) * 2 and spec.roles_out == ("output",) * 2
    with pytest.raises(ValueError, match="2\\^width entries"):
        embed.ReversibleSpec(5, spec.perm)
    # A caller's role list is copied into a tuple.
    roles = ["input", "ancilla"]
    spec = embed.ReversibleSpec(2, [3, 2, 1, 0], roles)
    roles.pop()
    assert spec.roles_in == ("input", "ancilla")


def test_finish_report_counts_completed_rows():
    partial = _partial(2, {1: 1})
    total = embed.complete_onto_hamming(partial)
    report = embed.EmbeddingReport(d=1, v=0, w=0, n_total=2, specified_rows=1)
    finished = embed.finish_report(report, partial, total)
    assert (finished.completed_rows, finished.identical_pairings) == (3, 3)
    assert (report.completed_rows, report.identical_pairings) == (0, 0)


def test_report_fields():
    spec = spec_of(2, 1, {0b00: 0, 0b01: 0, 0b10: 1, 0b11: 0})
    partial, report = embed.rtt_embed(spec)
    report = embed.finish_report(report, partial, embed.complete_onto_hamming(partial))
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
    return spec_table(n, m, {x: (v, 0) for x, v in zip(minterms, values)})


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
    for x, (value, _) in spec_rows(spec).items():
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
