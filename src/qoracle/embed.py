"""Embedding of irreversible minterm tables into total bijections.

The reversible-table embedding proceeds in two stages: first duplicated
outputs are differentiated with garbage counter bits and ancilla inputs,
then the remaining unspecified rows are paired off so the map becomes a
permutation on all 2^N bit patterns.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .circuit import ROLE_ANCILLA, ROLE_GARBAGE, ROLE_INPUT, ROLE_OUTPUT
from .errors import QOracleError, TooWide
from .pla import EXPANSION_LIMIT, UNSPECIFIED, SpecTable, _fill


@dataclass(frozen=True)
class EmbeddingReport:
    """Size accounting for one embedding: D, v, w and the total width."""

    d: int
    v: int
    w: int
    n_total: int
    specified_rows: int
    completed_rows: int = 0
    identical_pairings: int = 0


@dataclass(frozen=True)
class ReversibleSpec:
    """A (partial) permutation on 2^width bit patterns with qubit roles.

    Frozen, so ``width`` and ``perm`` cannot be rebound past the shape check.
    """

    width: int
    perm: np.ndarray
    roles_in: tuple[str, ...] = ()
    roles_out: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "perm", np.asarray(self.perm, dtype=np.int64))
        if self.perm.shape != (1 << self.width,):
            raise ValueError("permutation array must have 2^width entries")
        object.__setattr__(self, "roles_in", tuple(self.roles_in) or (ROLE_INPUT,) * self.width)
        object.__setattr__(self, "roles_out", tuple(self.roles_out) or (ROLE_OUTPUT,) * self.width)

    def is_bijection(self) -> bool:
        """Whether every row is specified and the rows form a permutation."""
        return bool(np.array_equal(np.sort(self.perm), np.arange(1 << self.width)))


def max_output_multiplicity(spec: SpecTable) -> int:
    """Largest number of specified minterms sharing one output pattern."""
    if spec.has_dontcares():
        raise QOracleError("resolve don't-care output bits first")
    values = spec.entries[spec.entries != UNSPECIFIED]
    return int(np.unique(values, return_counts=True)[1].max()) if len(values) else 0


def resolve_dontcares(spec: SpecTable, *, min_duplication: bool = False) -> SpecTable:
    """Assign every don't-care output bit.

    By default they are cleared.  ``min_duplication`` walks the rows with
    don't-cares in ascending minterm order and gives each one the completion
    whose pattern currently has the lowest multiplicity, ties toward the
    all-zero assignment.  Completions come in ascending order, so the first
    pattern not yet used wins outright; only a row whose every completion is
    taken compares them all.
    """
    if not spec.has_dontcares():
        return spec
    entries = spec.entries.copy()
    if min_duplication:
        rows = np.flatnonzero(spec.dc)
        counts = Counter(spec.entries[(spec.dc == 0) & (spec.entries != UNSPECIFIED)].tolist())
        for x, value, dc in zip(rows.tolist(), entries[rows].tolist(), spec.dc[rows].tolist()):
            chosen = next((c for c in _fill(value, dc) if not counts[c]), None)
            if chosen is None:
                chosen = min(_fill(value, dc), key=lambda c: (counts[c], c))
            counts[chosen] += 1
            entries[x] = chosen
    return SpecTable(spec.n, spec.m, entries, np.zeros_like(spec.dc))


def rtt_embed(spec: SpecTable) -> tuple[ReversibleSpec, EmbeddingReport]:
    """Differentiate duplicated outputs with garbage counters.

    Ancilla columns sit after the function inputs, garbage counters after the
    function outputs (extra pad garbage keeps both sides the same width when
    the inputs outnumber output-plus-counter bits).  Every specified minterm x
    lands on the ancilla=0 row (x||0) -> (f(x)||g), where g counts duplicates
    of f(x) in ascending minterm order.  Rows with nonzero ancilla stay
    unspecified.
    """
    d = max_output_multiplicity(spec)
    v = (d - 1).bit_length() if d >= 2 else 0
    w = max(0, v + spec.m - spec.n)
    n_total = max(spec.n + w, spec.m + v)
    if n_total > EXPANSION_LIMIT:
        raise TooWide(
            f"embedding needs {n_total} bits, over the expansion limit of {EXPANSION_LIMIT}"
        )
    pad = n_total - spec.m - v
    xs = spec.specified()
    values = spec.entries[xs]
    # A stable sort by value keeps each value's minterms ascending, so g is a
    # minterm's place in the sorted order minus the place of its value's first.
    order = np.argsort(values, kind="stable")
    xs, values = xs[order], values[order]
    g = np.arange(len(xs)) - np.searchsorted(values, values)
    perm = np.full(1 << n_total, UNSPECIFIED, dtype=np.int64)
    perm[xs << w] = values << (v + pad) | g << pad
    roles_in = (ROLE_INPUT,) * spec.n + (ROLE_ANCILLA,) * w
    roles_out = (ROLE_OUTPUT,) * spec.m + (ROLE_GARBAGE,) * (v + pad)
    report = EmbeddingReport(d=d, v=v, w=w, n_total=n_total, specified_rows=len(xs))
    return ReversibleSpec(n_total, perm, roles_in, roles_out), report


def reexpress(total: ReversibleSpec, report: EmbeddingReport, m: int) -> SpecTable:
    """A completed embedding as a fully specified (n+w)-input, (m+v)-output table.

    Each row keeps the function outputs and counters and drops the pad garbage.
    """
    pad = report.n_total - m - report.v
    return SpecTable(report.n_total, m + report.v, total.perm >> pad, np.zeros_like(total.perm))


def _unused(partial: ReversibleSpec) -> tuple[np.ndarray, np.ndarray]:
    """The unspecified inputs and the outputs no row reaches, both ascending."""
    used_out = partial.perm[partial.perm != UNSPECIFIED]
    free_out = np.ones(1 << partial.width, dtype=bool)
    free_out[used_out] = False
    if free_out.sum() + len(used_out) != len(free_out):
        raise ValueError("partial map is not injective")
    return np.flatnonzero(partial.perm == UNSPECIFIED), np.flatnonzero(free_out)


def complete_onto_naive(partial: ReversibleSpec) -> ReversibleSpec:
    """Pair unused inputs and outputs in ascending order, first to first."""
    unused_in, unused_out = _unused(partial)
    perm = partial.perm.copy()
    perm[unused_in] = unused_out
    return ReversibleSpec(partial.width, perm, partial.roles_in, partial.roles_out)


def complete_onto_hamming(partial: ReversibleSpec) -> ReversibleSpec:
    """Pair unused inputs to the closest unused outputs.

    Pass 1 maps every unused input that is itself an unused output to
    itself; pass 2 gives the leftovers, in ascending order, the unused
    output at minimal Hamming distance (ties to the smallest value), one
    numpy scan over the remaining outputs per leftover.
    """
    unused_in, unused_out = _unused(partial)
    perm = partial.perm.copy()
    fixed = np.isin(unused_in, unused_out)
    perm[unused_in[fixed]] = unused_in[fixed]
    leftover_in = unused_in[~fixed].tolist()
    remaining = unused_out[~np.isin(unused_out, unused_in)]
    # Distances fit in 7 bits, so the top bit marks a taken output; argmin
    # returns the first minimum, which is the smallest value.
    taken = np.zeros(len(remaining), dtype=np.uint8)
    for p in leftover_in:
        best = int((np.bitwise_count(remaining ^ p) | taken).argmin())
        taken[best] = 0x80
        perm[p] = remaining[best]
    return ReversibleSpec(partial.width, perm, partial.roles_in, partial.roles_out)


def finish_report(
    report: EmbeddingReport, partial: ReversibleSpec, total: ReversibleSpec
) -> EmbeddingReport:
    """``report`` with the rows the completion filled and those it fixed counted."""
    holes = np.flatnonzero(partial.perm == UNSPECIFIED)
    return replace(report, completed_rows=len(holes),
                   identical_pairings=int((total.perm[holes] == holes).sum()))
