"""Embedding of irreversible minterm tables into total bijections.

The reversible-table embedding proceeds in two stages: first duplicated
outputs are differentiated with garbage counter bits and ancilla inputs,
then the remaining unspecified rows are paired off so the map becomes a
permutation on all 2^N bit patterns.
"""
from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import QOracleError, SynthesisTimeout, TooWide
from .pla import EXPANSION_LIMIT, SpecTable, _fill

UNSPECIFIED = -1

RESOLVE_ZEROS = "zeros"
RESOLVE_MIN_DUPLICATION = "min-duplication"

ROLE_INPUT = "input"
ROLE_ANCILLA = "ancilla"
ROLE_OUTPUT = "output"
ROLE_GARBAGE = "garbage"


@dataclass
class EmbeddingReport:
    """Size accounting for one embedding: D, v, w and the total width."""

    d: int
    v: int
    w: int
    n_total: int
    specified_rows: int
    completed_rows: int = 0
    identical_pairings: int = 0


@dataclass
class ReversibleSpec:
    """A (partial) permutation on 2^width bit patterns with qubit roles."""

    width: int
    perm: np.ndarray
    roles_in: tuple[str, ...] = ()
    roles_out: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.perm = np.asarray(self.perm, dtype=np.int64)
        if self.perm.shape != (1 << self.width,):
            raise ValueError("permutation array must have 2^width entries")
        if not self.roles_in:
            self.roles_in = (ROLE_INPUT,) * self.width
        if not self.roles_out:
            self.roles_out = (ROLE_OUTPUT,) * self.width

    def is_bijection(self) -> bool:
        """Whether every row is specified and the rows form a permutation."""
        return bool(np.array_equal(np.sort(self.perm), np.arange(1 << self.width)))


def max_output_multiplicity(spec: SpecTable) -> int:
    """Largest number of specified minterms sharing one output pattern."""
    if spec.has_dontcares():
        raise QOracleError("resolve don't-care output bits first")
    if not spec.entries:
        return 0
    counts = Counter(value for value, _ in spec.entries.values())
    return max(counts.values())


def resolve_dontcares(spec: SpecTable, policy: str = RESOLVE_ZEROS) -> SpecTable:
    """Assign every don't-care output bit.

    ``zeros`` clears them; ``min-duplication`` walks rows in ascending
    minterm order and gives each one the completion whose pattern currently
    has the lowest multiplicity, ties toward the all-zero assignment.
    """
    if policy not in (RESOLVE_ZEROS, RESOLVE_MIN_DUPLICATION):
        raise ValueError(f"unknown policy {policy!r}")
    if not spec.has_dontcares():
        return spec
    entries: dict[int, tuple[int, int]] = {}
    if policy == RESOLVE_ZEROS:
        for x, (value, _) in spec.entries.items():
            entries[x] = (value, 0)
        return SpecTable(n=spec.n, m=spec.m, entries=entries)
    counts = Counter(
        value for value, dc in spec.entries.values() if dc == 0
    )
    for x in sorted(spec.entries):
        value, dc = spec.entries[x]
        if dc == 0:
            entries[x] = (value, 0)
            continue
        chosen = min(_fill(value, dc), key=lambda c: (counts[c], c))
        counts[chosen] += 1
        entries[x] = (chosen, 0)
    return SpecTable(n=spec.n, m=spec.m, entries=entries)


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
    perm = np.full(1 << n_total, UNSPECIFIED, dtype=np.int64)
    next_g: Counter[int] = Counter()
    for x in sorted(spec.entries):
        value, dc = spec.entries[x]
        if dc:
            raise QOracleError("resolve don't-care output bits first")
        g = next_g[value]
        next_g[value] += 1
        perm[x << w] = (value << (v + pad)) | (g << pad)
    roles_in = (ROLE_INPUT,) * spec.n + (ROLE_ANCILLA,) * w
    roles_out = (ROLE_OUTPUT,) * spec.m + (ROLE_GARBAGE,) * (v + pad)
    report = EmbeddingReport(
        d=d, v=v, w=w, n_total=n_total, specified_rows=len(spec.entries)
    )
    return ReversibleSpec(n_total, perm, roles_in, roles_out), report


def _unused(partial: ReversibleSpec) -> tuple[list[int], list[int]]:
    size = 1 << partial.width
    unused_in = np.flatnonzero(partial.perm == UNSPECIFIED)
    used_out = partial.perm[partial.perm != UNSPECIFIED]
    if len(set(used_out.tolist())) != len(used_out):
        raise ValueError("partial map is not injective")
    out_mask = np.ones(size, dtype=bool)
    out_mask[used_out] = False
    return unused_in.tolist(), np.flatnonzero(out_mask).tolist()


def complete_onto_naive(partial: ReversibleSpec, *,
                        deadline: float | None = None) -> ReversibleSpec:
    """Pair unused inputs and outputs in ascending order, first to first.

    This is one linear pass, so ``deadline`` is not checked.
    """
    unused_in, unused_out = _unused(partial)
    perm = partial.perm.copy()
    for p, q in zip(unused_in, unused_out):
        perm[p] = q
    return ReversibleSpec(partial.width, perm, partial.roles_in, partial.roles_out)


def complete_onto_hamming(partial: ReversibleSpec, *,
                          deadline: float | None = None) -> ReversibleSpec:
    """Pair unused inputs to the closest unused outputs.

    Pass 1 maps every unused input that is itself an unused output to
    itself; pass 2 gives the leftovers, in ascending order, the unused
    output at minimal Hamming distance (ties to the smallest value).
    ``deadline`` is a ``time.monotonic()`` value, checked every 256
    leftover rows of pass 2; once it passes, ``SynthesisTimeout`` is raised.
    """
    unused_in, unused_out = _unused(partial)
    perm = partial.perm.copy()
    out_set = set(unused_out)
    leftover_in = []
    for p in unused_in:
        if p in out_set:
            perm[p] = p
            out_set.remove(p)
        else:
            leftover_in.append(p)
    remaining = sorted(out_set)
    for i, p in enumerate(leftover_in):
        if not i % 256 and deadline is not None and time.monotonic() > deadline:
            raise SynthesisTimeout(f"completion gave up at leftover row {i} of {len(leftover_in)}")
        best = min(remaining, key=lambda q: ((p ^ q).bit_count(), q))
        remaining.remove(best)
        perm[p] = best
    return ReversibleSpec(partial.width, perm, partial.roles_in, partial.roles_out)


def finish_report(
    report: EmbeddingReport, partial: ReversibleSpec, total: ReversibleSpec
) -> EmbeddingReport:
    """Count, in place, the rows the completion filled and those it fixed."""
    holes = np.flatnonzero(partial.perm == UNSPECIFIED)
    report.completed_rows = len(holes)
    report.identical_pairings = int((total.perm[holes] == holes).sum())
    return report
