"""Transformation-based synthesis of minimal-qubit reversible cascades.

The synthesizer walks the truth table in ascending input order and, per row,
chooses Toffoli gates that fix the row's output pattern without disturbing
earlier rows; the collected cascade, reversed, realizes the permutation.  The
table is bit-planes, one Python int per qubit with one bit per position, and
the residual map sends ``sources[p]`` to ``values[p]``: a gate XORs the AND of
its control planes into its target plane in ``values`` (output side) or
``sources`` (input side).  Positions of fixed rows are dropped in bulk.
"""
from __future__ import annotations

import time

from .circuit import Circuit, _from_msb_first, _qubits, mcx
from .embed import ReversibleSpec
from .errors import GateLimitExceeded, QOracleError, SynthesisTimeout
from .sim import _keep_bits, _transpose

UNIDIRECTIONAL = "unidirectional"
BIDIRECTIONAL = "bidirectional"

#: Most gates one synthesis may emit before it gives up.
GATE_LIMIT = 50_000

#: Rows between two drops of the fixed rows' positions.
_DROP_EVERY = 256


def _cost(value: int, row: int) -> tuple[int, int]:
    """Gate count and total control count of the gates ``_fix`` emits."""
    add, drop = (row & ~value).bit_count(), (value & ~row).bit_count()
    return add + drop, add * value.bit_count() + add * (add - 1) // 2 + drop * row.bit_count()


def _controls(planes: list[int], mask: int, full: int) -> int:
    """The positions where every plane in ``mask`` is set."""
    for q in _qubits(mask):
        full &= planes[q]
    return full


def _find(planes: list[int], value: int, full: int) -> int:
    """The position whose planes spell ``value``."""
    ones, zeros = full, 0
    for plane in planes:
        if value & 1:
            ones &= plane
        else:
            zeros |= plane
        value >>= 1
    return (ones ^ ones & zeros).bit_length() - 1


def _lowest(planes: list[int], among: int) -> int:
    """The position in ``among`` whose planes spell the lowest value (plane 0 is the top bit)."""
    for plane in planes:
        among = (among ^ among & plane) or among
    return among.bit_length() - 1


def _read(planes: list[int], at: int) -> int:
    """The value the planes spell at position ``at``."""
    value = 0
    for plane in reversed(planes):
        value = value << 1 | plane >> at & 1
    return value


def _fix(planes: list[int], value: int, row: int, full: int, gates: list) -> None:
    """Turn ``value`` into ``row``, in ascending qubit order: set missing bits under the
    growing value, then clear extra bits under the row; append (target, controls) to ``gates``.
    """
    fire = _controls(planes, value, full)
    for q in _qubits(row & ~value):
        planes[q] ^= fire
        gates.append((q, value))
        fire &= planes[q]
        value |= 1 << q
    fire = _controls(planes, row, full)
    for q in _qubits(value & ~row):
        planes[q] ^= fire
        gates.append((q, row))


def tbs_synthesize(spec: ReversibleSpec, *, direction: str = UNIDIRECTIONAL,
                   deadline: float | None = None) -> Circuit:
    """Synthesize an MCT cascade realizing the given permutation table.

    ``deadline`` is a ``time.monotonic()`` value; rows are abandoned with
    ``SynthesisTimeout`` once it passes.
    """
    if direction not in (UNIDIRECTIONAL, BIDIRECTIONAL):
        raise ValueError(f"unknown direction {direction!r}")
    if not spec.is_bijection():
        raise QOracleError("TBS needs a total bijection; complete the table first")
    width, size = spec.width, 1 << spec.width
    # Bit p of plane q is qubit q at position p, which starts as row p; values are qubit masks.
    rows = [y << width | x for x, y in enumerate(spec.perm.tolist())]
    planes = _transpose(rows[::-1], 2 * width)
    values, sources = planes[:width], planes[width:]
    live = full = (1 << size) - 1  # live: the positions of rows that may still move
    row, drop_at = 0, _DROP_EVERY
    out_gates, in_gates = [], []
    while True:
        if row >= drop_at:
            planes = _keep_bits(values + sources, live, full.bit_length())
            values, sources = planes[:width], planes[width:]
            live = full = (1 << live.bit_count()) - 1
            drop_at = row + _DROP_EVERY
        want = _from_msb_first(row, width)
        at = _find(sources, want, full)
        value = _read(values, at)
        if value == want:
            # Skip to the lowest row still moved; skipped rows keep their inert positions.
            live ^= 1 << at
            moved = 0
            for v, s in zip(values, sources):
                moved |= v ^ s
            if not moved:
                break
            at = _lowest(sources, moved)
            want, value = _read(sources, at), _read(values, at)
            row = _from_msb_first(want, width)
        if deadline is not None and time.monotonic() > deadline:
            raise SynthesisTimeout(f"gave up at row {row} of {size}")
        planes, gates = values, out_gates
        if direction == BIDIRECTIONAL:
            at_in = _find(values, want, full)
            source = _read(sources, at_in)
            if _cost(source, want) < _cost(value, want):
                value, planes, gates, at = source, sources, in_gates, at_in
        if len(out_gates) + len(in_gates) + (value ^ want).bit_count() > GATE_LIMIT:
            raise GateLimitExceeded(f"over {GATE_LIMIT} gates at row {row} of {size}")
        _fix(planes, value, want, full, gates)
        live ^= 1 << at
        row += 1

    gates = [mcx(q, pos) for q, pos in in_gates + out_gates[::-1]]
    return Circuit(width=width, gates=gates, roles_in=spec.roles_in, roles_out=spec.roles_out,
                   method="tbs-bidirectional" if direction == BIDIRECTIONAL else "tbs")
