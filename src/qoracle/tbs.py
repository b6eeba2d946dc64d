"""Transformation-based synthesis of minimal-qubit reversible cascades.

The synthesizer walks the truth table in ascending input order and, per row,
chooses Toffoli gates that fix the row's output pattern without disturbing
earlier rows; the collected cascade, reversed, realizes the permutation.  The
table is bit-planes, one Python int per qubit with one bit per position, and
the residual map sends ``sources[p]`` to ``values[p]``: a gate XORs the AND of
its control planes into its target plane in ``values`` (output side) or
``sources`` (input side).  No gate moves a position, and no later gate fires
at a fixed row's position.  A row's gates all fire where the planes of the
bits its value and the row share are set, so ``_fix`` ANDs those once, and
walks each mask through ``_split``'s tables of half-mask qubits.

A unidirectional run never touches ``sources``, so row r sits at position r
and is read there inline, one plane bit at a time.  The rows below it are
fixed; once ``_SHIFT_AT`` of them have gathered, every plane is shifted right
past them, so later gates no longer walk over them.  A bidirectional run
keeps every position and searches the planes for each row and for its
preimage.  The planes come from ``sim._planes``, which verification uses too.
"""
from __future__ import annotations

import numpy as np

from .circuit import Circuit, _from_msb_first, mcx
from .embed import ReversibleSpec
from .errors import GateLimitExceeded, QOracleError
from .sim import _planes

#: The two directions, which are also the pipeline's method names.
UNIDIRECTIONAL = "tbs"
BIDIRECTIONAL = "tbs-bidirectional"

#: Most gates one synthesis may emit before it gives up.
GATE_LIMIT = 50_000

#: Fixed rows a unidirectional run lets gather below the current row before
#: it shifts them out of the planes.
_SHIFT_AT = 64


def _cost(value: int, row: int) -> tuple[int, int]:
    """Gate count and total control count of the gates ``_fix`` emits."""
    add, drop = (row & ~value).bit_count(), (value & ~row).bit_count()
    return add + drop, add * value.bit_count() + add * (add - 1) // 2 + drop * row.bit_count()


def _split(width: int) -> tuple[int, int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """``half``, ``lows`` and tables ``low`` and ``high`` of half-mask qubits: the qubits
    of a ``width``-qubit ``mask`` are ``low[mask & lows]`` then ``high[mask >> half]``."""
    half = width >> 1
    low = [tuple(q for q in range(half) if m >> q & 1) for m in range(1 << half)]
    high = [tuple(q for q in range(half, width) if m >> q - half & 1)
            for m in range(1 << width - half)]
    return half, (1 << half) - 1, low, high


def _find(planes: list[int], value: int, full: int) -> int:
    """The position whose planes spell ``value``.

    Each step keeps the positions of ``full`` whose bit in one plane matches
    ``value``; every value sits at exactly one position, so one is left.
    """
    among = full
    for plane in planes:
        among = among & plane if value & 1 else among ^ among & plane
        value >>= 1
    return among.bit_length() - 1


def _lowest(planes: list[int], among: int) -> int:
    """The position in ``among`` whose planes spell the lowest value (plane 0 is the top bit)."""
    for plane in planes:
        among = (among ^ among & plane) or among
    return among.bit_length() - 1


def _read(planes: list[int], at: int, full: int) -> int:
    """The value the planes spell at position ``at`` of the ``full`` positions.

    ``plane & (1 << at)`` costs O(at) and ``plane >> at`` costs O(size - at),
    so the read works from the nearer end of the planes.
    """
    value = 0
    if at < full.bit_length() >> 1:
        bit = 1 << at
        for q, plane in enumerate(planes):
            if plane & bit:
                value |= 1 << q
    else:
        for q, plane in enumerate(planes):
            value |= (plane >> at & 1) << q
    return value


def _fix(planes: list[int], value: int, row: int, full: int, gates: list, split: tuple) -> None:
    """Turn ``value`` into ``row``, in ascending qubit order: set missing bits under the
    growing value, then clear extra bits under the row; append (target, controls) to ``gates``.

    Both phases fire where the planes of ``value & row`` are set, and neither
    writes them, so they are ANDed once into ``shared``.  Each set bit's fresh
    plane joins ``shared``, which then is where the row's planes are all set.
    """
    half, lows, low, high = split
    both, extra = value & row, value & ~row
    shared = full
    for q in low[both & lows] + high[both >> half]:
        shared &= planes[q]
    drop = low[extra & lows] + high[extra >> half]
    add = row & ~value
    if add:
        fire = shared
        for q in drop:
            fire &= planes[q]
        for q in low[add & lows] + high[add >> half]:
            planes[q] ^= fire
            gates.append((q, value))
            fire &= planes[q]
            shared &= planes[q]
            value |= 1 << q
    for q in drop:
        planes[q] ^= shared
        gates.append((q, row))


def tbs_synthesize(spec: ReversibleSpec, *, direction: str = UNIDIRECTIONAL,
                   source: str = "") -> Circuit:
    """Synthesize an MCT cascade realizing the given permutation table."""
    if direction not in (UNIDIRECTIONAL, BIDIRECTIONAL):
        raise ValueError(f"unknown direction {direction!r}")
    if not spec.is_bijection():
        raise QOracleError("TBS needs a total bijection; complete the table first")
    width, size = spec.width, 1 << spec.width
    # Bit p of plane q is qubit q at position p, which starts as row p; values are qubit masks.
    values, sources = _planes(spec.perm, width), _planes(np.arange(size), width)
    unidirectional = direction == UNIDIRECTIONAL
    # Positions are relative to ``base``, which only a unidirectional run moves;
    # ``want`` is ``row`` as a qubit mask.
    full, row, base, want = (1 << size) - 1, 0, 0, 0
    split = _split(width)
    out_gates, in_gates = [], []
    while True:
        if unidirectional and row - base >= _SHIFT_AT:
            # Every position below ``row`` holds a fixed row, where no later gate fires.
            shift, base = row - base, row
            values = [plane >> shift for plane in values]
            sources = [plane >> shift for plane in sources]
            full >>= shift
        if unidirectional:
            # Position ``row - base`` is below ``_SHIFT_AT``, so each test is one word.
            bit, value = 1 << row - base, 0
            for q, plane in enumerate(values):
                if plane & bit:
                    value |= 1 << q
        else:
            value = _read(values, _find(sources, want, full), full)
        if value == want:
            # Skip to the lowest row still moved.
            moved = 0
            for v, s in zip(values, sources):
                moved |= v ^ s
            if not moved:
                break
            at = _lowest(sources, moved)
            want, value = _read(sources, at, full), _read(values, at, full)
            row = _from_msb_first(want, width)
        planes, gates = values, out_gates
        if not unidirectional:
            preimage = _read(sources, _find(values, want, full), full)
            if _cost(preimage, want) < _cost(value, want):
                value, planes, gates = preimage, sources, in_gates
        if len(out_gates) + len(in_gates) + (value ^ want).bit_count() > GATE_LIMIT:
            raise GateLimitExceeded(f"over {GATE_LIMIT} gates at row {row} of {size}")
        _fix(planes, value, want, full, gates, split)
        # Add one to ``want`` at qubit width - 1 (the row's low bit), carrying towards qubit 0.
        row, bit = row + 1, size >> 1
        while want & bit:
            want ^= bit
            bit >>= 1
        want |= bit

    gates = [mcx(q, pos) for q, pos in in_gates + out_gates[::-1]]
    return Circuit(width=width, gates=gates, roles_in=spec.roles_in, roles_out=spec.roles_out,
                   source=source, method=direction)
