"""Transformation-based synthesis of minimal-qubit reversible cascades.

The synthesizer walks the truth table in ascending input order and, per row,
chooses Toffoli gates that fix the row's output pattern without disturbing
earlier rows.  Turning the residual map into the identity and reversing the
collected cascade yields a circuit realizing the original permutation.
"""
from __future__ import annotations

import time

import numpy as np

from .circuit import Circuit, _from_msb_first, mcx
from .embed import ReversibleSpec
from .errors import GateLimitExceeded, NotBijective, SynthesisTimeout

UNIDIRECTIONAL = "unidirectional"
BIDIRECTIONAL = "bidirectional"


def _bits_desc(mask: int) -> list[int]:
    """The set bits of ``mask``, most significant first."""
    bits = []
    while mask:
        top = 1 << (mask.bit_length() - 1)
        bits.append(top)
        mask ^= top
    return bits


def _plan(value: int, row: int, width: int) -> list[tuple[int, int]]:
    """Gates (control mask, target bit) turning ``value`` into ``row``.

    First sets the bits present in the row but missing from the value,
    controlling on the evolving value; then clears the extra bits,
    controlling on the row.  Bits are handled in descending significance.
    """
    gates = []
    current = value
    for bit in _bits_desc(row & ~current):
        gates.append((current, bit))
        current |= bit
    for bit in _bits_desc(current & ~row):
        gates.append((row, bit))
        current ^= bit
    return gates


def _swap(table: np.ndarray, other: np.ndarray, index: np.ndarray,
          cmask: int, tbit: int) -> None:
    """Swap ``table[x]`` and ``table[x | tbit]`` for every ``x`` holding ``cmask``.

    ``index`` is ``arange(2**width)`` with one axis per qubit, most
    significant bit first.  Fixing the control axes to 1 and the target axis
    to 0 leaves a strided view of the 2^(width - |cmask| - 1) such ``x``, so
    the pairs are gathered and scattered in a few array operations;
    ``_plan`` never puts the target among the controls, so they are disjoint.
    ``other`` is the inverse of ``table`` and is kept so.  On the inverse
    table this is an output-side gate; on the permutation itself it is an
    input-side gate.
    """
    width = index.ndim
    sel = [slice(None)] * width
    for bit in _bits_desc(cmask):
        sel[width - bit.bit_length()] = 1
    sel[width - tbit.bit_length()] = 0
    xs = index[tuple(sel)].reshape(-1)
    ys = xs | tbit
    a, b = table[xs], table[ys]
    table[xs], table[ys] = b, a
    other[b], other[a] = xs, ys


def _to_gate(cmask: int, tbit: int, width: int):
    return mcx(width - tbit.bit_length(), _from_msb_first(cmask, width))


def tbs_synthesize(spec: ReversibleSpec, *, direction: str = UNIDIRECTIONAL,
                   gate_limit: int = 50_000, deadline: float | None = None,
                   validate: bool = False) -> Circuit:
    """Synthesize an MCT cascade realizing the given permutation table.

    ``deadline`` is a ``time.monotonic()`` value; rows are abandoned with
    ``SynthesisTimeout`` once it passes.  ``validate`` re-checks the fixed
    prefix after every gate.
    """
    if direction not in (UNIDIRECTIONAL, BIDIRECTIONAL):
        raise ValueError(f"unknown direction {direction!r}")
    if gate_limit <= 0:
        raise ValueError("gate_limit must be positive")
    if not spec.is_bijection():
        raise NotBijective("TBS needs a total bijection; complete the table first")
    width = spec.width
    size = 1 << width
    bidirectional = direction == BIDIRECTIONAL
    ident = np.arange(size, dtype=np.int64)
    index = ident.reshape((2,) * width)
    perm = spec.perm.astype(np.int64)
    inv = np.empty_like(perm)
    inv[perm] = ident

    out_gates: list[tuple[int, int]] = []
    in_gates: list[tuple[int, int]] = []
    for row in range(size - 1):
        if deadline is not None and time.monotonic() > deadline:
            raise SynthesisTimeout(f"gave up at row {row} of {size}")
        value = int(perm[row])
        if value == row:
            continue
        out_plan = _plan(value, row, width)
        if bidirectional:
            in_plan = _plan(int(inv[row]), row, width)
            out_cost = (len(out_plan), sum(c.bit_count() for c, _ in out_plan))
            in_cost = (len(in_plan), sum(c.bit_count() for c, _ in in_plan))
            take_input = in_cost < out_cost
        else:
            take_input = False
        plan = in_plan if take_input else out_plan
        if len(out_gates) + len(in_gates) + len(plan) > gate_limit:
            raise GateLimitExceeded(f"over {gate_limit} gates at row {row} of {size}")
        for cmask, tbit in plan:
            if take_input:
                _swap(perm, inv, index, cmask, tbit)
                in_gates.append((cmask, tbit))
            else:
                _swap(inv, perm, index, cmask, tbit)
                out_gates.append((cmask, tbit))
            # Chosen controls can never all be present in an earlier row's
            # pattern, so the processed prefix must stay fixed gate by gate.
            if validate and not np.array_equal(perm[:row], ident[:row]):
                raise AssertionError(f"a row before {row} was disturbed")
        if validate and not np.array_equal(perm[: row + 1], ident[: row + 1]):
            raise AssertionError(f"row {row} not fixed after its gates")

    gates = [_to_gate(c, t, width) for c, t in in_gates]
    gates.extend(_to_gate(c, t, width) for c, t in reversed(out_gates))
    method = "tbs-bidirectional" if bidirectional else "tbs"
    return Circuit(width=width, gates=gates, roles_in=spec.roles_in,
                   roles_out=spec.roles_out, method=method)
