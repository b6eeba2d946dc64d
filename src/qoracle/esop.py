"""Exclusive-or sum-of-products conversion, minimization and circuit mapping.

Cubes are carried as (care, value, outmask) integer masks from conversion to
circuit mapping: bit n-1-col of care/value corresponds to input column col
and bit m-1-j of outmask to output column j.  Two cubes are at distance d
when their literals differ in d positions; distance-0 pairs cancel under
XOR, distance-1 pairs merge into a single cube, and distance-2 pairs can be
rewritten into an equivalent pair that may unlock further merging.  Every
step is deterministic and depends on the order cubes are inserted.

An output column whose cubes are all fully specified (every esop-rtt column,
and esop with don't-care minimization) first has its minterms paired in bulk
with numpy: repeated minterms cancel by parity, then adjacent pairs merge one
mask bit at a time, least significant first.  The insertion cascade gets the
much shorter list that is left.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, _from_msb_first, mcx
from .embed import ROLE_ANCILLA, ROLE_INPUT, ROLE_OUTPUT
from .errors import SynthesisTimeout
from .pla import PlaTable, SpecTable

Row = tuple[int, int, int]

#: Most minimization passes, each a distance-2 sweep over the changed columns.
MAX_PASSES = 10


@dataclass
class EsopCubeList:
    """Cubes read with XOR semantics per output column, one (care, value, outmask) row each."""

    n: int
    m: int
    cubes: list[Row]


def _subtract(cube: tuple[int, int], other: tuple[int, int]) -> list[tuple[int, int]]:
    """Disjoint-sharp: pieces of ``cube`` not covered by ``other``."""
    c, v = cube
    oc, ov = other
    if (v ^ ov) & c & oc:
        return [cube]
    pieces = []
    free = oc & ~c
    for k in range(free.bit_length() - 1, -1, -1):
        bit = 1 << k
        if free & bit:
            pieces.append((c | bit, v | (0 if ov & bit else bit)))
            c |= bit
            v |= ov & bit
    return pieces


def _disjoint_column(cubes: list[tuple[int, int]], full: int) -> list[tuple[int, int]]:
    """Make an OR cube list pairwise disjoint (then OR equals XOR)."""
    result: list[tuple[int, int]] = []
    minterms: set[int] = set()
    dashed: list[tuple[int, int]] = []
    for cube in cubes:
        care, value = cube
        if care == full:
            # Fully specified rows only collide with identical rows or a
            # dashed cube that covers them.
            if value in minterms or any(value & dc == dv for dc, dv in dashed):
                continue
            minterms.add(value)
            result.append(cube)
            continue
        pieces = [cube]
        for ex in result:
            pieces = [p for piece in pieces for p in _subtract(piece, ex)]
            if not pieces:
                break
        for piece in pieces:
            result.append(piece)
            if piece[0] == full:
                minterms.add(piece[1])
            else:
                dashed.append(piece)
    return result


def sop_to_esop(table: PlaTable) -> EsopCubeList:
    """Convert OR-semantics cubes to a valid ESOP by per-column disjointing.

    Output don't-care marks are treated as zeros: only '1' marks contribute.
    """
    full = (1 << table.n) - 1
    columns = [
        _disjoint_column([(care, value) for care, value, ones, _ in table.cubes
                          if ones >> (table.m - 1 - j) & 1], full)
        for j in range(table.m)
    ]
    return _assemble(table.n, table.m, columns)


def spec_to_esop(spec: SpecTable) -> EsopCubeList:
    """One fully specified cube per minterm with a nonzero output value.

    Minterms are already disjoint, so this is ``sop_to_esop`` of the table
    with one cube per entry, in the same first-appearance order: cubes of
    output column 0 first, then those new in column 1, and so on.
    """
    full = (1 << spec.n) - 1
    rows = sorted(((full, x, v) for x, (v, _) in sorted(spec.entries.items()) if v),
                  key=lambda row: -row[2].bit_length())
    return EsopCubeList(spec.n, spec.m, rows)


def _assemble(n: int, m: int, columns: list[list[tuple[int, int]]]) -> EsopCubeList:
    """Merge per-column cube lists into rows in first-appearance order."""
    marks: dict[tuple[int, int], int] = {}
    for j, cubes in enumerate(columns):
        bit = 1 << (m - 1 - j)
        for cube in cubes:
            marks[cube] = marks.get(cube, 0) | bit
    return EsopCubeList(n, m, [(c, v, outs) for (c, v), outs in marks.items()])


def _merge_literal(bit: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """``a`` with its literal at ``bit`` XOR-merged with ``b``'s, which differs.

    0 and 1 merge to '-'; '-' and a constant merge to the opposite constant.
    """
    ac, av = a
    if ac & b[0] & bit:
        return ac & ~bit, av & ~bit
    return ac | bit, (av & ~bit) | (bit & ~(av | b[1]))


class _ColumnSet:
    """Insertion-cascading cube container for one output column.

    Inserting a cube cancels it against an identical live cube or merges it
    with a distance-1 partner, repeating until no interaction remains, so
    the set stays saturated under distance-0/1 reduction at all times.  It
    is the only insertion code; a fully specified column reaches it after
    ``_pair_minterms`` has done the bulk of its merging.

    ``by_key`` maps the key of each (live cube, bit k) to the cube's id: care,
    value and k packed into one int with care and value bit k forced to 1,
    so cubes differing only at bit k share it.  Live cubes never share a
    key, so a cube's twin is the owner of its bit-0 key when that owner
    equals it.
    """

    def __init__(self, n: int, cubes: list[tuple[int, int]]):
        self.n = n
        self.live: dict[int, tuple[int, int]] = {}
        self.by_key: dict[int, int] = {}
        self.next_id = 0
        self.dirty = True
        self.shift = n.bit_length()
        self.marks = [(1 << k << n | 1 << k) << self.shift | k for k in range(n)]
        for cube in cubes:
            self.insert(cube)

    def _keys(self, cube: tuple[int, int]) -> list[int]:
        packed = (cube[0] << self.n | cube[1]) << self.shift
        return [packed | mark for mark in self.marks]

    def remove(self, cube_id: int) -> tuple[int, int]:
        cube = self.live.pop(cube_id)
        for key in self._keys(cube):
            del self.by_key[key]
        return cube

    def insert(self, cube: tuple[int, int]) -> None:
        self.dirty = True
        by_key = self.by_key
        while True:
            keys = self._keys(cube)
            for k, key in enumerate(keys):
                partner_id = by_key.get(key)
                if partner_id is not None:
                    break
            else:
                cube_id = self.next_id
                self.next_id += 1
                self.live[cube_id] = cube
                by_key.update(dict.fromkeys(keys, cube_id))
                return
            partner = self.remove(partner_id)
            if partner == cube:
                return
            cube = _merge_literal(1 << k, cube, partner)

    def has_partner(self, cube: tuple[int, int], exclude: tuple[int, int]) -> bool:
        """Whether a live cube outside ``exclude`` cancels or merges with ``cube``."""
        return not set(map(self.by_key.get, self._keys(cube))) <= {None, *exclude}


def _distance2_sweep(column: _ColumnSet) -> bool:
    """One pass of conditional distance-2 rewrites over a saturated column.

    A pair is rewritten only when one of the rewritten cubes immediately
    cancels or merges with a third cube, so every commit shrinks the set.
    """
    column.dirty = False
    n = column.n
    bit_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    shift = len(bit_pairs).bit_length()
    marks = [((1 << i | 1 << j) << n | 1 << i | 1 << j) << shift | p
             for p, (i, j) in enumerate(bit_pairs)]
    # Pair ids as one int, smaller id first; ids ascend in ``live``.
    stride = column.next_id
    first: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    pair_set: set[int] = set()
    for cube_id, (care, value) in column.live.items():
        packed = (care << n | value) << shift
        keys = [packed | mark for mark in marks]
        for key in first.keys() & keys:
            ids = groups.setdefault(key, [first[key]])
            pair_set.update(a * stride + cube_id for a in ids)
            ids.append(cube_id)
        first.update(dict.fromkeys(keys, cube_id))
    live = column.live
    changed = False
    for pair in sorted(pair_set):
        id_a, id_b = divmod(pair, stride)
        a, b = live.get(id_a), live.get(id_b)
        if a is None or b is None:
            continue
        # A shared bucket and no shared key: exactly two differing literals.
        diff = (a[0] ^ b[0]) | ((a[1] ^ b[1]) & a[0] & b[0])
        low = diff & -diff
        high = diff ^ low
        exclude = (id_a, id_b)
        for bit_a, bit_b in ((low, high), (high, low)):
            new_a = _merge_literal(bit_a, a, b)
            new_b = _merge_literal(bit_b, b, a)
            if column.has_partner(new_a, exclude) or column.has_partner(new_b, exclude):
                column.remove(id_a)
                column.remove(id_b)
                column.insert(new_a)
                column.insert(new_b)
                changed = True
                break
    return changed


#: Widest fully specified column paired in numpy: care and value are int64.
_PAIR_MAX_N = 62


def _pair_minterms(values: np.ndarray, n: int) -> list[tuple[int, int]]:
    """Distance-0/1 reduction of one column of minterms, in bulk.

    Repeated minterms cancel in pairs; an odd count keeps the first
    appearance.  Then for mask bit k = 0 .. n-1, the order the cascade
    probes, every two cubes with the same care that differ only in value
    bit k merge into one cube with '-' at k.  The cubes stay pairwise
    disjoint, so a (care, value without bit k) group holds at most two.
    Each merged cube keeps the smaller first-appearance rank of its pair,
    and the cubes come back in rank order.
    """
    value, rank, counts = np.unique(values, return_index=True, return_counts=True)
    odd = counts % 2 == 1
    value, rank = value[odd], rank[odd]
    care = np.full(len(value), (1 << n) - 1, dtype=np.int64)
    for k in range(n):
        if len(value) < 2:
            break
        bit = 1 << k
        cand = np.flatnonzero(care & bit)
        rest = value[cand] & ~bit
        perm = np.lexsort((rest, care[cand]))
        order, rest = cand[perm], rest[perm]
        same = (care[order[1:]] == care[order[:-1]]) & (rest[1:] == rest[:-1])
        keep, drop = order[:-1][same], order[1:][same]
        care[keep] &= ~bit
        value[keep] &= ~bit
        rank[keep] = np.minimum(rank[keep], rank[drop])
        live = np.ones(len(value), dtype=bool)
        live[drop] = False
        care, value, rank = care[live], value[live], rank[live]
    order = np.argsort(rank)
    return list(zip(care[order].tolist(), value[order].tolist()))


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise SynthesisTimeout("ESOP minimization ran out of time")


def _column_cubes(cubes: EsopCubeList, deadline: float | None):
    """Yield each output column's cubes in row order, pairing minterm columns.

    The rows are split into per-column index arrays once; a column is paired
    by ``_pair_minterms`` only when every cube in it is fully specified.  The
    deadline is checked before each column.
    """
    rows, n, m = cubes.cubes, cubes.n, cubes.m
    width = (m + 7) // 8
    marks = b"".join(outs.to_bytes(width, "big") for _, _, outs in rows)
    bits = np.unpackbits(np.frombuffer(marks, np.uint8).reshape(len(rows), width), axis=1)
    members = bits[:, 8 * width - m:].T
    cube_masks = [row[:2] for row in rows]
    table = np.array(cube_masks, dtype=np.int64).reshape(-1, 2) if n <= _PAIR_MAX_N else None
    for j in range(m):
        _check_deadline(deadline)
        index = np.flatnonzero(members[j])
        if table is not None and (table[index, 0] == (1 << n) - 1).all():
            yield _pair_minterms(table[index, 1], n)
        else:
            yield [cube_masks[i] for i in index.tolist()]


def minimize_esop(cubes: EsopCubeList, deadline: float | None = None) -> EsopCubeList:
    """Shrink an ESOP cube list without changing its XOR semantics.

    Each pass saturates distance-0 cancellation and distance-1 merging per
    output column, then tries conditional distance-2 rewrites; it stops
    after a pass with no reduction or after ``MAX_PASSES`` passes.  The
    deadline is checked before each column is built and before each pass.
    The result never has more cubes than the input.
    """
    columns = [_ColumnSet(cubes.n, column) for column in _column_cubes(cubes, deadline)]
    for _ in range(MAX_PASSES):
        _check_deadline(deadline)
        if not any([_distance2_sweep(col) for col in columns if col.dirty]):
            break
    result = _assemble(cubes.n, cubes.m, [list(col.live.values()) for col in columns])
    return cubes if len(result.cubes) > len(cubes.cubes) else result


def esop_to_circuit(cubes: EsopCubeList, method: str = "esop") -> Circuit:
    """Map each (cube, asserted output column) pair to one Toffoli gate.

    The circuit spans n+m qubits: the first n carry and preserve the domain
    value, the last m start as ancilla and end as a XOR of their initial
    value with the function outputs.
    """
    n, m = cubes.n, cubes.m
    gates = []
    for care, value, outs in cubes.cubes:
        pos, neg = _from_msb_first(care & value, n), _from_msb_first(care & ~value, n)
        for j in range(m):
            if outs >> (m - 1 - j) & 1:
                gates.append(mcx(n + j, pos, neg))
    return Circuit(width=n + m, gates=gates, method=method,
                   roles_in=(ROLE_INPUT,) * n + (ROLE_ANCILLA,) * m,
                   roles_out=(ROLE_INPUT,) * n + (ROLE_OUTPUT,) * m)
