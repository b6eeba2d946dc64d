"""Exclusive-or sum-of-products conversion, minimization and circuit mapping.

Cubes are carried as (care, value, outmask) integer masks from conversion to
circuit mapping: bit n-1-col of care/value corresponds to input column col
and bit m-1-j of outmask to output column j.  Two cubes are at distance d
when their literals differ in d positions; distance-0 pairs cancel under
XOR, distance-1 pairs merge into a single cube, and distance-2 pairs can be
rewritten into an equivalent pair that may unlock further merging.  Every
step is deterministic and depends on the order cubes are inserted.

OR-semantics cubes become an ESOP by disjoint-sharp per output column, each
cube less every earlier one.  Only the earlier cubes a cube meets can take
a minterm from it, so it is cut by those alone: a dict finds a repeated
minterm, and a chunked numpy test of each dashed cube against the rest
finds any other pair that meets.  A cube that meets none is kept whole.

An output column whose cubes are all fully specified (every esop-rtt column,
and every column of a table of minterms) first has its minterms paired in bulk
with numpy: repeated minterms cancel by parity, then adjacent pairs merge one
mask bit at a time, least significant first.  The insertion cascade gets the
much shorter list that is left.  Each distance-2 sweep finds its pairs with
one numpy argsort of every (live cube, bit pair) key, int64 while a key fits
62 bits and Python ints (dtype=object) beyond.  A rewrite is committed when
a probe of a rewritten cube's n keys finds a live owner outside the pair;
the probe stops at the first such owner and builds no set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import ROLE_ANCILLA, ROLE_INPUT, ROLE_OUTPUT, Circuit, _from_msb_first, mcx
from .pla import PlaTable, SpecTable, _word_dtype

Row = tuple[int, int, int]

#: Most minimization passes, each a distance-2 sweep over the changed columns.
MAX_PASSES = 10

#: numpy holds masks as int64 while they fit 62 bits: care and value of a
#: column of n <= _PAIR_MAX_N inputs, and a distance-2 key of 2n + bits(P)
#: bits for P bit pairs.  Wider masks are Python ints (dtype=object).
_PAIR_MAX_N = 62


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


#: Most cube pairs one numpy overlap test compares at a time.
_OVERLAP_CHUNK = 1 << 16


def _earlier_meets(cubes: list[tuple[int, int]], full: int) -> dict[int, list[int]]:
    """The indices of the earlier cubes each cube shares a minterm with.

    Only cubes that meet an earlier one are keys.  Two fully specified cubes
    meet only when they are equal, so a repeated minterm lists its first
    appearance, found by a dict.  Each dashed cube is tested against every
    cube with numpy, a chunk of dashed cubes at a time, so no k x k array is
    built; a dashed cube's list is in order.
    """
    meets: dict[int, list[int]] = {}
    first: dict[int, int] = {}
    dashed = []
    for i, (care, value) in enumerate(cubes):
        if care != full:
            dashed.append(i)
        elif first.setdefault(value, i) != i:
            meets[i] = [first[value]]
    if not dashed or len(cubes) < 2:
        return meets
    dtype = np.int64 if full.bit_length() <= _PAIR_MAX_N else object
    care, value = np.array(cubes, dtype=dtype).reshape(-1, 2).T
    dashed = np.array(dashed)
    step = max(1, _OVERLAP_CHUNK // len(cubes))
    for start in range(0, len(dashed), step):
        rows = dashed[start:start + step]
        meet = ((value[rows, None] ^ value) & care[rows, None] & care) == 0
        meet[np.arange(len(rows)), rows] = False
        if not meet.any():
            continue
        at, ks = np.nonzero(meet)
        for d, k in zip(rows[at].tolist(), ks.tolist()):
            if k < d:
                meets.setdefault(d, []).append(k)
            elif cubes[k][0] == full:
                # A dashed cube k lists d from its own row.
                meets.setdefault(k, []).append(d)
    return meets


def _disjoint_column(cubes: list[tuple[int, int]], full: int) -> list[tuple[int, int]]:
    """Make an OR cube list pairwise disjoint (then OR equals XOR) by disjoint-sharp.

    Each cube, in order, loses the pieces of the earlier cubes it meets.  The
    pieces of a cube it does not meet lie outside it, and ``_subtract``
    would keep every piece whole against them.
    """
    pieces: dict[int, list[tuple[int, int]]] = {}
    result: list[tuple[int, int]] = []
    whole = 0  # cubes[whole:i] meet no earlier cube, so they stay whole
    for i, earlier in sorted(_earlier_meets(cubes, full).items()):
        own = [cubes[i]]
        for ex in [ex for j in earlier for ex in pieces.get(j, cubes[j:j + 1])]:
            own = [p for piece in own for p in _subtract(piece, ex)]
            if not own:
                break
        pieces[i] = own
        result += cubes[whole:i] + own
        whole = i + 1
    return result + cubes[whole:]


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
    xs = np.flatnonzero(spec.entries > 0)
    rows = sorted(((full, x, v) for x, v in zip(xs.tolist(), spec.entries[xs].tolist())),
                  key=lambda row: -row[2].bit_length())
    return EsopCubeList(spec.n, spec.m, rows)


def _assemble(n: int, m: int, columns: list[list[tuple[int, int]]]) -> EsopCubeList:
    """Merge per-column cube lists into rows, one per distinct cube, in first-appearance order."""
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
    equals it.  Distance-2 pairs are not indexed here: cubes churn about as
    often as sweeps read pairs, so each sweep sorts them out afresh.
    """

    def __init__(self, n: int, cubes: list[tuple[int, int]]):
        self.n = n
        self.live: dict[int, tuple[int, int]] = {}
        self.by_key: dict[int, int] = {}
        self.next_id = 0
        self.dirty = True
        self.shift = n.bit_length()
        self.marks = [(1 << k << n | 1 << k) << self.shift | k for k in range(n)]
        # The distance-2 keys' masks, one per bit pair (i, j), for _distance2_pairs.
        bit_pairs = [1 << i | 1 << j for i in range(n) for j in range(i + 1, n)]
        self.pair_shift = len(bit_pairs).bit_length()
        self.pair_dtype = np.int64 if 2 * n + self.pair_shift <= _PAIR_MAX_N else object
        self.pair_keep = np.array([~(bits << n | bits) for bits in bit_pairs], self.pair_dtype)
        for cube in cubes:
            self.insert(cube)

    def remove(self, cube_id: int) -> tuple[int, int]:
        cube = self.live.pop(cube_id)
        by_key = self.by_key
        packed = (cube[0] << self.n | cube[1]) << self.shift
        for mark in self.marks:
            del by_key[packed | mark]
        return cube

    def insert(self, cube: tuple[int, int]) -> None:
        self.dirty = True
        by_key, marks, n, shift = self.by_key, self.marks, self.n, self.shift
        while True:
            packed = (cube[0] << n | cube[1]) << shift
            keys = [packed | mark for mark in marks]
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
        """Whether a live cube outside ``exclude`` cancels or merges with ``cube``.

        The keys are probed in bit order, stopping at the first owner
        outside ``exclude``.
        """
        get = self.by_key.get
        packed = (cube[0] << self.n | cube[1]) << self.shift
        for mark in self.marks:
            owner = get(packed | mark)
            if owner is not None and owner not in exclude:
                return True
        return False


def _distance2_pairs(column: _ColumnSet) -> list[tuple[int, int]]:
    """Ascending ``(id_a, id_b)`` pairs of live cubes two literals apart.

    Each (live cube, bit pair (i, j)) gets one key: care and value with bits
    i and j cleared, above the pair's index.  Cubes sharing a key agree off
    i and j and, as the column is saturated, differ at both, so a key's
    bucket holds at most three cubes.  One argsort of all keys puts each
    bucket in one run, and pairs are read off neighbours one and two apart.
    """
    n, live, next_id = column.n, column.live, column.next_id
    keep = column.pair_keep
    packed = np.array([care << n | value for care, value in live.values()], column.pair_dtype)
    keys = (packed[:, None] & keep) << column.pair_shift | np.arange(len(keep))
    order = np.argsort(keys, axis=None)
    keys, ids = keys.ravel()[order], np.fromiter(live, np.int64, len(live))[order // len(keep)]
    # argsort leaves the ids of one bucket in any order.  Ids are below
    # next_id, so lo * next_id + hi codes a pair in its sort order.
    codes = []
    for gap in (1, 2):
        same = keys[gap:] == keys[:-gap]
        a, b = ids[:-gap][same], ids[gap:][same]
        codes.append(np.minimum(a, b) * next_id + np.maximum(a, b))
    first, second = np.divmod(np.unique(np.concatenate(codes)), next_id)
    return list(zip(first.tolist(), second.tolist()))


def _distance2_sweep(column: _ColumnSet) -> bool:
    """One pass of conditional distance-2 rewrites over a saturated column.

    Pairs from ``_distance2_pairs`` are visited in ascending id order.  A
    pair is rewritten only when one rewritten cube immediately cancels or
    merges with a third cube, so every commit shrinks the set.
    """
    column.dirty = False
    live = column.live
    changed = False
    for id_a, id_b in _distance2_pairs(column):
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
        # Only earlier steps cleared care bits, so every cube still cares about bit k.
        bit = 1 << k
        rest = value & ~bit
        order = np.lexsort((rest, care))
        rest = rest[order]
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


def _column_cubes(cubes: EsopCubeList):
    """Yield each output column's cubes in row order, pairing minterm columns.

    A column's rows are those whose output mask, one numpy array for all
    rows, has its bit set; a column is paired by ``_pair_minterms`` only when
    every cube in it is fully specified.
    """
    rows, n, m = cubes.cubes, cubes.n, cubes.m
    outs = np.array([row[2] for row in rows], _word_dtype(m))
    cube_masks = [row[:2] for row in rows]
    table = np.array(cube_masks, dtype=np.int64).reshape(-1, 2) if n <= _PAIR_MAX_N else None
    for j in range(m):
        index = np.flatnonzero(outs >> (m - 1 - j) & 1)
        if table is not None and (table[index, 0] == (1 << n) - 1).all():
            yield _pair_minterms(table[index, 1], n)
        else:
            yield [cube_masks[i] for i in index.tolist()]


def minimize_esop(cubes: EsopCubeList) -> EsopCubeList:
    """Shrink an ESOP cube list without changing its XOR semantics.

    Each pass saturates distance-0 cancellation and distance-1 merging per
    output column, then tries conditional distance-2 rewrites; it stops
    after a pass with no reduction or after ``MAX_PASSES`` passes.  No step
    adds a cube to a column, so the result never has more (cube, output)
    pairs, and so never more gates, than the input.  It may have more rows,
    as ``_assemble`` regroups the columns; the minimized list always ships.
    """
    columns = [_ColumnSet(cubes.n, column) for column in _column_cubes(cubes)]
    for _ in range(MAX_PASSES):
        if not any([_distance2_sweep(col) for col in columns if col.dirty]):
            break
    return _assemble(cubes.n, cubes.m, [list(col.live.values()) for col in columns])


def esop_to_circuit(cubes: EsopCubeList, method: str = "esop", source: str = "") -> Circuit:
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
    return Circuit(width=n + m, gates=gates, source=source, method=method,
                   roles_in=(ROLE_INPUT,) * n + (ROLE_ANCILLA,) * m,
                   roles_out=(ROLE_INPUT,) * n + (ROLE_OUTPUT,) * m)
