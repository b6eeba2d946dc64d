"""Parsing, expansion and emission of .pla switching-function tables.

Bit convention used throughout the toolkit: column 0 of a cube is the most
significant bit of the corresponding integer, and qubit index i carries
column i.  A minterm printed as a bitstring therefore reads MSB-first.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import QOracleError, TooWide

#: Largest input width expanded into an explicit minterm table.
EXPANSION_LIMIT = 20

_LITERALS = frozenset("01-")
_DIRECTIVES = frozenset({".i", ".o", ".p", ".ilb", ".ob", ".type", ".e"})

KIND_F = "f"
KIND_FD = "fd"

#: The output value of a minterm no cube specifies, in ``SpecTable.entries``
#: and ``embed.ReversibleSpec.perm`` alike.
UNSPECIFIED = -1


#: One table row ``(care, value, ones, dc)``: bit n-1-col of the input masks
#: is input column col, bit m-1-j of the output masks is output column j.
#: An input column is a literal when its care bit is set (value gives its
#: polarity) and '-' otherwise; an output column is '1' in ``ones``, '-' in
#: ``dc`` and '0' in neither.
Row = tuple[int, int, int, int]


def _masks(literals: str) -> tuple[int, int]:
    """(care, value) of a 0/1/- string, column 0 the top bit; '-' is 0 in both."""
    if not _LITERALS.issuperset(literals):
        bad = next(ch for ch in literals if ch not in _LITERALS)
        raise QOracleError(f"illegal literal {bad!r} in cube")
    care = int(literals.replace("0", "1").replace("-", "0"), 2)
    return care, int(literals.replace("-", "0"), 2)


def _literals(care: int, value: int, width: int) -> str:
    """The 0/1/- string of the low ``width`` bits of (care, value), the inverse of ``_masks``."""
    return "".join("1" if value >> k & 1 else "0" if care >> k & 1 else "-"
                   for k in range(width - 1, -1, -1))


def _fill(base: int, free: int) -> Iterator[int]:
    """``base | sub`` for every subset ``sub`` of ``free``, ascending."""
    sub = 0
    while True:
        yield base | sub
        sub = (sub - free) & free
        if not sub:
            return


@dataclass
class PlaTable:
    """A possibly incomplete, irreversible switching function in cube form."""

    n: int
    m: int
    cubes: list[Row] = field(default_factory=list)
    kind: str = KIND_FD
    input_labels: list[str] | None = None
    output_labels: list[str] | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise QOracleError("tables need at least one input and one output")
        if self.kind not in (KIND_F, KIND_FD):
            raise QOracleError(f"unsupported table type {self.kind!r}")
        n, m = self.n, self.m
        for row in self.cubes:
            care, value, ones, dc = row
            if min(row) < 0 or (care | value) >> n or (ones | dc) >> m:
                raise QOracleError(f"cube {row} does not match .i {n} .o {m}")
            if value & ~care or ones & dc:
                raise QOracleError(f"cube {row} has value outside care or ones inside dc")
            if dc and self.kind == KIND_F:
                raise QOracleError("type f tables forbid '-' output marks")


@dataclass
class SpecTable:
    """Fully expanded minterm table: two arrays over all 2^n minterms.

    ``entries[x]`` is minterm x's output value, bit m-1-j for output column
    j, or ``UNSPECIFIED``; ``dc[x]`` holds its don't-care bits, which never
    overlap the value.  The arrays are int64 while m < 64 and Python ints
    (dtype=object) beyond.
    """

    n: int
    m: int
    entries: np.ndarray
    dc: np.ndarray

    def output_bits(self, minterm: int) -> str:
        """Render the output pattern of one minterm as 0/1/- (MSB first)."""
        return _literals(~int(self.dc[minterm]), int(self.entries[minterm]), self.m)

    def specified(self) -> np.ndarray:
        """The specified minterms, ascending."""
        return np.flatnonzero(self.entries != UNSPECIFIED)

    def has_dontcares(self) -> bool:
        return bool(self.dc.any())


def _word_dtype(bits: int) -> type:
    """The numpy dtype of ``bits``-bit words: int64 below 64 bits, Python ints beyond."""
    return np.int64 if bits < 64 else object


def parse_pla(text: str) -> PlaTable:
    """Parse .pla text into a table, preserving cube order.

    Each directive may appear at most once, and ``.e`` ends the read.
    """
    directives: dict[str, list[str]] = {}
    n = m = None
    cubes: list[Row] = []

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key = fields[0]
        if key.startswith("."):
            if key not in _DIRECTIVES:
                raise QOracleError(f"unsupported directive {key}")
            if key in (".i", ".o", ".p") and (len(fields) != 2 or not fields[1].isdecimal()):
                raise QOracleError(f"malformed {key} directive: {line!r}")
            if key == ".type" and (len(fields) != 2 or fields[1].lower() not in (KIND_F, KIND_FD)):
                raise QOracleError(f"unsupported table type in {line!r}")
            if key in directives:
                raise QOracleError(f"repeated {key} directive: {line!r}")
            if key == ".e":
                break
            directives[key] = fields[1:]
            n, m = (int(directives[k][0]) if k in directives else None for k in (".i", ".o"))
            continue
        if n is None or m is None:
            raise QOracleError("cube line before .i/.o declarations")
        if len(fields) != 2:
            raise QOracleError(f"expected '<inputs> <outputs>', got {line!r}")
        ins, outs = fields
        if len(ins) != n or len(outs) != m:
            raise QOracleError(
                f"cube {line!r} has widths {len(ins)}/{len(outs)}, declared {n}/{m}"
            )
        (care, value), (out_care, ones) = _masks(ins), _masks(outs)
        cubes.append((care, value, ones, ~out_care & ((1 << m) - 1)))

    if n is None or m is None:
        raise QOracleError("missing .i/.o declarations")
    declared_count = int(directives.get(".p", [len(cubes)])[0])
    if declared_count != len(cubes):
        raise QOracleError(f".p {declared_count} but {len(cubes)} cubes parsed")
    ilb, ob = directives.get(".ilb"), directives.get(".ob")
    if ilb is not None and len(ilb) != n:
        raise QOracleError(".ilb label count does not match .i")
    if ob is not None and len(ob) != m:
        raise QOracleError(".ob label count does not match .o")
    kind = directives.get(".type", [KIND_FD])[0].lower()
    return PlaTable(n=n, m=m, cubes=cubes, kind=kind, input_labels=ilb, output_labels=ob)


def write_pla(table: PlaTable) -> str:
    """Emit a table as .pla text; parse_pla(write_pla(t)) equals t."""
    lines = [f".i {table.n}", f".o {table.m}"]
    if table.input_labels:
        lines.append(".ilb " + " ".join(table.input_labels))
    if table.output_labels:
        lines.append(".ob " + " ".join(table.output_labels))
    if table.kind != KIND_FD:
        lines.append(f".type {table.kind}")
    lines.append(f".p {len(table.cubes)}")
    for care, value, ones, dc in table.cubes:
        lines.append(f"{_literals(care, value, table.n)} {_literals(~dc, ones, table.m)}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


def expand(table: PlaTable, *, partial: bool = False) -> SpecTable:
    """Expand cube form into an explicit minterm table.

    Output marks combine across cubes by OR of their ON sets; a One mark wins
    over a DontCare on the same bit.  Minterms covered by no cube default to
    all-zero outputs unless ``partial`` leaves them ``UNSPECIFIED``.  Cubes
    with the same number k of '-' inputs are expanded together, 2^(18 - k)
    of them (at least one) to a numpy matrix of minterms.
    """
    n = table.n
    if n > EXPANSION_LIMIT:
        raise TooWide(f".i {n} exceeds the expansion limit of {EXPANSION_LIMIT}")
    size, dtype = 1 << n, _word_dtype(table.m)
    on, dc, covered = np.zeros(size, dtype), np.zeros(size, dtype), np.zeros(size, bool)
    rows = np.array(table.cubes, dtype).reshape(-1, 4)
    care, value = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    dashes = n - np.bitwise_count(care)
    for k in np.unique(dashes).tolist():
        group, step = np.flatnonzero(dashes == k), max(1, (1 << 18) >> k)
        for at in range(0, len(group), step):
            cubes = group[at:at + step]
            free = ~care[cubes] & (size - 1)
            # Row i holds the minterms of cube i: its value plus every subset of its '-' bits.
            xs = value[cubes, None]
            for _ in range(k):
                low = free & -free
                xs = np.concatenate((xs, xs | low[:, None]), axis=1)
                free ^= low
            np.bitwise_or.at(on, xs, rows[cubes, 2:3])
            np.bitwise_or.at(dc, xs, rows[cubes, 3:4])
            covered[xs] = True
    dc &= ~on
    if partial:
        on[~covered] = UNSPECIFIED
    return SpecTable(n, table.m, on, dc)


def encode_integer_pairs(pairs: Sequence[tuple[int, int]]) -> PlaTable:
    """Encode non-negative (domain, range) integer rows as a fully specified table.

    Widths are the bit lengths of the largest domain and range values, i.e.
    ceil(log2(max + 1)) with a minimum of one bit, so exact powers of two
    still fit.
    """
    if not pairs:
        raise QOracleError("at least one (domain, range) pair is required")
    seen = set()
    for d, r in pairs:
        if min(d, r) < 0:
            raise QOracleError(f"negative value in the pair {d},{r}")
        if d in seen:
            raise QOracleError(f"domain value {d} listed twice")
        seen.add(d)
    n = max(1, max(d for d, _ in pairs).bit_length())
    m = max(1, max(r for _, r in pairs).bit_length())
    cubes = [((1 << n) - 1, d, r, 0) for d, r in pairs]
    return PlaTable(n=n, m=m, cubes=cubes)
