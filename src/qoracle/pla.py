"""Parsing, expansion and emission of .pla switching-function tables.

Bit convention used throughout the toolkit: column 0 of a cube is the most
significant bit of the corresponding integer, and qubit index i carries
column i.  A minterm printed as a bitstring therefore reads MSB-first.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import QOracleError, TooWide

#: Largest input width expanded into an explicit minterm table.
EXPANSION_LIMIT = 20

_LITERALS = frozenset("01-")
_DIRECTIVES = frozenset({".i", ".o", ".p", ".ilb", ".ob", ".type", ".e"})

KIND_F = "f"
KIND_FD = "fd"


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


# Output patterns of a SpecTable entry are stored as (value, dc_mask) integer
# pairs: bit m-1-j of each word corresponds to output column j, dc_mask marks
# don't-care bits and never overlaps value.
@dataclass
class SpecTable:
    """Fully expanded minterm table; unspecified minterms are simply absent."""

    n: int
    m: int
    entries: dict[int, tuple[int, int]] = field(default_factory=dict)

    def output_bits(self, minterm: int) -> str:
        """Render the output pattern of one minterm as 0/1/- (MSB first)."""
        value, dc = self.entries[minterm]
        return _literals(~dc, value, self.m)

    def has_dontcares(self) -> bool:
        return any(dc for _, dc in self.entries.values())


def parse_pla(text: str) -> PlaTable:
    """Parse .pla text into a table, preserving cube order."""
    n = m = None
    declared_count = None
    kind = KIND_FD
    ilb = ob = None
    cubes: list[Row] = []
    ended = False

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ended:
            continue
        if line.startswith("."):
            fields = line.split()
            key = fields[0]
            if key not in _DIRECTIVES:
                raise QOracleError(f"unsupported directive {key}")
            if key in (".i", ".o", ".p"):
                if len(fields) != 2 or not fields[1].isdigit():
                    raise QOracleError(f"malformed {key} directive: {line!r}")
                count = int(fields[1])
                if key == ".i":
                    n = count
                elif key == ".o":
                    m = count
                else:
                    declared_count = count
            elif key == ".ilb":
                ilb = fields[1:]
            elif key == ".ob":
                ob = fields[1:]
            elif key == ".type":
                if len(fields) != 2 or fields[1].lower() not in (KIND_F, KIND_FD):
                    raise QOracleError(f"unsupported table type in {line!r}")
                kind = fields[1].lower()
            elif key == ".e":
                ended = True
            continue
        if n is None or m is None:
            raise QOracleError("cube line before .i/.o declarations")
        fields = line.split()
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
    if declared_count is not None and declared_count != len(cubes):
        raise QOracleError(f".p {declared_count} but {len(cubes)} cubes parsed")
    if ilb is not None and len(ilb) != n:
        raise QOracleError(".ilb label count does not match .i")
    if ob is not None and len(ob) != m:
        raise QOracleError(".ob label count does not match .o")
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
    all-zero outputs unless ``partial`` leaves them unspecified.
    """
    if table.n > EXPANSION_LIMIT:
        raise TooWide(f".i {table.n} exceeds the expansion limit of {EXPANSION_LIMIT}")
    full = (1 << table.n) - 1
    on: dict[int, int] = {}
    dc: dict[int, int] = {}
    for care, value, ones, dc_mask in table.cubes:
        for x in _fill(value, full & ~care):
            on[x] = on.get(x, 0) | ones
            dc[x] = dc.get(x, 0) | dc_mask
    entries: dict[int, tuple[int, int]] = {}
    if partial:
        keys: Iterable[int] = sorted(on)
    else:
        keys = range(1 << table.n)
    for x in keys:
        value = on.get(x, 0)
        entries[x] = (value, dc.get(x, 0) & ~value)
    return SpecTable(n=table.n, m=table.m, entries=entries)


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
