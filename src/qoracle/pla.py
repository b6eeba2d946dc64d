"""Parsing, expansion and emission of .pla switching-function tables.

Bit convention used throughout the toolkit: column 0 of a cube is the most
significant bit of the corresponding integer, and qubit index i carries
column i.  A minterm printed as a bitstring therefore reads MSB-first.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    DuplicateDomain,
    IllegalChar,
    MissingHeader,
    NegativeValue,
    TooWide,
    UnknownDirective,
    WidthMismatch,
)

#: Largest input width expanded into an explicit minterm table.
EXPANSION_LIMIT = 20

_LITERALS = frozenset("01-")
_DIRECTIVES = frozenset({".i", ".o", ".p", ".ilb", ".ob", ".type", ".e"})

KIND_F = "f"
KIND_FD = "fd"


@dataclass(frozen=True)
class Cube:
    """One table row: ternary input literals and ternary output marks."""

    inputs: str
    outputs: str

    def __post_init__(self) -> None:
        for ch in self.inputs + self.outputs:
            if ch not in _LITERALS:
                raise IllegalChar(f"illegal literal {ch!r} in cube")


@dataclass
class PlaTable:
    """A possibly incomplete, irreversible switching function in cube form."""

    n: int
    m: int
    cubes: list[Cube] = field(default_factory=list)
    kind: str = KIND_FD
    input_labels: list[str] | None = None
    output_labels: list[str] | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise WidthMismatch("tables need at least one input and one output")
        if self.kind not in (KIND_F, KIND_FD):
            raise UnknownDirective(f"unsupported table type {self.kind!r}")
        for cube in self.cubes:
            self._check_cube(cube)

    def _check_cube(self, cube: Cube) -> None:
        if len(cube.inputs) != self.n or len(cube.outputs) != self.m:
            raise WidthMismatch(
                f"cube {cube.inputs} {cube.outputs} does not match .i {self.n} .o {self.m}"
            )
        if self.kind == KIND_F and "-" in cube.outputs:
            raise IllegalChar("type f tables forbid '-' output marks")


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
        bits = []
        for col in range(self.m):
            bit = 1 << (self.m - 1 - col)
            bits.append("-" if dc & bit else "1" if value & bit else "0")
        return "".join(bits)

    def has_dontcares(self) -> bool:
        return any(dc for _, dc in self.entries.values())


def parse_pla(text: str) -> PlaTable:
    """Parse .pla text into a table, preserving cube order."""
    n = m = None
    declared_count = None
    kind = KIND_FD
    ilb = ob = None
    cubes: list[Cube] = []
    ended = False

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ended:
            continue
        if line.startswith("."):
            fields = line.split()
            key = fields[0]
            if key not in _DIRECTIVES:
                raise UnknownDirective(f"unsupported directive {key}")
            if key in (".i", ".o", ".p"):
                if len(fields) != 2 or not fields[1].isdigit():
                    raise WidthMismatch(f"malformed {key} directive: {line!r}")
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
                    raise UnknownDirective(f"unsupported table type in {line!r}")
                kind = fields[1].lower()
            elif key == ".e":
                ended = True
            continue
        if n is None or m is None:
            raise MissingHeader("cube line before .i/.o declarations")
        fields = line.split()
        if len(fields) != 2:
            raise WidthMismatch(f"expected '<inputs> <outputs>', got {line!r}")
        ins, outs = fields
        if len(ins) != n or len(outs) != m:
            raise WidthMismatch(
                f"cube {line!r} has widths {len(ins)}/{len(outs)}, declared {n}/{m}"
            )
        cubes.append(Cube(ins, outs))

    if n is None or m is None:
        raise MissingHeader("missing .i/.o declarations")
    if declared_count is not None and declared_count != len(cubes):
        raise WidthMismatch(f".p {declared_count} but {len(cubes)} cubes parsed")
    if ilb is not None and len(ilb) != n:
        raise WidthMismatch(".ilb label count does not match .i")
    if ob is not None and len(ob) != m:
        raise WidthMismatch(".ob label count does not match .o")
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
    for cube in table.cubes:
        lines.append(f"{cube.inputs} {cube.outputs}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


def _cube_minterms(inputs: str) -> Iterable[int]:
    """All minterms covered by a ternary input string (MSB-first)."""
    n = len(inputs)
    base = 0
    dashes = []
    for col, ch in enumerate(inputs):
        bit = 1 << (n - 1 - col)
        if ch == "1":
            base |= bit
        elif ch == "-":
            dashes.append(bit)
    for k in range(1 << len(dashes)):
        x = base
        for i, bit in enumerate(dashes):
            if k >> i & 1:
                x |= bit
        yield x


def expand(table: PlaTable, *, partial: bool = False) -> SpecTable:
    """Expand cube form into an explicit minterm table.

    Output marks combine across cubes by OR of their ON sets; a One mark wins
    over a DontCare on the same bit.  Minterms covered by no cube default to
    all-zero outputs unless ``partial`` leaves them unspecified.
    """
    if table.n > EXPANSION_LIMIT:
        raise TooWide(f".i {table.n} exceeds the expansion limit of {EXPANSION_LIMIT}")
    on: dict[int, int] = {}
    dc: dict[int, int] = {}
    for cube in table.cubes:
        one_mask = 0
        dc_mask = 0
        for col, ch in enumerate(cube.outputs):
            bit = 1 << (table.m - 1 - col)
            if ch == "1":
                one_mask |= bit
            elif ch == "-":
                dc_mask |= bit
        for x in _cube_minterms(cube.inputs):
            on[x] = on.get(x, 0) | one_mask
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


def table_from_spec(spec: SpecTable) -> PlaTable:
    """Re-express a minterm table in cube form, one cube per entry."""
    n, m = spec.n, spec.m
    cubes = []
    for x in sorted(spec.entries):
        ins = format(x, f"0{n}b")
        cubes.append(Cube(ins, spec.output_bits(x)))
    return PlaTable(n=n, m=m, cubes=cubes)


def encode_integer_pairs(pairs: Sequence[tuple[int, int]]) -> PlaTable:
    """Encode non-negative (domain, range) integer rows as a fully specified table.

    Widths are the bit lengths of the largest domain and range values, i.e.
    ceil(log2(max + 1)) with a minimum of one bit, so exact powers of two
    still fit.
    """
    if not pairs:
        raise WidthMismatch("at least one (domain, range) pair is required")
    seen = set()
    for d, r in pairs:
        if min(d, r) < 0:
            raise NegativeValue(f"negative value in the pair {d},{r}")
        if d in seen:
            raise DuplicateDomain(f"domain value {d} listed twice")
        seen.add(d)
    n = max(1, max(d for d, _ in pairs).bit_length())
    m = max(1, max(r for _, r in pairs).bit_length())
    cubes = [Cube(format(d, f"0{n}b"), format(r, f"0{m}b")) for d, r in pairs]
    return PlaTable(n=n, m=m, cubes=cubes)
