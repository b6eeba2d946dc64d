"""Circuit serialization: a QASM 3 dialect and a JSON netlist."""
from __future__ import annotations

import json

from .circuit import KIND_H, KIND_X, KIND_Z, Circuit, Gate
from .errors import QOracleError

#: Netlist spelling of a control's polarity.
POSITIVE = "+"
NEGATIVE = "-"
_POLARITIES = frozenset((POSITIVE, NEGATIVE))

#: Each kind's netlist spellings without and with controls; the first is
#: also its QASM name.  An H has no controlled spelling.
_SPELLINGS = {KIND_X: ("x", "mcx"), KIND_H: ("h",), KIND_Z: ("z", "mcz")}
#: A netlist spelling's kind and whether the gate has controls.
_KIND_OF = {name: (kind, controlled) for kind, names in _SPELLINGS.items()
          for controlled, name in enumerate(names)}


class _Rendered(dict):
    """A cache that renders a missing key's text once, on first lookup."""

    def __init__(self, render):
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def to_qasm(circuit: Circuit) -> str:
    """Emit OPENQASM 3.0 with ctrl(k) modifiers for multi-control gates.

    Requires a lowered circuit: negative controls have no direct QASM
    spelling here and must be rewritten as X sandwiches first.  A gate's
    line is its kind's head for its control count (``ctrl(k) @ x ``), its
    control mask's operands and its target's ``q[i];``, each rendered once
    per call.  A mask's operands are those of the mask without its top
    qubit, then that qubit's ``q[i], ``.
    """
    width = circuit.width
    operands = [f"q[{q}], " for q in range(width)]
    ends = [f"q[{q}];" for q in range(width)]
    texts = _Rendered(lambda pos: texts[pos ^ 1 << pos.bit_length() - 1]
                      + operands[pos.bit_length() - 1])
    texts[0] = ""
    heads = {kind: [f"ctrl({k}) @ {names[0]} " if k else f"{names[0]} " for k in range(width)]
             for kind, names in _SPELLINGS.items()}
    lines = ["OPENQASM 3.0;", f"qubit[{width}] q;"]
    for kind, target, pos, neg in circuit.gates:
        if neg:
            raise QOracleError("lower the circuit before QASM emission")
        lines.append(f"{heads[kind][pos.bit_count()]}{texts[pos]}{ends[target]}")
    lines.append("// qubit roles (input -> output):")
    for q in range(width):
        lines.append(f"// q[{q}]: {circuit.roles_in[q]} -> {circuit.roles_out[q]}")
    return "\n".join(lines) + "\n"


def to_json(circuit: Circuit) -> str:
    """Serialize to the JSON netlist, gates in execution order.

    A gate is its spelling's head (``mcx``/``mcz`` exactly when it has
    controls), its target's text and its control pairs, each rendered once
    per call and joined as text, in the bytes ``json.dumps`` writes for the
    whole document.  The control masks are keyed as ``neg << width | pos``,
    and a key's pairs are those of the key without its top qubit, then that
    qubit's.
    """
    width = circuit.width
    positive = [f'[{q}, "{POSITIVE}"]' for q in range(width)]
    negative = [f'[{q}, "{NEGATIVE}"]' for q in range(width)]
    targets = [f'{q}, "controls": [' for q in range(width)]

    def pairs(key):
        q = ((key | key >> width) & ~(-1 << width)).bit_length() - 1
        rest = key & ~(1 << q | 1 << q + width)
        pair = positive[q] if key >> q & 1 else negative[q]
        return f"{texts[rest]}, {pair}" if rest else pair

    texts = _Rendered(pairs)
    texts[0] = ""
    heads = {kind: [f'{{"kind": "{name}", "target": ' for name in names]
             for kind, names in _SPELLINGS.items()}
    gates = [f"{heads[kind][pos | neg != 0]}{targets[target]}{texts[neg << width | pos]}]}}"
             for kind, target, pos, neg in circuit.gates]
    roles = [[circuit.roles_in[q], circuit.roles_out[q]] for q in range(width)]
    head = json.dumps({"width": width, "roles": roles})
    end = json.dumps({"provenance": {"source": circuit.source, "method": circuit.method}})
    return f'{head[:-1]}, "gates": [{", ".join(gates)}], {end[1:]}\n'


def from_json(text: str) -> Circuit:
    """Decode a JSON netlist; inverse of to_json.

    The width and every qubit index must be JSON integers, every gate kind
    a spelling that agrees with its control list, and ``roles`` one
    ``[input, output]`` pair per qubit, checked before anything of the
    width's size is built; anything else raises ``QOracleError``.
    """
    try:
        doc = json.loads(text)
        width = _integer(doc["width"], "width")
        entries, roles = doc["gates"], doc["roles"]
        if len(roles) != width:
            raise ValueError(f"{len(roles)} role pairs for width {width}")
        gates = [_gate(g, width) for g in entries]
        provenance = doc.get("provenance", {})
        return Circuit(
            width=width,
            gates=gates,
            roles_in=tuple(str(r[0]) for r in roles),
            roles_out=tuple(str(r[1]) for r in roles),
            source=str(provenance.get("source", "")),
            method=str(provenance.get("method", "")),
        )
    # json.JSONDecodeError is a ValueError; KeyError and IndexError are LookupErrors.
    except (AttributeError, LookupError, RecursionError, TypeError, ValueError) as exc:
        raise QOracleError(f"bad circuit netlist: {exc}") from exc


def _integer(value, name: str) -> int:
    """``value`` if it is a JSON integer; floats and booleans are refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _gate(entry, width: int) -> Gate:
    """One netlist gate entry as a ``Gate``; ``Circuit`` checks it against the width."""
    spelling = entry["kind"]
    if spelling not in _KIND_OF:
        raise ValueError(f"unknown gate kind {spelling!r}")
    kind, controlled = _KIND_OF[spelling]
    target = _integer(entry["target"], "target qubit")
    pos, neg = _masks(entry.get("controls", []), width)
    if controlled != (pos | neg != 0):
        raise ValueError(f"{spelling} gate {'without' if controlled else 'with'} controls")
    return Gate(kind, target, pos, neg)


def _masks(controls, width: int) -> tuple[int, int]:
    """Positive and negative control masks of a gate's [qubit, polarity] pairs.

    Each pair's qubit is checked to be an integer, in range and not repeated,
    then its polarity, inline: this runs once per control of every gate.
    """
    pos = neg = 0
    for q, pol in controls:
        if type(q) is not int:
            raise ValueError(f"control qubit must be an integer, got {q!r}")
        if not 0 <= q < width:
            raise ValueError(f"control qubit {q} outside width {width}")
        bit = 1 << q
        if (pos | neg) & bit:
            raise ValueError(f"control qubit {q} listed twice")
        if pol not in _POLARITIES:
            raise ValueError(f"bad polarity {pol!r}")
        if pol == POSITIVE:
            pos |= bit
        else:
            neg |= bit
    return pos, neg
