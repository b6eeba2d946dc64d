"""Verification engines: classical cascade simulation and a statevector backend."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import KIND_X, KIND_Z, ROLE_ANCILLA, ROLE_INPUT, ROLE_OUTPUT, Circuit, _qubits
from .errors import QOracleError, TooWide
from .pla import SpecTable, _word_dtype

#: Hard cap for explicit 2^N statevector enumeration.
SIM_LIMIT = 20


@dataclass(frozen=True)
class VerificationReport:
    total_minterms: int
    checked: int
    mismatches: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mismatches", tuple(self.mismatches))

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        state = "PASS" if self.passed else f"FAIL ({len(self.mismatches)} mismatches)"
        return f"{self.checked}/{self.total_minterms} minterms checked: {state}"


def _planes(column: np.ndarray, width: int) -> list[int]:
    """Bit-planes of ``column``: bit p of plane q is bit ``width - 1 - q`` of ``column[p]``.

    Python-int columns (dtype=object) are split into int64 slices of 63 bits.
    """
    if column.dtype == object:
        return [plane for lo in reversed(range(0, width, 63))
                for plane in _planes((column >> lo & (1 << 63) - 1).astype(np.int64),
                                       min(63, width - lo))]
    return [int.from_bytes(np.packbits(column & (1 << k), bitorder="little").tobytes(), "little")
            for k in reversed(range(width))]


def _values(planes: list[int], size: int) -> np.ndarray:
    """The inverse of ``_planes``: the value at each of ``size`` positions."""
    width = len(planes)
    column = np.zeros(size, _word_dtype(width))
    for q, plane in enumerate(planes):
        bits = np.unpackbits(np.frombuffer(plane.to_bytes(-(-size // 8), "little"), np.uint8),
                             count=size, bitorder="little")
        column |= bits.astype(column.dtype) << (width - 1 - q)
    return column


def _run_planes(circuit: Circuit, planes: list[int], full: int) -> None:
    """Apply a cascade of X gates to per-qubit bit-planes in place.

    Each plane holds one bit per pattern and ``full`` sets all of them; a
    gate ANDs its control planes (complemented for negative controls) and
    XORs the result into its target plane.  Lowered circuits have positive
    controls only, and their masks repeat, so each mask is split once.  A
    gate with the previous gate's masks fires where that gate did: no gate
    targets one of its own controls, so their planes have not changed.
    """
    qubits: dict[int, tuple[int, ...]] = {}
    last_pos = last_neg = -1
    for kind, target, pos, neg in circuit.gates:
        if kind != KIND_X:
            raise QOracleError(f"{kind} gate has no classical action")
        if pos != last_pos or neg != last_neg:
            last_pos, last_neg, fire = pos, neg, full
            qs = qubits.get(pos)
            if qs is None:
                qs = qubits[pos] = _qubits(pos)
            for q in qs:
                fire &= planes[q]
            if neg:
                for q in _qubits(neg):
                    fire &= ~planes[q]
        planes[target] ^= fire


def _role_positions(circuit: Circuit, spec: SpecTable) -> tuple[list[int], list[int]]:
    ins = [q for q, r in enumerate(circuit.roles_in) if r == ROLE_INPUT]
    outs = [q for q, r in enumerate(circuit.roles_out) if r == ROLE_OUTPUT]
    if len(ins) != spec.n:
        raise QOracleError(f"{len(ins)} input qubits for an n={spec.n} table")
    if len(outs) != spec.m:
        raise QOracleError(f"{len(outs)} output qubits for an m={spec.m} table")
    if any(r not in (ROLE_INPUT, ROLE_ANCILLA) for r in circuit.roles_in):
        raise QOracleError("input-side roles must be input or ancilla")
    return ins, outs


def verify_oracle(circuit: Circuit, spec: SpecTable) -> VerificationReport:
    """Check a circuit against every specified minterm of a table.

    Function inputs are loaded onto the input-role qubits, ancillas start at
    zero, and the output-role qubits must reproduce each specified output bit
    (don't-cares are skipped).  An input qubit whose output role is also
    ``input`` must still read its bit of the applied minterm afterwards: every
    input of an ESOP oracle, none of a TBS one.  All minterms run at once as
    bit-planes, so the cost does not depend on the width.
    """
    ins, outs = _role_positions(circuit, spec)
    kept = [j for j, q in enumerate(ins) if circuit.roles_out[q] == ROLE_INPUT]
    n, m = spec.n, spec.m
    minterms = spec.specified()
    count = len(minterms)
    # Position p of every plane is the p-th specified minterm.
    xs = _planes(minterms, n)
    want, dc = _planes(spec.entries[minterms], m), _planes(spec.dc[minterms], m)
    planes = [0] * circuit.width
    for q, plane in zip(ins, xs):
        planes[q] = plane
    _run_planes(circuit, planes, (1 << count) - 1)

    bad = 0
    for q, expected, free in zip(outs, want, dc):
        bad |= (planes[q] ^ expected) & ~free
    for j in kept:
        bad |= planes[ins[j]] ^ xs[j]
    if not bad:
        return VerificationReport(total_minterms=count, checked=count)

    got = _values([planes[q] for q in outs + [ins[j] for j in kept]], count)
    mismatches = []
    for p in np.flatnonzero(_values([bad], count)).tolist():
        x_bits = format(minterms[p], f"0{n}b")
        bits = format(int(got[p]), f"0{m + len(kept)}b")
        expected, got_bits = spec.output_bits(minterms[p]), bits[:m]
        if kept:
            expected += "|" + "".join(x_bits[j] for j in kept)
            got_bits += "|" + bits[m:]
        mismatches.append((x_bits, expected, got_bits))
    return VerificationReport(total_minterms=count, checked=count, mismatches=mismatches)


@dataclass
class StateVector:
    width: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.width,):
            raise ValueError("amplitude vector must have 2^width entries")
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} is not 1")


def zero_state(width: int) -> StateVector:
    amps = np.zeros(1 << width, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(width, amps)


def apply_statevector(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply X, H and Z gates to a statevector (width capped at 20).

    The amplitudes sit on one axis per qubit.  Each gate acts on the block
    where its controls hold, split by its target into a 0 and a 1 half.
    """
    width = circuit.width
    if width > SIM_LIMIT:
        raise TooWide(f"width {width} exceeds the simulation limit {SIM_LIMIT}")
    if width != state.width:
        raise ValueError("circuit and state widths differ")
    v = state.amplitudes.reshape([2] * width).copy()
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for kind, target, pos, neg in circuit.gates:
        at = [slice(None)] * width
        for q in _qubits(pos):
            at[q] = 1
        for q in _qubits(neg):
            at[q] = 0
        at[target] = 0
        lo = tuple(at)
        at[target] = 1
        hi = tuple(at)
        if kind == KIND_X:
            v[lo], v[hi] = v[hi], v[lo].copy()
        elif kind == KIND_Z:
            v[hi] *= -1.0
        else:
            a, b = v[lo], v[hi]
            v[lo], v[hi] = (a + b) * inv_sqrt2, (a - b) * inv_sqrt2
    return StateVector(width, v.reshape(-1))


def sample(state: StateVector, shots: int, seed: int) -> dict[str, int]:
    """Seeded multinomial sampling; identical seeds give identical histograms."""
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {
        format(int(i), f"0{state.width}b"): int(counts[i])
        for i in np.flatnonzero(counts)
    }


def marginal_probabilities(state: StateVector, keep: int) -> np.ndarray:
    """Probabilities of the first ``keep`` qubits, traced over the rest."""
    probs = np.abs(state.amplitudes) ** 2
    probs = probs.reshape([2] * state.width)
    for _ in range(state.width - keep):
        probs = probs.sum(axis=-1)
    return probs.reshape(-1)
