"""Verification engines: classical cascade simulation and a statevector backend."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .circuit import (CLASSICAL_KINDS, KIND_H, KIND_MCX, KIND_MCZ, KIND_X, KIND_Z, Circuit,
                      _from_msb_first, _qubits)
from .embed import ROLE_ANCILLA, ROLE_INPUT, ROLE_OUTPUT
from .errors import QOracleError, TooWide
from .pla import SpecTable

#: Hard cap for explicit 2^N statevector enumeration.
SIM_LIMIT = 20

MODE_MINIMAL = "minimal"
MODE_PRESERVE = "preserve"


@dataclass
class VerificationReport:
    total_minterms: int
    checked: int
    mismatches: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        state = "PASS" if self.passed else f"FAIL ({len(self.mismatches)} mismatches)"
        return f"{self.checked}/{self.total_minterms} minterms checked: {state}"


def _transpose(rows: list[int], width: int) -> list[int]:
    """Transpose a bit matrix given as ``width``-bit ints, MSB first.

    Column j comes back as a len(rows)-bit int whose MSB is row 0, so the
    function is its own inverse: it turns basis states into per-qubit
    bit-planes and bit-planes back into basis states.
    """
    nbytes = (width + 7) // 8
    raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "big") for r in rows), dtype=np.uint8)
    bits = np.unpackbits(raw).reshape(len(rows), 8 * nbytes)[:, 8 * nbytes - width:]
    pad = -len(rows) % 8
    return [int.from_bytes(col.tobytes(), "big") >> pad for col in np.packbits(bits.T, axis=1)]


def _keep_bits(planes: list[int], keep: int, count: int) -> list[int]:
    """Squeeze out of ``count``-bit planes the bits clear in ``keep``, in order."""
    nbytes = (count + 7) // 8
    raw = np.frombuffer(b"".join(p.to_bytes(nbytes, "little") for p in (keep, *planes)), np.uint8)
    bits = np.unpackbits(raw.reshape(-1, nbytes), axis=1, bitorder="little")
    kept = np.packbits(bits[1:, bits[0].astype(bool)], axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in kept]


def _run_planes(circuit: Circuit, planes: list[int], full: int) -> None:
    """Apply an X/MCX cascade to per-qubit bit-planes in place.

    Each plane holds one bit per pattern and ``full`` sets all of them; a
    gate ANDs its control planes (complemented for negative controls) and
    XORs the result into its target plane.  Lowered circuits have positive
    controls only, and their masks repeat, so each mask is walked once.
    """
    qubits: dict[int, list[int]] = {}
    for kind, target, pos, neg in circuit.gates:
        if kind not in CLASSICAL_KINDS:
            raise QOracleError(f"{kind} gate has no classical action")
        fire = full
        if pos:
            qs = qubits.get(pos)
            if qs is None:
                qs = qubits[pos] = list(_qubits(pos))
            for q in qs:
                fire &= planes[q]
        if neg:
            for q in _qubits(neg):
                fire &= ~planes[q]
        planes[target] ^= fire


def apply_classical(circuit: Circuit, patterns: list[int]) -> list[int]:
    """Run basis states through an X/MCX cascade, all at once as bit-planes."""
    planes = _transpose(patterns, circuit.width)
    _run_planes(circuit, planes, (1 << len(patterns)) - 1)
    return _transpose(planes, len(patterns))


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


def verify_oracle(circuit: Circuit, spec: SpecTable, mode: str = MODE_MINIMAL) -> VerificationReport:
    """Check a circuit against every specified minterm of a table.

    Function inputs are loaded onto the input-role qubits, ancillas start at
    zero, and the output-role qubits must reproduce each specified output bit
    (don't-cares are skipped).  ``preserve`` mode additionally requires the
    input qubits to still read the applied minterm afterwards.  All minterms
    run at once as bit-planes, so the cost does not depend on the width.
    """
    if mode not in (MODE_MINIMAL, MODE_PRESERVE):
        raise ValueError(f"unknown mode {mode!r}")
    ins, outs = _role_positions(circuit, spec)
    n, m = spec.n, spec.m
    minterms = sorted(spec.entries)
    count = len(minterms)
    report = VerificationReport(total_minterms=count, checked=count)
    # One row per minterm: its input bits, expected outputs and don't-care mask.
    rows = [x << 2 * m | spec.entries[x][0] << m | spec.entries[x][1] for x in minterms]
    cols = _transpose(rows, n + 2 * m)
    planes = [0] * circuit.width
    for q, plane in zip(ins, cols):
        planes[q] = plane
    _run_planes(circuit, planes, (1 << count) - 1)

    bad = 0
    for q, want, dc in zip(outs, cols[n:], cols[n + m:]):
        bad |= (planes[q] ^ want) & ~dc
    if mode == MODE_PRESERVE:
        for q, x in zip(ins, cols):
            bad |= planes[q] ^ x
    if not bad:
        return report

    got = _transpose([planes[q] for q in outs + ins], count)
    for minterm, word in compress(zip(minterms, got), _transpose([bad], count)):
        x_bits, bits = format(minterm, f"0{n}b"), format(word, f"0{m + n}b")
        expected, got_bits = spec.output_bits(minterm), bits[:m]
        if mode == MODE_PRESERVE:
            expected, got_bits = f"{expected}|{x_bits}", f"{bits[:m]}|{bits[m:]}"
        report.mismatches.append((x_bits, expected, got_bits))
    return report


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
    """Apply X/H/Z/MCX/MCZ gates to a statevector (width capped at 20)."""
    width = circuit.width
    if width > SIM_LIMIT:
        raise TooWide(f"width {width} exceeds the simulation limit {SIM_LIMIT}")
    if width != state.width:
        raise ValueError("circuit and state widths differ")
    amps = state.amplitudes.copy()
    idx = np.arange(1 << width)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for gate in circuit.gates:
        tbit = 1 << (width - 1 - gate.target)
        pos = _from_msb_first(gate.pos, width)
        neg = _from_msb_first(gate.neg, width)
        if gate.kind in (KIND_X, KIND_MCX):
            src = np.where((idx & pos == pos) & (idx & neg == 0), idx ^ tbit, idx)
            amps = amps[src]
        elif gate.kind == KIND_H:
            v = amps.reshape([2] * width)
            lo = [slice(None)] * width
            hi = [slice(None)] * width
            lo[gate.target], hi[gate.target] = 0, 1
            a = v[tuple(lo)].copy()
            b = v[tuple(hi)].copy()
            v[tuple(lo)] = (a + b) * inv_sqrt2
            v[tuple(hi)] = (a - b) * inv_sqrt2
            amps = v.reshape(-1)
        elif gate.kind in (KIND_Z, KIND_MCZ):
            sel = (idx & pos == pos) & (idx & neg == 0) & (idx & tbit != 0)
            amps[sel] *= -1.0
        else:
            raise QOracleError(f"statevector backend cannot apply {gate.kind}")
    return StateVector(width, amps)


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
