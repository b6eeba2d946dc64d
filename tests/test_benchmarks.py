"""Bundled benchmark set: manifest integrity and interface checks."""
from __future__ import annotations

import hashlib
import importlib.util
import json

import numpy as np

from qoracle import embed, esop, pla
from qoracle.cli import _reexpress

from conftest import BENCH_DIR


def load_manifest() -> dict:
    return json.loads((BENCH_DIR / "manifest.json").read_text())


def test_manifest_matches_files():
    manifest = load_manifest()
    names = {entry["name"] for entry in manifest["functions"]}
    files = {p.stem for p in BENCH_DIR.glob("*.pla")}
    assert names == files
    for entry in manifest["functions"]:
        text = (BENCH_DIR / entry["file"]).read_text()
        assert hashlib.sha256(text.encode()).hexdigest() == entry["sha256"], entry["name"]


def test_generator_writes_the_bundled_files():
    path = BENCH_DIR.parent / "scripts" / "make_benchmarks.py"
    spec = importlib.util.spec_from_file_location("make_benchmarks", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert len(generator.FUNCTIONS) == 12
    for name in generator.FUNCTIONS:
        text = pla.write_pla(generator.build_table(name))
        assert text.encode() == (BENCH_DIR / f"{name}.pla").read_bytes(), name


def test_manifest_declares_true_interfaces(bench_tables):
    manifest = load_manifest()
    for entry in manifest["functions"]:
        table = bench_tables[entry["name"]]
        assert (table.n, table.m) == (entry["inputs"], entry["outputs"])
        assert len(table.cubes) == entry["cubes"]


def _evaluate_cubes(cubes: esop.EsopCubeList, xs: np.ndarray) -> np.ndarray:
    """Vectorized XOR-semantics evaluation of a cube list over inputs."""
    out = np.zeros(len(xs), dtype=np.int64)
    for care, value, outs in cubes.cubes:
        out[(xs & care) == value] ^= outs
    return out


def test_wide_expansion_cube_lists_match_completed_permutation(bench_tables):
    # The inc expansion is too wide for circuit-level simulation, so check
    # the minimized cube list itself against every row of the completed
    # permutation.
    table = bench_tables["inc"]
    resolved = embed.resolve_dontcares(pla.expand(table))
    partial, report = embed.rtt_embed(resolved)
    total = embed.complete_onto_hamming(partial)
    re_spec = _reexpress(total, report, table.n, table.m)
    cubes = esop.minimize_esop(esop.sop_to_esop(pla.table_from_spec(re_spec)))
    xs = np.arange(1 << re_spec.n)
    got = _evaluate_cubes(cubes, xs)
    want = np.array([re_spec.entries[int(x)][0] for x in xs])
    assert np.array_equal(got, want)


def test_wide_esop_cube_lists_match_expansion(bench_tables):
    # b11, apex4 and ex5 produce circuits past the simulation limit; their
    # minimized cube lists are checked directly against the expansion.
    for name in ("b11", "apex4", "ex5"):
        table = bench_tables[name]
        spec = pla.expand(table)
        cubes = esop.minimize_esop(esop.sop_to_esop(table))
        xs = np.arange(1 << table.n)
        got = _evaluate_cubes(cubes, xs)
        want = np.array([spec.entries[int(x)][0] for x in xs])
        assert np.array_equal(got, want), name


def test_manifest_duplication_profiles(bench_tables):
    manifest = load_manifest()
    for entry in manifest["functions"]:
        table = bench_tables[entry["name"]]
        if table.n > 9:
            continue
        spec = pla.expand(table)
        profile = entry["profile"]
        d = embed.max_output_multiplicity(spec)
        v = (d - 1).bit_length() if d >= 2 else 0
        w = max(0, v + table.m - table.n)
        assert d == profile["d"], entry["name"]
        assert v == profile["v"] and w == profile["w"]
        assert max(table.n + w, table.m + v) == profile["n_total"]
