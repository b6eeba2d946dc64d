"""Shared strategies and fixtures for the test suite."""
from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import strategies as st

from qoracle import circuit as circ
from qoracle import esop, pla

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def cube_strings(width: int, alphabet: str = "01-"):
    return st.text(alphabet=alphabet, min_size=width, max_size=width)


def cube(inputs: str, outputs: str) -> pla.Row:
    """The (care, value, ones, dc) table row of 0/1/- input and output strings."""
    (care, value), (out_care, ones) = pla._masks(inputs), pla._masks(outputs)
    return care, value, ones, ~out_care & ((1 << len(outputs)) - 1)


@st.composite
def pla_tables(draw, max_n: int = 5, max_m: int = 3, kind: str | None = None,
               max_cubes: int = 8):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    table_kind = kind if kind is not None else draw(st.sampled_from([pla.KIND_F, pla.KIND_FD]))
    out_alphabet = "01" if table_kind == pla.KIND_F else "01-"
    cubes = draw(
        st.lists(
            st.builds(cube, cube_strings(n), cube_strings(m, out_alphabet)),
            max_size=max_cubes,
        )
    )
    return pla.PlaTable(n=n, m=m, cubes=cubes, kind=table_kind)


def control_masks(controls) -> tuple[int, int]:
    """The (pos, neg) masks of (qubit, polarity) pairs; bit q is qubit q."""
    return (sum(1 << q for q, pol in controls if pol == "+"),
            sum(1 << q for q, pol in controls if pol == "-"))


def gate_controls(gate: circ.Gate) -> tuple[tuple[int, str], ...]:
    """A gate's (qubit, polarity) pairs in ascending qubit order."""
    mask = gate.pos | gate.neg
    return tuple((q, "+" if gate.pos >> q & 1 else "-")
                 for q in range(mask.bit_length()) if mask >> q & 1)


def from_cubes(n: int, m: int, cubes: list[tuple[str, str]]) -> esop.EsopCubeList:
    """An ESOP cube list of 0/1/- (inputs, outputs) pairs; '-' output marks read as 0."""
    return esop.EsopCubeList(n, m, [cube(inputs, outputs)[:3] for inputs, outputs in cubes])


def as_cubes(cubes: esop.EsopCubeList) -> list[tuple[str, str]]:
    """The rows of an ESOP cube list rendered as 0/1/- (inputs, outputs) pairs."""
    return [(pla._literals(care, value, cubes.n), format(outs, f"0{cubes.m}b"))
            for care, value, outs in cubes.cubes]


@st.composite
def classical_circuits(draw, max_width: int = 6, max_gates: int = 10):
    width = draw(st.integers(1, max_width))

    @st.composite
    def gates(inner):
        target = inner(st.integers(0, width - 1))
        others = [q for q in range(width) if q != target]
        controls = inner(
            st.lists(
                st.tuples(st.sampled_from(others), st.sampled_from("+-")),
                unique_by=lambda c: c[0],
                max_size=min(3, len(others)),
            )
            if others
            else st.just([])
        )
        return circ.mcx(target, *control_masks(controls))

    gate_list = draw(st.lists(gates(), max_size=max_gates))
    return circ.Circuit(width=width, gates=gate_list)


@pytest.fixture(scope="session")
def bench_tables() -> dict[str, pla.PlaTable]:
    tables = {}
    for path in sorted(BENCH_DIR.glob("*.pla")):
        tables[path.stem] = pla.parse_pla(path.read_text())
    return tables
