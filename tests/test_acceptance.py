"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected qubit counts and the complexity envelope are the reference values
for the bundled benchmark set; they hold as long as the vendored tables
keep the declared input/output counts and duplication profiles recorded in
benchmarks/manifest.json.
"""
from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from qoracle import circuit as circ
from qoracle import cli, embed, esop, grover, pla, sim, tbs
from qoracle.cli import run_synthesis
from qoracle.errors import GateLimitExceeded, SynthesisTimeout, TooWide

from conftest import BENCH_DIR, apply_classical, cube, induced_permutation, spec_table

EXPECTED_ESOP_QUBITS = {
    "squar5": 13, "Z9sym": 10, "inc": 16, "Z5xp1": 17, "dist": 13, "f51m": 16,
    "mlp4": 16, "clip": 14, "addm4": 17, "b11": 39, "apex4": 28, "ex5": 71,
}
EXPECTED_RTT_ESOP_QUBITS = {
    "squar5": 18, "Z9sym": 20, "inc": 28, "Z5xp1": 20, "dist": 20,
    "f51m": 16, "mlp4": 26, "clip": 22, "addm4": 26,
}
RTT_TOO_LARGE = ("b11", "apex4", "ex5")
EXPECTED_TBS_QUBITS = {
    "squar5": 9, "Z9sym": 10, "Z5xp1": 10, "dist": 10, "f51m": 8, "clip": 11,
}
COMPLEXITY_REFERENCE = {
    "squar5": 150, "Z9sym": 530, "inc": 441, "Z5xp1": 291, "dist": 918,
    "f51m": 239, "mlp4": 615, "clip": 824, "addm4": 942, "b11": 517,
    "apex4": 35393, "ex5": 4374,
}


def report_line(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


@pytest.fixture(scope="module")
def matrix(bench_tables):
    """Synthesize every (function, method) pair once; cache outcomes."""
    outcomes = {}
    for name, table in bench_tables.items():
        for method in ("esop", "esop-rtt", "tbs"):
            try:
                outcomes[(name, method)] = cli._run_with_timeout(
                    600, table, method, source=name
                )
            except (TooWide, GateLimitExceeded, SynthesisTimeout) as exc:
                outcomes[(name, method)] = exc
    return outcomes


def test_criterion_01_esop_qubit_counts(matrix):
    got = {}
    for name in EXPECTED_ESOP_QUBITS:
        outcome = matrix[(name, "esop")]
        got[name] = outcome.report.qubits if not isinstance(outcome, Exception) else None
    report_line(1, "ESOP qubit counts (12 functions)", got == EXPECTED_ESOP_QUBITS, f"{got}")


def test_criterion_02_rtt_esop_qubit_counts(matrix):
    got = {}
    for name in EXPECTED_RTT_ESOP_QUBITS:
        outcome = matrix[(name, "esop-rtt")]
        got[name] = outcome.report.qubits if not isinstance(outcome, Exception) else None
    too_large_ok = all(
        isinstance(matrix[(name, "esop-rtt")], TooWide) for name in RTT_TOO_LARGE
    )
    doubled = all(
        got[name] == 2 * EXPECTED_TBS_QUBITS[name] for name in EXPECTED_TBS_QUBITS
    )
    ok = got == EXPECTED_RTT_ESOP_QUBITS and too_large_ok and doubled
    report_line(2, "RTT+ESOP qubit counts (9 functions, 3 oversize)", ok, f"{got}")


def test_criterion_03_tbs_qubit_counts(matrix):
    got = {}
    for name in EXPECTED_TBS_QUBITS:
        outcome = matrix[(name, "tbs")]
        got[name] = outcome.report.qubits if not isinstance(outcome, Exception) else None
    report_line(3, "TBS qubit counts (6 functions)", got == EXPECTED_TBS_QUBITS, f"{got}")


def test_criterion_04_verification_and_complexity_envelope(matrix):
    unverified = []
    for (name, method), outcome in matrix.items():
        if isinstance(outcome, Exception):
            continue
        if outcome.circuit.width <= sim.SIM_LIMIT:
            ok = (
                outcome.verification is not None
                and outcome.verification.passed
                and outcome.verification.checked == outcome.verification.total_minterms
            )
            if not ok:
                unverified.append((name, method))
    out_of_envelope = []
    for name, ref in COMPLEXITY_REFERENCE.items():
        got = matrix[(name, "esop")].report.complexity
        if not ref / 10 <= got <= ref * 10:
            out_of_envelope.append((name, got, ref))
    ok = not unverified and not out_of_envelope
    report_line(
        4,
        "all width<=20 circuits verify; ESOP complexity within 10x of reference",
        ok,
        f"unverified={unverified} out_of_envelope={out_of_envelope}",
    )


def test_criterion_04_every_ok_item_verifies_in_full(matrix):
    partial = [
        key for key, outcome in matrix.items()
        if not isinstance(outcome, Exception)
        and not (outcome.verification.passed
                 and outcome.verification.checked == outcome.verification.total_minterms)
    ]
    report_line(4, "every synthesized circuit verifies on all its minterms, at any width",
                not partial, f"unverified={partial}")


def test_criterion_05_tbs_soundness_sweep():
    start = time.monotonic()
    checked = 0
    for perm in itertools.permutations(range(8)):
        spec = embed.ReversibleSpec(3, np.array(perm, dtype=np.int64))
        for direction in (tbs.UNIDIRECTIONAL, tbs.BIDIRECTIONAL):
            circuit = tbs.tbs_synthesize(spec, direction=direction)
            assert tuple(induced_permutation(circuit)) == perm
            checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 2 * 40320 and elapsed < 60
    report_line(5, "3-qubit permutation sweep, both directions", ok,
                f"{checked} syntheses in {elapsed:.1f}s")


def test_criterion_06_esop_round_trip_property():
    rng = np.random.default_rng(20240901)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        dash_p = float(rng.uniform(0.0, 0.5))
        dc_p = float(rng.uniform(0.0, 0.6))
        cubes = []
        for _ in range(int(rng.integers(1, 2 * n + 3))):
            ins = "".join(
                "-" if rng.random() < dash_p else str(rng.integers(0, 2))
                for _ in range(n)
            )
            outs = "".join(
                "-" if rng.random() < dc_p else str(rng.integers(0, 2))
                for _ in range(m)
            )
            cubes.append(cube(ins, outs))
        table = pla.PlaTable(n=n, m=m, cubes=cubes)
        spec = pla.expand(table)
        lowered = circ.lower_polarity(
            esop.esop_to_circuit(esop.minimize_esop(esop.sop_to_esop(table)))
        )
        if not sim.verify_oracle(lowered, spec).passed:
            failures += 1
            continue
        # XOR shift: with the ancilla register at all-ones the output qubits
        # read the complement of every resolved function bit.
        ones = (1 << m) - 1
        outs = apply_classical(lowered, [(x << m) | ones for x in range(1 << n)])
        for x in range(1 << n):
            got = outs[x]
            value, dc = int(spec.entries[x]), int(spec.dc[x])
            if got >> m != x or (got & ones) & ~dc != (value ^ ones) & ~dc:
                failures += 1
                break
    report_line(6, "1000 random tables verify end to end with XOR shift",
                failures == 0, f"{failures} failures")


def _card_oracle(query: str) -> circ.Circuit:
    table = grover.card_query_to_pla(grover.parse_query(query))
    return run_synthesis(table, "esop", source=query).circuit


def test_criterion_07_grover_diamonds():
    search = grover.build_grover(_card_oracle("suit=diamonds,rank=10"), 6)
    state = grover.search_state(search)
    prob = float(sim.marginal_probabilities(state, 6)[0b101010])
    counts = sim.sample(state, 1024, seed=7).reshape(1 << 6, -1).sum(axis=1)
    correct = int(counts[0b101010])
    ok = abs(prob - 0.9966) < 1e-3 and correct >= 980
    report_line(7, "diamonds search: probability and 1024-shot sampling", ok,
                f"p={prob:.4f} correct_shots={correct}")


def test_criterion_08_grover_clubs():
    plan = grover.plan_search(6, 16)
    search = grover.build_grover(_card_oracle("suit=clubs"), plan.iterations)
    dist = sim.marginal_probabilities(grover.search_state(search), 6)
    marked = [x for x in range(64) if x >> 4 == 0]
    total = float(sum(dist[x] for x in marked))
    worst = max(abs(float(dist[x]) - 1 / 16) for x in marked)
    ok = plan.iterations == 1 and total >= 0.999 and worst < 1e-6
    report_line(8, "clubs search: 16 suit-00 patterns at 1/16 each", ok,
                f"r={plan.iterations} total={total:.6f} worst_delta={worst:.2e}")


def test_criterion_09_complexity_units():
    x_cost = circ.complexity(circ.Circuit(1, [circ.x(0)]))
    cnot = circ.complexity(circ.Circuit(2, [circ.mcx(1, 1 << 0)]))
    ccx = circ.complexity(circ.Circuit(3, [circ.mcx(2, 1 << 0 | 1 << 1)]))
    mcx6 = circ.complexity(
        circ.Circuit(7, [circ.mcx(6, (1 << 6) - 1)])
    )
    ok = (x_cost, cnot, ccx, mcx6) == (1, 2, 3, 7)
    report_line(9, "gate cost units (X, CNOT, CCX, 6-control MCX)", ok,
                f"{(x_cost, cnot, ccx, mcx6)}")


def test_criterion_10_rtt_worked_example():
    spec = spec_table(2, 1, {0b00: (0, 0), 0b01: (0, 0), 0b10: (1, 0), 0b11: (0, 0)})
    partial, report = embed.rtt_embed(spec)
    rows = {x: int(y) for x, y in enumerate(partial.perm) if y != embed.UNSPECIFIED}
    ok = (
        (report.d, report.v, report.w, report.n_total) == (3, 2, 1, 3)
        and rows == {0b000: 0b000, 0b010: 0b001, 0b100: 0b100, 0b110: 0b010}
    )
    report_line(10, "duplicate-output embedding worked example", ok,
                f"D={report.d} v={report.v} w={report.w} N={report.n_total} rows={rows}")
