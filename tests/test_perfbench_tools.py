"""The pipeline against the benchmark's independent checker, and its tracer's span coverage.

``perfbench/`` is imported as it stands: ``oracle_check`` shares no code with
``qoracle``, and ``layertrace`` wraps the layer functions from outside.
"""
from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qoracle
from qoracle import cli, emit, pla, sim

from conftest import BENCH_DIR, pla_tables

sys.path.insert(0, str(BENCH_DIR.parent / "perfbench"))
import layertrace  # noqa: E402
import oracle_check  # noqa: E402
import workloads  # noqa: E402


def _uncovered(table: pla.PlaTable) -> int:
    """The plane of minterms that no cube of ``table`` covers."""
    return sum(1 << x for x in range(1 << table.n)
               if not any((x ^ value) & care == 0 for care, value, *_ in table.cubes))


@settings(max_examples=150, deadline=None)
@given(pla_tables(), st.sampled_from(cli.METHODS), st.booleans(), st.booleans(),
       st.booleans(), st.sampled_from(cli.COMPLETIONS))
def test_option_matrix_matches_independent_checker(table, method, minimize, dc_minimize,
                                                   partial, completion):
    text = pla.write_pla(table)
    if dc_minimize and method == "esop":
        with pytest.raises(ValueError, match="dc_minimize"):
            cli.run_synthesis(pla.parse_pla(text), method, dc_minimize=True)
        return
    result = cli.run_synthesis(pla.parse_pla(text), method, minimize=minimize,
                               dc_minimize=dc_minimize, partial=partial,
                               completion=completion)
    spec = oracle_check.spec_from_pla(text)
    if partial:
        spec.dc = [dc | _uncovered(table) for dc in spec.dc]
    netlist = emit.to_json(result.circuit)
    checked = oracle_check.check_netlist(netlist, spec)
    assert checked.mismatches == 0
    assert checked.width == result.report.qubits
    # What ``qoracle verify`` runs; an esop-rtt netlist computes the completed
    # embedding on n + w inputs, not the table.
    if method != "esop-rtt":
        report = sim.verify_oracle(emit.from_json(netlist), pla.expand(table, partial=partial))
        assert report.passed, report.mismatches


def test_tracer_fires_every_expected_span():
    for workload in workloads.WORKLOADS:
        items = [item for item in workloads.load(workload, BENCH_DIR.parent)
                 if item.key.split("/")[0] in ("squar5", "f51m")]
        tracer = layertrace.Tracer(qoracle)
        with tracer.installed():
            outcomes = [workloads.run(qoracle, item) for item in items]
        assert [o.status for o in outcomes] == ["ok"] * len(items)
        assert set(workloads.EXPECTED_SPANS[workload]) <= set(tracer.calls), workload
        assert set(tracer.metrics()) == set(layertrace.METRICS)
