"""Command-line behaviors: pipelines, bench harness, exit codes."""
from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qoracle
from qoracle import circuit as circ
from qoracle import cli, embed, emit, esop, pla, sim, tbs
from qoracle.cli import main
from qoracle.errors import GateLimitExceeded, SynthesisTimeout, TooWide, VerificationFailed

from conftest import BENCH_DIR, cube, slow

SQUAR5 = str(BENCH_DIR / "squar5.pla")


def read_metrics(path: Path) -> dict:
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "method,qubits", [("esop", 13), ("esop-rtt", 18), ("tbs", 9)]
)
def test_synth_squar5_methods(tmp_path, method, qubits):
    out = tmp_path / "c.qasm"
    metrics = tmp_path / "m.json"
    code = main([
        "synth", "--in", SQUAR5, "--method", method,
        "--out", str(out), "--metrics", str(metrics),
    ])
    assert code == 0
    report = read_metrics(metrics)
    assert report["qubits"] == qubits
    assert set(report) == {"qubits", "gate_count", "complexity", "time_us"}
    assert out.read_text().startswith("OPENQASM 3.0;")


def test_synth_writes_netlist_roundtrip(tmp_path):
    out = tmp_path / "c.qasm"
    netlist = tmp_path / "c.json"
    assert main([
        "synth", "--in", SQUAR5, "--method", "esop",
        "--out", str(out), "--netlist", str(netlist),
    ]) == 0
    circuit = emit.from_json(netlist.read_text())
    assert circuit.width == 13
    assert emit.to_qasm(circuit) == out.read_text()


def test_synth_missing_file_exits_2(tmp_path):
    assert main([
        "synth", "--in", str(tmp_path / "nope.pla"), "--method", "esop",
        "--out", str(tmp_path / "c.qasm"),
    ]) == 2


def test_synth_input_directory_exits_2(tmp_path, capsys):
    assert main([
        "synth", "--in", str(tmp_path), "--method", "esop",
        "--out", str(tmp_path / "c.qasm"),
    ]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("file error:")
    assert "Traceback" not in captured.out + captured.err


def test_bench_csv_directory_exits_2(tmp_path, capsys):
    small = tmp_path / "bench"
    small.mkdir()
    (small / "f51m.pla").write_text((BENCH_DIR / "f51m.pla").read_text())
    assert main([
        "bench", "--dir", str(small), "--methods", "esop", "--csv", str(tmp_path),
    ]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("file error:")
    assert "Traceback" not in captured.out + captured.err


def test_bench_csv_bad_path_fails_before_synthesis(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "bench_row", lambda task: calls.append(task) or [])
    assert main([
        "bench", "--dir", str(BENCH_DIR), "--methods", "esop", "--csv", str(tmp_path),
    ]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("file error:")
    assert calls == []


def test_synth_fractional_timeout(tmp_path, capsys):
    assert main([
        "synth", "--in", SQUAR5, "--method", "tbs", "--timeout-s", "0.5",
        "--out", str(tmp_path / "c.qasm"),
    ]) == 0
    capsys.readouterr()
    assert main([
        "synth", "--in", str(BENCH_DIR / "addm4.pla"), "--method", "tbs",
        "--timeout-s", "0.000001", "--out", str(tmp_path / "d.qasm"),
    ]) == 4
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("timeout:")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("method", [
    ["--method", "esop"],
    ["--method", "esop-rtt", "--completion", "naive"],
], ids=["esop", "esop-rtt-naive"])
def test_synth_timeout_bounds_unminimized_esop(tmp_path, capsys, method):
    out = tmp_path / "c.qasm"
    assert main([
        "synth", "--in", SQUAR5, *method, "--no-minimize", "--timeout-s", "1e-9",
        "--out", str(out),
    ]) == 4
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("timeout:")
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def _assert_usage_error(code, capsys, flag):
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag} must be"), err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("value", ["nan", "0", "-1", "inf", "-inf", "1e12"])
@pytest.mark.parametrize("method", ["esop", "tbs"])
def test_synth_rejects_non_positive_timeout(tmp_path, capsys, value, method):
    code = main([
        "synth", "--in", SQUAR5, "--method", method, "--no-minimize",
        f"--timeout-s={value}", "--out", str(tmp_path / "c.qasm"),
    ])
    _assert_usage_error(code, capsys, "--timeout-s")
    assert not (tmp_path / "c.qasm").exists()


@pytest.mark.parametrize("value", ["nan", "0", "-1", "1e12"])
def test_bench_rejects_non_positive_timeout(tmp_path, capsys, value):
    code = main([
        "bench", "--dir", str(BENCH_DIR), "--csv", str(tmp_path / "r.csv"),
        f"--timeout-s={value}",
    ])
    _assert_usage_error(code, capsys, "--timeout-s")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("extra,flag", [
    (["--jobs", "-3"], "--jobs"),
    (["--methods", ","], "--methods"),
    (["--methods", ",", "--jobs", "2"], "--methods"),
    (["--methods", "esop,foo"], "--methods"),
    (["--methods", "esop,esop,tbs"], "--methods"),
    (["--dir", "/nonexistent-benchmark-dir"], "--dir"),
], ids=["negative-jobs", "no-method", "no-method-parallel", "unknown-method", "repeated-method",
        "missing-dir"])
def test_bench_rejects_bad_jobs_and_methods(tmp_path, capsys, extra, flag):
    code = main([
        "bench", "--dir", str(BENCH_DIR), "--csv", str(tmp_path / "r.csv"), *extra,
    ])
    _assert_usage_error(code, capsys, flag)
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("method", ["tbs", "esop-rtt"])
def test_synth_naive_completion(tmp_path, capsys, method):
    assert main([
        "synth", "--in", SQUAR5, "--method", method, "--completion", "naive",
        "--out", str(tmp_path / "c.qasm"),
    ]) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")


@pytest.mark.parametrize("name", sorted(path.stem for path in BENCH_DIR.glob("*.pla")))
def test_run_synthesis_dc_minimize_verifies(bench_tables, name):
    # Min-duplication serves the embedding, so method esop refuses it.
    table = bench_tables[name]
    with pytest.raises(ValueError, match="dc_minimize"):
        cli.run_synthesis(table, "esop", dc_minimize=True)
    try:
        result = cli.run_synthesis(table, "esop-rtt", dc_minimize=True)
    except TooWide:
        assert name in ("apex4", "b11", "ex5")
    else:
        assert result.verification.passed


def test_synth_dc_minimize(tmp_path, capsys):
    out = tmp_path / "c.qasm"
    assert main([
        "synth", "--in", SQUAR5, "--method", "esop", "--dc-minimize", "--out", str(out),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: dc_minimize resolves don't-cares for the embedding, "
        "which method 'esop' does not build"]
    assert not out.exists()
    assert main([
        "synth", "--in", SQUAR5, "--method", "esop-rtt", "--dc-minimize", "--out", str(out),
    ]) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")


def test_run_synthesis_rejects_unknown_completion():
    table = pla.parse_pla(Path(SQUAR5).read_text())
    with pytest.raises(ValueError):
        cli.run_synthesis(table, "tbs", completion="bogus")


def test_run_synthesis_rejects_unknown_method():
    table = pla.parse_pla(Path(SQUAR5).read_text())
    with pytest.raises(ValueError, match="^unknown method 'bogus'$"):
        cli.run_synthesis(table, "bogus")


STAGES = {
    "esop": ("esop.sop_to_esop", "esop.minimize_esop", "circuit.lower_polarity",
             "sim.verify_oracle"),
    "esop-rtt": ("embed.rtt_embed", "embed.complete_onto_hamming", "embed.finish_report",
                 "embed.reexpress", "esop.spec_to_esop", "esop.minimize_esop",
                 "circuit.lower_polarity", "sim.verify_oracle"),
    "tbs": ("embed.rtt_embed", "embed.complete_onto_hamming", "embed.finish_report",
            "tbs.tbs_synthesize", "circuit.lower_polarity", "sim.verify_oracle"),
}
STAGES["tbs-bidirectional"] = STAGES["tbs"]


@pytest.mark.parametrize("method", list(STAGES))
def test_run_synthesis_looks_stages_up_at_call_time(monkeypatch, method):
    """Each stage runs through its module attribute, so a patched one is seen."""
    calls = Counter()
    for name in sorted(set().union(*STAGES.values())):
        module, attr = name.split(".")
        module = getattr(qoracle, module)
        original = getattr(module, attr)

        def record(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, record)
    cli.run_synthesis(pla.parse_pla(Path(SQUAR5).read_text()), method)
    assert calls == Counter(STAGES[method])


#: Every stage run_synthesis calls: STAGES plus expansion, resolution and cube mapping.
TIMED_STAGES = [
    (method, stage)
    for method in cli.METHODS
    for stage in ("pla.expand", *STAGES[method],
                  *(("embed.resolve_dontcares",) if method != "esop" else ()),
                  *(("esop.esop_to_circuit",) if method.startswith("esop") else ()))
]


@pytest.fixture
def caller_alarm():
    """A SIGALRM handler of the caller's own, installed for the test and removed after it."""
    def handler(signum, frame):
        raise AssertionError("the caller's SIGALRM handler ran")

    before = signal.signal(signal.SIGALRM, handler)
    yield handler
    signal.signal(signal.SIGALRM, before)


def _assert_alarm_restored(handler):
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("method,stage", TIMED_STAGES,
                         ids=[f"{m}-{s}" for m, s in TIMED_STAGES])
def test_timeout_names_the_running_stage(monkeypatch, caller_alarm, method, stage):
    module, attr = stage.split(".")
    module = getattr(qoracle, module)
    monkeypatch.setattr(module, attr, slow(getattr(module, attr)))
    table = pla.parse_pla(Path(SQUAR5).read_text())
    started = time.monotonic()
    with pytest.raises(SynthesisTimeout,
                       match=f"^gave up after 0.2 s in {re.escape('qoracle.' + stage)}$"):
        cli._run_with_timeout(0.2, table, method)
    assert time.monotonic() - started < 1
    _assert_alarm_restored(caller_alarm)


def _slow_lowering(monkeypatch):
    monkeypatch.setattr(circ, "lower_polarity", slow(circ.lower_polarity))


def _gate_limit_5(monkeypatch):
    monkeypatch.setattr(tbs, "GATE_LIMIT", 5)


def _failing_verification(monkeypatch):
    failing = sim.VerificationReport(32, 32, [("00000", "000000", "000001")])
    monkeypatch.setattr(sim, "verify_oracle", lambda *args: failing)


@pytest.mark.parametrize("name,method,patch,timeout_s,raised", [
    ("squar5", "esop", None, 600, None),
    ("squar5", "esop", _slow_lowering, 0.2, SynthesisTimeout),
    ("b11", "tbs", None, 600, TooWide),
    ("squar5", "tbs", _gate_limit_5, 600, GateLimitExceeded),
    ("squar5", "esop", _failing_verification, 600, VerificationFailed),
    ("squar5", "esop", None, 0, ValueError),
], ids=["ok", "timeout", "too-wide", "gate-limit", "verification-failed", "refused-timeout"])
def test_run_synthesis_restores_alarm_on_every_exit(monkeypatch, caller_alarm, bench_tables,
                                                    name, method, patch, timeout_s, raised):
    if patch is not None:
        patch(monkeypatch)
    if raised is None:
        result = cli._run_with_timeout(timeout_s, bench_tables[name], method)
        assert result.verification.passed
    else:
        with pytest.raises(raised):
            cli._run_with_timeout(timeout_s, bench_tables[name], method)
    _assert_alarm_restored(caller_alarm)


@pytest.mark.parametrize("timeout_s", [0, -1, 1e12, float("nan"), float("inf")])
def test_run_synthesis_refuses_timeouts_the_timer_cannot_arm(bench_tables, timeout_s):
    with pytest.raises(ValueError, match="^timeout_s must be"):
        cli._run_with_timeout(timeout_s, bench_tables["squar5"], "esop")


@pytest.mark.parametrize("method", cli.METHODS)
def test_run_synthesis_runs_off_the_main_thread(bench_tables, method):
    # The pool's worker is a threading.Thread; result() re-raises what it raised.
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        result = pool.submit(cli.run_synthesis, bench_tables["squar5"], method).result()
    assert result.verification.passed


def test_run_synthesis_leaves_the_callers_timer_alone(caller_alarm, bench_tables):
    signal.setitimer(signal.ITIMER_REAL, 100)
    try:
        cli.run_synthesis(bench_tables["squar5"], "esop")
        assert signal.getsignal(signal.SIGALRM) is caller_alarm
        assert signal.getitimer(signal.ITIMER_REAL)[0] > 99
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def test_alarm_outside_run_synthesis_names_run_synthesis():
    # Under a 1e-9 s budget the alarm can land in the helper, before the call or after it.
    with pytest.raises(SynthesisTimeout,
                       match=r"^gave up after 0\.5 s in qoracle\.cli\.run_synthesis$"):
        cli._on_alarm(0.5, signal.SIGALRM, sys._getframe())


@pytest.mark.parametrize("name", ["squar5", "dist"])
def test_tbs_result_keeps_raw_tbs_gates(name):
    # TBS emits positive controls only, so lowering hands its circuit back as is.
    table = pla.parse_pla((BENCH_DIR / f"{name}.pla").read_text())
    partial, _ = embed.rtt_embed(embed.resolve_dontcares(pla.expand(table)))
    raw = tbs.tbs_synthesize(embed.complete_onto_hamming(partial))
    assert cli.run_synthesis(table, "tbs").circuit.gates == raw.gates


def test_synth_verification_failure_exits_3(tmp_path, monkeypatch, capsys):
    failing = sim.VerificationReport(32, 32, [("00000", "000000", "000001")])
    monkeypatch.setattr(sim, "verify_oracle", lambda *args: failing)
    assert main([
        "synth", "--in", SQUAR5, "--method", "esop", "--out", str(tmp_path / "c.qasm"),
    ]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "verification failed: 32/32 minterms checked: FAIL (1 mismatches)"]
    assert captured.out == ""
    assert not (tmp_path / "c.qasm").exists()


def test_verification_failed_survives_a_pickle_round_trip():
    report = sim.VerificationReport(32, 32, [("00000", "000000", "000001")])
    copy = pickle.loads(pickle.dumps(VerificationFailed(report)))
    assert copy.report == report
    assert str(copy) == report.summary()


def test_bench_parallel_verification_failure_exits_3(tmp_path, monkeypatch, capsys):
    # Forked workers inherit the patch, and the failure crosses the pool's pickle.
    _failing_verification(monkeypatch)
    small = tmp_path / "bench"
    small.mkdir()
    (small / "squar5.pla").write_text(Path(SQUAR5).read_text())
    assert main([
        "bench", "--dir", str(small), "--methods", "esop,esop-rtt",
        "--csv", str(tmp_path / "rows.csv"), "--jobs", "2",
    ]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "verification failed: 32/32 minterms checked: FAIL (1 mismatches)"]


def test_synth_repeated_directive_exits_2(tmp_path, capsys):
    table, out = tmp_path / "t.pla", tmp_path / "c.qasm"
    table.write_text(".i 2\n.o 1\n01 1\n.i 3\n.e\n")
    assert main(["synth", "--in", str(table), "--method", "esop", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: repeated .i directive: '.i 3'"]
    assert not out.exists()


def test_synth_too_large_exits_4(tmp_path):
    assert main([
        "synth", "--in", str(BENCH_DIR / "b11.pla"), "--method", "tbs",
        "--out", str(tmp_path / "c.qasm"),
    ]) == 4


def test_bench_small_matrix(tmp_path):
    csv_path = tmp_path / "rows.csv"
    code = main([
        "bench", "--dir", str(BENCH_DIR), "--methods", "esop",
        "--csv", str(csv_path),
    ])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "function,inputs,outputs,method,qubits,gate_count,complexity,time_us,status"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 12
    assert all(r[-1] == "ok" for r in rows)
    by_name = {r[0]: r for r in rows}
    assert by_name["squar5"][4] == "13"
    assert by_name["ex5"][4] == "71"


def test_bidirectional_tbs_is_a_method(tmp_path, capsys):
    # bench runs it beside tbs, and synth takes it as a method, not as a flag.
    single = tmp_path / "bench"
    single.mkdir()
    (single / "squar5.pla").write_text(Path(SQUAR5).read_text())
    csv_path = tmp_path / "rows.csv"
    assert main([
        "bench", "--dir", str(single), "--methods", "tbs,tbs-bidirectional",
        "--csv", str(csv_path),
    ]) == 0
    rows = [l.split(",") for l in csv_path.read_text().splitlines()[1:]]
    assert [(r[0], r[3], r[-1]) for r in rows] == [
        ("squar5", "tbs", "ok"), ("squar5", "tbs-bidirectional", "ok")]
    metrics = tmp_path / "m.json"
    assert main([
        "synth", "--in", SQUAR5, "--method", "tbs-bidirectional",
        "--out", str(tmp_path / "c.qasm"), "--metrics", str(metrics),
    ]) == 0
    report = read_metrics(metrics)
    assert rows[1][4:7] == [str(report[k]) for k in ("qubits", "gate_count", "complexity")]
    assert rows[0][5:7] != rows[1][5:7]

    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--in", SQUAR5, "--method", "tbs", "--bidirectional",
              "--out", str(tmp_path / "b.qasm")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bidirectional" in capsys.readouterr().err
    assert not (tmp_path / "b.qasm").exists()


def test_bench_records_failures_as_rows(tmp_path):
    csv_path = tmp_path / "rows.csv"
    single = tmp_path / "bench"
    single.mkdir()
    for name in ("b11", "inc"):
        (single / f"{name}.pla").write_text((BENCH_DIR / f"{name}.pla").read_text())
    code = main([
        "bench", "--dir", str(single), "--methods", "esop-rtt,tbs",
        "--csv", str(csv_path), "--timeout-s", "600",
    ])
    assert code == 0
    rows = {(r.split(",")[0], r.split(",")[3]): r.split(",")
            for r in csv_path.read_text().splitlines()[1:]}
    assert rows[("b11", "esop-rtt")][-1] == "too_large"
    assert rows[("b11", "tbs")][-1] == "too_large"
    assert rows[("inc", "tbs")][-1] in ("timeout", "too_large")
    assert rows[("inc", "esop-rtt")][-1] == "ok"
    assert rows[("inc", "esop-rtt")][4] == "28"
    # Metric fields stay empty on failed rows.
    assert rows[("b11", "tbs")][4:8] == ["", "", "", ""]


def test_bench_timeout_yields_rows_not_crashes(tmp_path):
    csv_path = tmp_path / "rows.csv"
    single = tmp_path / "bench"
    single.mkdir()
    (single / "squar5.pla").write_text((BENCH_DIR / "squar5.pla").read_text())
    # Pool workers arm the timer on their own main threads.
    for jobs in ("1", "2"):
        assert main([
            "bench", "--dir", str(single), "--methods", "esop,esop-rtt,tbs",
            "--csv", str(csv_path), "--timeout-s", "0.000001", "--jobs", jobs,
        ]) == 0
        rows = [l.split(",") for l in csv_path.read_text().splitlines()[1:]]
        assert len(rows) == 3
        assert all(r[-1] == "timeout" for r in rows)


def test_bench_missing_directory_exits_2(tmp_path):
    assert main([
        "bench", "--dir", str(tmp_path / "nothing"), "--methods", "esop",
        "--csv", str(tmp_path / "rows.csv"),
    ]) == 2


def test_bench_deterministic_apart_from_timing(tmp_path):
    def run(path: Path) -> list[list[str]]:
        assert main([
            "bench", "--dir", str(BENCH_DIR), "--methods", "esop",
            "--csv", str(path),
        ]) == 0
        rows = [l.split(",") for l in path.read_text().splitlines()[1:]]
        return [r[:7] + r[8:] for r in rows]  # drop wall time

    assert run(tmp_path / "a.csv") == run(tmp_path / "b.csv")


def _synth_netlist(tmp_path, method: str) -> Path:
    netlist = tmp_path / "c.json"
    assert main([
        "synth", "--in", SQUAR5, "--method", method,
        "--out", str(tmp_path / "c.qasm"), "--netlist", str(netlist),
    ]) == 0
    return netlist


@pytest.mark.parametrize("method", ["esop", "tbs", "tbs-bidirectional"])
def test_verify_roundtrip_and_corruption(tmp_path, method):
    # The netlist's roles say which inputs must come back: all of an ESOP
    # oracle's, none of a TBS one's.  No flag picks it.
    netlist = _synth_netlist(tmp_path, method)
    assert main(["verify", "--in", SQUAR5, "--circuit", str(netlist)]) == 0

    # An X on the first output qubit flips output bit 0 of every minterm.
    doc = json.loads(netlist.read_text())
    first_output = [role for _, role in doc["roles"]].index("output")
    doc["gates"].append({"kind": "x", "target": first_output, "controls": []})
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["verify", "--in", SQUAR5, "--circuit", str(broken)]) == 3


def test_verify_checks_esop_inputs_come_back(tmp_path, capsys):
    netlist = _synth_netlist(tmp_path, "esop")
    doc = json.loads(netlist.read_text())
    doc["gates"].append({"kind": "x", "target": 0, "controls": []})
    netlist.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--in", SQUAR5, "--circuit", str(netlist)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "32/32 minterms checked: FAIL (32 mismatches)"
    assert lines[1] == "  00000: expected 00000000|00000, got 00000000|10000"


def test_verify_refuses_esop_rtt_netlist_against_its_source(tmp_path, capsys):
    # The esop-rtt oracle computes the completed embedding on n + w inputs.
    netlist = _synth_netlist(tmp_path, "esop-rtt")
    capsys.readouterr()
    assert main(["verify", "--in", SQUAR5, "--circuit", str(netlist)]) == 2
    assert capsys.readouterr().err.startswith("error: 9 input qubits for an n=5 table")


def test_verify_refuses_netlist_missing_an_output_role(tmp_path, capsys):
    netlist = _synth_netlist(tmp_path, "esop")
    doc = json.loads(netlist.read_text())
    last = max(q for q, (_, role) in enumerate(doc["roles"]) if role == "output")
    doc["roles"][last][1] = "garbage"
    netlist.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--in", SQUAR5, "--circuit", str(netlist)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: 7 output qubits for an m=8 table"]


def test_verify_word_width_limit(tmp_path, capsys):
    # apex4's 28-qubit oracle fits one int64 word and ex5's 71-qubit one does
    # not; verification simulates bit-planes, so both are checked in full.
    for name, checked in (("apex4", "512/512"), ("ex5", "256/256")):
        table = str(BENCH_DIR / f"{name}.pla")
        netlist = tmp_path / f"{name}.json"
        assert main([
            "synth", "--in", table, "--method", "esop",
            "--out", str(tmp_path / f"{name}.qasm"), "--netlist", str(netlist),
        ]) == 0
        capsys.readouterr()
        assert main(["verify", "--in", table, "--circuit", str(netlist)]) == 0
        assert capsys.readouterr().out.startswith(f"{checked} minterms checked: PASS")

    doc = json.loads(netlist.read_text())
    doc["gates"] = doc["gates"][:-1]
    broken = tmp_path / "ex5-broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["verify", "--in", table, "--circuit", str(broken)]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out.splitlines()[0]
    assert "Traceback" not in captured.out + captured.err


def test_verify_malformed_netlist_gate_exits_2(tmp_path, capsys):
    netlist = tmp_path / "c.json"
    assert main([
        "synth", "--in", SQUAR5, "--method", "esop",
        "--out", str(tmp_path / "c.qasm"), "--netlist", str(netlist),
    ]) == 0
    doc = json.loads(netlist.read_text())
    width = doc["width"]
    at = next(i for i, g in enumerate(doc["gates"]) if g["controls"])
    gate = doc["gates"][at]
    (q0, pol0), rest = gate["controls"][0], gate["controls"][1:]
    free = next(q for q in range(width) if q != gate["target"]
                and all(q != c for c, _ in gate["controls"]))

    def with_gate(**fields):
        bad = json.loads(json.dumps(doc))
        bad["gates"][at].update(fields)
        return json.dumps(bad)

    corruptions = {
        "control-on-target": with_gate(controls=gate["controls"] + [[gate["target"], "+"]]),
        "qubit-twice": with_gate(controls=gate["controls"] + [[q0, pol0]]),
        "bad-polarity": with_gate(controls=[[q0, "n"]] + rest),
        "negative-qubit": with_gate(controls=[[-1, pol0]] + rest),
        "qubit-outside-width": with_gate(controls=[[width, pol0]] + rest),
        # int() would read these as qubits; JSON true is a Python int.
        "float-control": with_gate(controls=gate["controls"] + [[free + 0.7, "+"]]),
        "string-control": with_gate(controls=gate["controls"] + [[str(free), "+"]]),
        "bool-target": with_gate(kind="x", target=True, controls=[]),
        "float-target": with_gate(target=float(gate["target"])),
        "bool-width": json.dumps({**doc, "width": True}),
        "unknown-kind": with_gate(kind="foo"),
        # A kind's netlist spelling must agree with its control list.
        "controlless-mcx": with_gate(kind="mcx", controls=[]),
        "controlless-mcz": with_gate(kind="mcz", controls=[]),
        "controlled-x": with_gate(kind="x"),
        "controlled-z": with_gate(kind="z"),
        "controlled-h": with_gate(kind="h"),
        "list-provenance": json.dumps({**doc, "provenance": []}),
        "deep-nesting": "[" * 100_000,
    }
    for name, text in corruptions.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        capsys.readouterr()
        assert main(["verify", "--in", SQUAR5, "--circuit", str(path)]) == 2, name
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad circuit netlist:"), (name, err)
        assert "Traceback" not in captured.out + captured.err


def test_verify_wide_netlist_refused_before_allocation(tmp_path, capsys):
    # A few bytes must not make the reader build anything of the declared width.
    texts = {
        "no-roles": '{"width": 3000000, "gates": []}',
        "short-roles": '{"width": 3000000, "gates": [], "roles": [["input", "output"]]}',
    }
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(["verify", "--in", SQUAR5, "--circuit", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, name
        assert peak < 4 << 20, (name, peak)
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: bad circuit netlist:"), (name, err)
        assert "Traceback" not in captured.out + captured.err


def test_netlist_controls_in_any_order(tmp_path, capsys):
    netlist = tmp_path / "c.json"
    assert main([
        "synth", "--in", SQUAR5, "--method", "esop",
        "--out", str(tmp_path / "c.qasm"), "--netlist", str(netlist),
    ]) == 0
    doc = json.loads(netlist.read_text())
    assert any(len(g["controls"]) > 1 for g in doc["gates"])
    for gate in doc["gates"]:
        gate["controls"].reverse()
    reversed_netlist = tmp_path / "reversed.json"
    reversed_netlist.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--in", SQUAR5, "--circuit", str(reversed_netlist)]) == 0
    assert capsys.readouterr().out.startswith("32/32 minterms checked: PASS")
    again = emit.to_json(emit.from_json(reversed_netlist.read_text()))
    assert again == netlist.read_text()


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` with one to four bytes replaced, inserted or deleted."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(out) - 1))
        byte = draw(st.sampled_from(b"01-~2 .\n\t:,[]\"e") | st.integers(0, 255))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "replace":
            out[at] = byte
        elif op == "insert":
            out.insert(at, byte)
        else:
            del out[at]
    return bytes(out)


@pytest.fixture(scope="module")
def squar5_netlists(tmp_path_factory) -> dict[str, bytes]:
    """The esop and tbs netlists of squar5, the two that verify against its table."""
    out = tmp_path_factory.mktemp("netlists")
    netlists = {}
    for method in ("esop", "tbs"):
        path = out / f"{method}.json"
        assert main(["synth", "--in", SQUAR5, "--method", method,
                     "--out", str(out / f"{method}.qasm"), "--netlist", str(path)]) == 0
        netlists[method] = path.read_bytes()
    return netlists


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(("synth", "verify")), method=st.sampled_from(cli.METHODS),
       data=st.data())
def test_mutated_inputs_exit_with_a_documented_code(tmp_path_factory, squar5_netlists,
                                                    command, method, data):
    work = tmp_path_factory.mktemp("mutated")
    table, netlist = work / "t.pla", work / "c.json"
    if command == "synth":
        table.write_bytes(data.draw(mutated(Path(SQUAR5).read_bytes())))
        argv = ["synth", "--in", str(table), "--method", method, "--out", str(work / "c.qasm")]
    else:
        netlist.write_bytes(data.draw(mutated(squar5_netlists[data.draw(st.sampled_from(
            sorted(squar5_netlists)))])))
        argv = ["verify", "--in", SQUAR5, "--circuit", str(netlist)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in out.getvalue() + err.getvalue()


def test_verify_over_expansion_limit_exits_4(tmp_path, capsys):
    wide = tmp_path / "wide.pla"
    wide.write_text(".i 21\n.o 1\n" + "1" * 21 + " 1\n.e\n")
    netlist = tmp_path / "c.json"
    netlist.write_text(emit.to_json(circ.Circuit(22)))
    assert main(["verify", "--in", str(wide), "--circuit", str(netlist)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("size limit:")


def test_python_m_qoracle_runs_cli(tmp_path):
    netlist = tmp_path / "c.json"
    assert main([
        "synth", "--in", SQUAR5, "--method", "esop",
        "--out", str(tmp_path / "c.qasm"), "--netlist", str(netlist),
    ]) == 0
    package_root = Path(qoracle.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-m", "qoracle", "verify", "--in", SQUAR5, "--circuit", str(netlist)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("32/32 minterms checked: PASS")
    assert "RuntimeWarning" not in proc.stderr


def test_import_leaves_process_pools_unloaded():
    # bench --jobs imports its pool when it needs one; importing the package
    # in a fresh interpreter must not pay for it.
    package_root = Path(qoracle.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qoracle; print(sorted("
         "{'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_grover_deck_diamonds(tmp_path):
    out = tmp_path / "hist.csv"
    code = main([
        "grover", "--deck", "--query", "suit=diamonds,rank=10",
        "--iterations", "6", "--shots", "1024", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bitstring,count,probability"
    top_bits, top_count, _ = lines[1].split(",")
    assert top_bits == "101010"
    assert int(top_count) >= 1000


def test_grover_deck_clubs_auto(tmp_path):
    out = tmp_path / "hist.csv"
    assert main([
        "grover", "--deck", "--query", "suit=clubs", "--iterations", "auto",
        "--shots", "1024", "--seed", "7", "--out", str(out),
    ]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    nonzero = [r for r in rows if int(r[1]) > 0]
    assert len(nonzero) == 16
    assert all(r[0].startswith("00") for r in nonzero)


def test_grover_histogram_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main([
            "grover", "--deck", "--query", "rank=ace",
            "--shots", "1024", "--seed", "3", "--out", str(out),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args,digest,summary", [
    (["--deck", "--query", "suit=diamonds,rank=10", "--iterations", "6"],
     "fe446a1cad1bd7e27426209cdfa9944de3e61d2bb8ccd1ebad9e552a53948e43",
     "iterations=6 marked=1 predicted=0.9966 measured=0.9961"),
    (["--deck", "--query", "suit=clubs"],
     "307a447f25d47ba26563de8ed0501d33118b64f5c4c0fa99e68dbceebe123191",
     "iterations=1 marked=16 predicted=1.0000 measured=1.0000"),
    (["--deck", "--query", "rank=ace", "--iterations", "0", "--shots", "5000", "--seed", "3"],
     "4498b7a1bd39d2b0344ad0c2aadc33621a51cdd688fde285cac9c30e2cb19652",
     "iterations=0 marked=4 predicted=0.0625 measured=0.0598"),
    (["--pla", "PREDICATE", "--shots", "777", "--seed", "11"],
     "9343d0d6b0db8d2e538165ad7c4013e7a8b0524311ef92ec7e3d3d3c7f0a6ac6",
     "iterations=1 marked=5 predicted=0.9570 measured=0.9614"),
    (["--deck", "--query", "suit=hearts", "--iterations", "2", "--shots", "100000"],
     "7997e16bbfa086a143cba19d44b9388ef04bd5eb538fb074c47af85a62bbfa34",
     "iterations=2 marked=16 predicted=0.2500 measured=0.2507"),
], ids=["diamonds-10", "clubs", "ace-unsearched", "pla-4-inputs", "hearts-100k"])
def test_grover_output_is_pinned(tmp_path, capsys, args, digest, summary):
    predicate = tmp_path / "pred.pla"
    predicate.write_text(".i 4\n.o 1\n1-0- 1\n0011 1\n.e\n")
    out = tmp_path / "h.csv"
    args = [str(predicate) if a == "PREDICATE" else a for a in args]
    assert main(["grover", *args, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [summary]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_grover_from_pla_file(tmp_path):
    predicate = tmp_path / "pred.pla"
    predicate.write_text(".i 2\n.o 1\n11 1\n.e\n")
    out = tmp_path / "h.csv"
    assert main([
        "grover", "--pla", str(predicate), "--iterations", "auto",
        "--shots", "256", "--seed", "1", "--out", str(out),
    ]) == 0
    top = out.read_text().splitlines()[1].split(",")
    assert top[0] == "11"


@pytest.mark.parametrize("shots", ["0", "-3", str(10**22)])
def test_grover_rejects_shots_below_one(tmp_path, capsys, shots):
    predicate = tmp_path / "pred.pla"
    predicate.write_text(".i 2\n.o 1\n11 1\n.e\n")
    out = tmp_path / "h.csv"
    code = main(["grover", "--pla", str(predicate), f"--shots={shots}", "--out", str(out)])
    _assert_usage_error(code, capsys, "--shots")
    assert not out.exists()


def test_grover_bounds_iterations_by_the_success_period(tmp_path, capsys):
    # rank=ace marks M = 4 of N = 64 cards: theta = 2 asin(1/4) and the
    # success probability repeats every pi / theta = 6.22 iterations.
    def grover_run(iterations, out):
        return main(["grover", "--deck", "--query", "rank=ace", "--iterations", iterations,
                     "--shots", "64", "--out", str(out)])

    assert grover_run("7", tmp_path / "ok.csv") == 0
    capsys.readouterr()
    for iterations in ("8", str(10**12), "abc", "3.5", "-1"):
        out = tmp_path / f"{iterations}.csv"
        assert grover_run(iterations, out) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: --iterations must be auto or from 0 to 7, the success period, "
            f"got {iterations}"]
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()


@pytest.mark.parametrize("extra,message", [
    (["--shots", str(2**63)],
     "--shots must be a finite number above 0 and at most 9223372036854775807, "
     "got 9223372036854775808"),
    (["--seed", "-1"], "--seed must be an integer from 0, got -1"),
], ids=["shots-above-int64", "negative-seed"])
def test_grover_refusals_state_their_limit(tmp_path, capsys, extra, message):
    out = tmp_path / "h.csv"
    assert main(["grover", "--deck", "--query", "rank=ace", *extra, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert "Traceback" not in captured.out
    assert not out.exists()


def test_grover_needs_exactly_one_source(tmp_path, capsys):
    for sources in ([], ["--deck", "--pla", SQUAR5]):
        assert main([
            "grover", *sources, "--out", str(tmp_path / "h.csv"),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: choose exactly one of --deck --query ... or --pla FILE"]
        assert not (tmp_path / "h.csv").exists()


def test_grover_bounds_its_oracle_synthesis(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "DEFAULT_TIMEOUT_S", 0.2)
    monkeypatch.setattr(esop, "sop_to_esop", slow(esop.sop_to_esop))
    out = tmp_path / "h.csv"
    assert main(["grover", "--deck", "--query", "suit=diamonds,rank=10",
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "timeout: gave up after 0.2 s in qoracle.esop.sop_to_esop"]
    assert not out.exists()


@pytest.mark.parametrize("text,message", [
    ((BENCH_DIR / "squar5.pla").read_text(), "search predicates need exactly one output"),
    (".i 2\n.o 1\n11 0\n.e\n", "the predicate marks no states; nothing to search"),
], ids=["eight-outputs", "marks-nothing"])
def test_grover_refuses_predicates_it_cannot_search(tmp_path, capsys, text, message):
    predicate = tmp_path / "pred.pla"
    predicate.write_text(text)
    out = tmp_path / "h.csv"
    assert main(["grover", "--pla", str(predicate), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_bench_parallel_jobs_match_serial(tmp_path):
    small = tmp_path / "bench"
    small.mkdir()
    for name in ("squar5", "f51m"):
        (small / f"{name}.pla").write_text((BENCH_DIR / f"{name}.pla").read_text())

    def rows(path, jobs):
        assert main([
            "bench", "--dir", str(small), "--methods", "esop,tbs",
            "--csv", str(path), "--jobs", str(jobs),
        ]) == 0
        out = [l.split(",") for l in path.read_text().splitlines()[1:]]
        return [r[:7] + r[8:] for r in out]

    assert rows(tmp_path / "serial.csv", 1) == rows(tmp_path / "par.csv", 2)


def test_bench_jobs_capped_at_task_count(tmp_path, monkeypatch):
    small = tmp_path / "bench"
    small.mkdir()
    for name in ("squar5", "f51m"):
        (small / f"{name}.pla").write_text((BENCH_DIR / f"{name}.pla").read_text())
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert main([
        "bench", "--dir", str(small), "--methods", "esop",
        "--csv", str(tmp_path / "rows.csv"), "--jobs", "100000",
    ]) == 0
    assert started == [2]


def test_synth_partial_checks_only_covered_minterms(tmp_path):
    table = tmp_path / "t.pla"
    table.write_text(".i 3\n.o 1\n111 1\n000 1\n.e\n")
    from qoracle.cli import run_synthesis
    from qoracle import pla as pla_mod

    full = run_synthesis(pla_mod.parse_pla(table.read_text()), "esop")
    assert full.verification.checked == 8
    part = run_synthesis(pla_mod.parse_pla(table.read_text()), "esop", partial=True)
    assert part.verification.checked == 2 and part.verification.passed


def wide_output_table() -> pla.PlaTable:
    """A seeded 6-input, 70-output table: cube outputs from a pool of three, a few '-' marks."""
    rng = random.Random(70)
    pool = ["".join(rng.choices("01-", weights=(10, 9, 1))[0] for _ in range(70))
            for _ in range(3)]
    rows = [f"{''.join(rng.choice('01-') for _ in range(6))} {rng.choice(pool)}"
            for _ in range(12)]
    return pla.parse_pla(".i 6\n.o 70\n" + "\n".join(rows) + "\n.e\n")


def _esop_of_min_duplication(table, partial=False, minimize=True):
    """The esop pipeline's stages on the min-duplication resolution of ``table``.

    ``run_synthesis`` refuses ``dc_minimize`` with method esop, so the stages
    are called one by one; the circuit is checked against the unresolved table.
    """
    spec = pla.expand(table, partial=partial)
    cubes = esop.spec_to_esop(embed.resolve_dontcares(spec, min_duplication=True))
    if minimize:
        cubes = esop.minimize_esop(cubes)
    lowered = circ.lower_polarity(esop.esop_to_circuit(cubes))
    return circ.metrics(lowered, 0), sim.verify_oracle(lowered, spec)


@pytest.mark.parametrize("options,checked,gates,complexity", [
    ({}, 64, 383, 1779),
    ({"dc_minimize": True}, 64, 517, 2169),
    ({"partial": True}, 42, 383, 1779),
    ({"partial": True, "dc_minimize": True, "minimize": False}, 42, 1570, 10486),
], ids=["default", "dc-minimize", "partial", "partial-dc-minimize-unminimized"])
def test_esop_on_more_than_63_outputs(options, checked, gates, complexity):
    # 70-bit output words are Python ints (dtype=object) in the minterm table.
    table = wide_output_table()
    assert pla.expand(table).entries.dtype == object
    if options.get("dc_minimize"):
        rest = {k: v for k, v in options.items() if k != "dc_minimize"}
        r, verification = _esop_of_min_duplication(table, **rest)
    else:
        result = cli.run_synthesis(table, "esop", **options)
        r, verification = result.report, result.verification
    assert verification.passed and verification.checked == checked
    assert (r.qubits, r.gate_count, r.complexity) == (76, gates, complexity)


def test_encode_roundtrip(tmp_path):
    src = tmp_path / "pairs.csv"
    src.write_text("0,0\n1,1\n52,8\n")
    out = tmp_path / "table.pla"
    assert main(["encode", "--csv", str(src), "--out", str(out)]) == 0
    table = pla.parse_pla(out.read_text())
    assert (table.n, table.m) == (6, 4)
    assert table.cubes[-1] == cube("110100", "1000")


@pytest.mark.parametrize("rows,line", [
    ("0,0\n1,2,3\n", "line 2: expected '<domain>,<range>' integers, got '1,2,3'"),
    ("domain,range\n0,0\n", "line 1: expected '<domain>,<range>' integers, got 'domain,range'"),
], ids=["three-fields", "header"])
def test_encode_names_malformed_row(tmp_path, capsys, rows, line):
    src = tmp_path / "pairs.csv"
    src.write_text(rows)
    out = tmp_path / "table.pla"
    assert main(["encode", "--csv", str(src), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [f"error: {line}"]
    assert not out.exists()


@pytest.mark.parametrize("rows", ["-1,0\n2,1\n", "1,-1\n2,1\n"], ids=["domain", "range"])
def test_encode_rejects_negative_values(tmp_path, capsys, rows):
    src = tmp_path / "pairs.csv"
    src.write_text(rows)
    out = tmp_path / "table.pla"
    assert main(["encode", "--csv", str(src), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: negative value"), err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()
