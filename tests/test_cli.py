"""Command-line behaviors: pipelines, bench harness, exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import qoracle
from qoracle import circuit as circ
from qoracle import cli, emit, pla, sim
from qoracle.cli import main

from conftest import BENCH_DIR, cube

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
    assert report["status"] == "ok"
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
    monkeypatch.setattr(cli, "run_bench", lambda *args: calls.append(args) or [])
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


def _assert_usage_error(code, capsys, flag):
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag} must be"), err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("value", ["nan", "0", "-1", "inf", "-inf"])
@pytest.mark.parametrize("method", ["esop", "tbs"])
def test_synth_rejects_non_positive_timeout(tmp_path, capsys, value, method):
    code = main([
        "synth", "--in", SQUAR5, "--method", method, "--no-minimize",
        f"--timeout-s={value}", "--out", str(tmp_path / "c.qasm"),
    ])
    _assert_usage_error(code, capsys, "--timeout-s")
    assert not (tmp_path / "c.qasm").exists()


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
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
    (["--dir", "/nonexistent-benchmark-dir"], "--dir"),
], ids=["negative-jobs", "no-method", "no-method-parallel", "unknown-method", "missing-dir"])
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
    table = bench_tables[name]
    result = cli.run_synthesis(table, "esop", dc_minimize=True)
    assert result.verification.passed
    assert result.circuit.width == table.n + table.m


def test_synth_dc_minimize(tmp_path, capsys):
    assert main([
        "synth", "--in", SQUAR5, "--method", "esop", "--dc-minimize",
        "--out", str(tmp_path / "c.qasm"),
    ]) == 0
    assert capsys.readouterr().out.rstrip().endswith("PASS")


def test_run_synthesis_rejects_unknown_completion():
    table = pla.parse_pla(Path(SQUAR5).read_text())
    with pytest.raises(ValueError):
        cli.run_synthesis(table, "tbs", completion="bogus")


STAGES = {
    "esop": ("esop.sop_to_esop", "esop.minimize_esop", "sim.verify_oracle"),
    "esop-rtt": ("embed.rtt_embed", "embed.complete_onto_hamming", "embed.finish_report",
                 "esop.spec_to_esop", "esop.minimize_esop", "sim.verify_oracle"),
    "tbs": ("embed.rtt_embed", "embed.complete_onto_hamming", "embed.finish_report",
            "tbs.tbs_synthesize", "sim.verify_oracle"),
}


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
    assert main([
        "bench", "--dir", str(single), "--methods", "esop,esop-rtt,tbs",
        "--csv", str(csv_path), "--timeout-s", "0.000001",
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


def test_verify_roundtrip_and_corruption(tmp_path):
    out = tmp_path / "c.qasm"
    netlist = tmp_path / "c.json"
    assert main([
        "synth", "--in", SQUAR5, "--method", "esop",
        "--out", str(out), "--netlist", str(netlist),
    ]) == 0
    assert main([
        "verify", "--in", SQUAR5, "--circuit", str(netlist), "--mode", "preserve",
    ]) == 0

    doc = json.loads(netlist.read_text())
    doc["gates"] = doc["gates"][:-1]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main([
        "verify", "--in", SQUAR5, "--circuit", str(broken), "--mode", "preserve",
    ]) == 3


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
        "bool-target": with_gate(target=True, controls=[]),
        "float-target": with_gate(target=float(gate["target"])),
        "bool-width": json.dumps({**doc, "width": True}),
        "unknown-kind": with_gate(kind="foo"),
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


@pytest.mark.parametrize("shots", ["0", "-3"])
def test_grover_rejects_shots_below_one(tmp_path, capsys, shots):
    predicate = tmp_path / "pred.pla"
    predicate.write_text(".i 2\n.o 1\n11 1\n.e\n")
    out = tmp_path / "h.csv"
    code = main(["grover", "--pla", str(predicate), f"--shots={shots}", "--out", str(out)])
    _assert_usage_error(code, capsys, "--shots")
    assert not out.exists()


def test_grover_needs_exactly_one_source(tmp_path, capsys):
    for sources in ([], ["--deck", "--pla", SQUAR5]):
        assert main([
            "grover", *sources, "--out", str(tmp_path / "h.csv"),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "choose exactly one of --deck --query ... or --pla FILE"]
        assert not (tmp_path / "h.csv").exists()


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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
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
