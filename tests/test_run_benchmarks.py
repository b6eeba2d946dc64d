"""The bench table printer and A/B timer, ``scripts/run_benchmarks.py``."""
from __future__ import annotations

import importlib.util
import re
import shutil
import subprocess
import sys

from qoracle import cli
from qoracle.cli import main

from conftest import BENCH_DIR

SCRIPT = BENCH_DIR.parent / "scripts" / "run_benchmarks.py"


def test_printer_has_one_column_per_method_in_the_csv(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("squar5", "f51m"):
        (bench / f"{name}.pla").write_text((BENCH_DIR / f"{name}.pla").read_text())
    csv_path = tmp_path / "rows.csv"
    assert main([
        "bench", "--dir", str(bench), "--methods", "esop,tbs,tbs-bidirectional",
        "--csv", str(csv_path),
    ]) == 0
    proc = subprocess.run([sys.executable, str(SCRIPT), str(csv_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split()[:3] == ["function", "in", "out"]
    assert [col.strip() for col in header.split("|")[1:]] == ["esop", "tbs", "tbs-bidirectional"]
    cell = r"\s+q=\d+ c=\d+"
    pattern = re.compile(rf"(\w+)\s+\d+\s+\d+ \|{cell} \|{cell} \|{cell}")
    assert [m.group(1) for m in map(pattern.fullmatch, lines[:2]) if m] == ["f51m", "squar5"]
    assert lines[2:] == ["", f"read 6 rows from {csv_path}"]


def _load_script():
    spec = importlib.util.spec_from_file_location("run_benchmarks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _two_files(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("squar5", "f51m"):
        (bench / f"{name}.pla").write_text((BENCH_DIR / f"{name}.pla").read_text())
    return bench


def _base_copy(tmp_path, file: str, patch: str):
    """A copy of this checkout's sources with ``patch`` appended to one module."""
    base = tmp_path / "base"
    shutil.copytree(BENCH_DIR.parent / "src" / "qoracle", base / "src" / "qoracle",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(base / "src" / "qoracle" / file, "a") as fh:
        fh.write(patch)
    return base


def test_against_itself_reads_one_ratio_per_method(tmp_path, capsys):
    bench = _two_files(tmp_path)
    assert _load_script().compare(BENCH_DIR.parent, bench, None, 3) == 0
    out = capsys.readouterr().out
    title, header, *rows = out.splitlines()
    assert title.endswith("3 passes over 2 files, change/base time per pass")
    assert header.split() == ["method", "median", "q1", "q3", "change_s", "base_s"]
    assert [row.split()[0] for row in rows] == [*cli.METHODS, "all"]
    for row in rows:
        median, q1, q3, mine, theirs = map(float, row.split()[1:])
        assert 0 < q1 <= median <= q3 and mine > 0 and theirs > 0


def test_against_fails_when_the_trees_differ_in_quality(tmp_path, capsys):
    bench = _two_files(tmp_path)
    # The base tree skips minimization, so its esop circuits have more gates.
    base = _base_copy(tmp_path, "esop.py", "\n\ndef minimize_esop(cubes):\n    return cubes\n")
    # Each differing item is named once, and every pass is still timed.
    assert _load_script().compare(base, bench, ["esop"], 2) == 1
    out, err = capsys.readouterr()
    assert re.fullmatch(r"f51m/esop: change gives \('ok', 16, \d+, \d+, \d+\), "
                        r"base gives \('ok', 16, \d+, \d+, \d+\)\n"
                        r"squar5/esop: change gives \('ok', 13, \d+, \d+, \d+\), "
                        r"base gives \('ok', 13, \d+, \d+, \d+\)\n", err)
    title, header, *rows = out.splitlines()
    assert title.endswith("2 passes over 2 files, change/base time per pass")
    assert [row.split()[0] for row in rows] == ["esop", "all"]


def test_against_times_only_methods_both_trees_have(tmp_path, capsys):
    bench = _two_files(tmp_path)
    # A base from before bidirectional TBS existed.
    base = _base_copy(tmp_path, "cli.py", "\nMETHODS = METHODS[:3]\n")
    script = _load_script()
    assert script.compare(base, bench, ["esop", "tbs-bidirectional"], 2) == 2
    assert script.compare(base, bench, ["nope"], 2) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["method tbs-bidirectional is not in both trees",
                                "method nope is not in both trees"]
    assert script.compare(base, bench, None, 2) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == [*cli.METHODS[:3], "all"]


def test_against_needs_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--against", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and "no qoracle sources under" in proc.stderr
