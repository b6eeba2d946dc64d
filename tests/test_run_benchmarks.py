"""The bench table printer, ``scripts/run_benchmarks.py``, run as a script."""
from __future__ import annotations

import re
import subprocess
import sys

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
