"""The benchmark's recorded reports, checked without running the benchmark.

``perfbench/reference.json`` holds, for every CLI command the benchmark
runs, the id, computed value, prediction and verdict of each check of its
report.  A report that drifts from it fails here, in the test suite,
before any benchmark run.  The file is read, never written.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from killingcalc.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
CHECK_KEYS = ("id", "computed", "predicted", "verdict")
COMMANDS = [
    "complex --n 6 --ell 2",
    "kostant --n 6 --ell 2",
    "killing --n 3 --ell 3",
    "killing --n 4 --ell 2",
    "suite --n 2..4 --ell 1..2",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_the_benchmark_reference(command, tmp_path, capsys):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    path = tmp_path / "report.json"
    assert main(command.split() + ["--output", str(path)]) == 0
    capsys.readouterr()
    checks = json.loads(path.read_text(encoding="utf-8"))["checks"]
    assert [{k: c[k] for k in CHECK_KEYS} for c in checks] == reference[command]
