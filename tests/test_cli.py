from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import killingcalc
from killingcalc import cli, killing, kostant, prolong, young
from killingcalc.chain import ChainComplex
from killingcalc.cli import main


def test_verify_key_passes(capsys):
    assert main(["verify-key", "--n", "2..4"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_report_schema(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["complex", "--n", "2", "--ell", "1", "--output", str(path)]) == 0
    capsys.readouterr()
    rep = json.loads(path.read_text())
    assert rep["schema_version"] == 1
    assert rep["tool"] == "killingcalc"
    assert rep["command"] == "complex"
    assert rep["verdict"] == "pass"
    ids = [c["id"] for c in rep["checks"]]
    assert ids == sorted(ids)
    for c in rep["checks"]:
        assert set(c) >= {"id", "inputs", "computed", "predicted", "verdict"}
        assert "seconds" not in c
    s = rep["summary"]
    assert s["total"] == s["passed"] + s["failed"] == len(rep["checks"])
    assert s["failed"] == 0


def test_reports_are_byte_identical(tmp_path, capsys):
    a, b = (tmp_path / f"r{i}.json" for i in range(2))
    main(["kostant", "--n", "2..3", "--ell", "1", "--output", str(a)])
    main(["kostant", "--n", "2..3", "--ell", "1", "--output", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["complex", "kostant"])
def test_range_runs_match_single_pair_runs(command, tmp_path, capsys):
    """Each (n, ell) of a range gets its own numbers, not another pair's."""
    def checks(n, ell):
        path = tmp_path / f"{n}-{ell}.json"
        assert main([command, "--n", n, "--ell", ell, "--output", str(path)]) == 0
        rep = json.loads(path.read_text())
        return {c["id"]: (c["computed"], c["predicted"], c["verdict"]) for c in rep["checks"]}

    single = {}
    for n in ("2", "3"):
        for ell in ("1", "2"):
            single.update(checks(n, ell))
    capsys.readouterr()
    assert checks("2..3", "1..2") == single
    assert len(single) == 4 * (3 if command == "complex" else 4)


@pytest.mark.parametrize(
    "command, module", [("complex", prolong), ("kostant", kostant)]
)
def test_one_cohomology_computation_per_pair(command, module, monkeypatch, capsys):
    calls = {"cohomology_dims": 0, "composites_vanish": 0}
    dims, vanish = module.cohomology_dims, ChainComplex.composites_vanish

    def counted_dims(cx):
        calls["cohomology_dims"] += 1
        return dims(cx)

    def counted_vanish(cx):
        calls["composites_vanish"] += 1
        return vanish(cx)

    monkeypatch.setattr(module, "cohomology_dims", counted_dims)
    monkeypatch.setattr(ChainComplex, "composites_vanish", counted_vanish)
    assert main([command, "--n", "3", "--ell", "2"]) == 0
    capsys.readouterr()
    assert calls == {"cohomology_dims": 1, "composites_vanish": 1}


def test_killing_family_computes_each_kernel_once(monkeypatch):
    """dim and degree-bound share the memoized kernel at max_degree ell;
    only degree-bound's slack kernel at ell + 2 is new, and parallel
    ranks its system without a kernel."""
    calls = []
    original = killing.kernel_basis

    def counted(m):
        calls.append((m.rows, m.cols))
        return original(m)

    monkeypatch.setattr(killing, "kernel_basis", counted)
    killing.killing_kernel_vectors.cache_clear()
    try:
        for n, ell in ((2, 1), (3, 2)):
            calls.clear()
            for _, _, job in cli._jobs_killing([(n, ell)]):
                job()
            assert len(calls) == 2, (n, ell, calls)
    finally:
        killing.killing_kernel_vectors.cache_clear()


def test_timings_flag_adds_seconds(tmp_path, capsys):
    path = tmp_path / "t.json"
    main(["verify-key", "--n", "2", "--output", str(path), "--timings"])
    capsys.readouterr()
    rep = json.loads(path.read_text())
    assert all("seconds" in c for c in rep["checks"])


def test_cap_exceeded_exit_code(capsys):
    assert main(["complex", "--n", "5", "--ell", "4"]) == 2
    err = capsys.readouterr().err
    assert "dimension cap exceeded" in err


def test_killing_cap_refuses_before_realizing(monkeypatch, capsys):
    def realize(*args):
        raise AssertionError("a basis was realized past the cap")

    monkeypatch.setattr(young, "_realize_memo", realize)
    assert main(["killing", "--n", "9", "--ell", "4"]) == 2
    assert "error: dimension cap exceeded" in capsys.readouterr().err


def test_killing_cap_admits_every_benchmarked_size(monkeypatch):
    # killing and suite sizes of the tests and the benchmark workloads
    sizes = [(n, ell) for n in (2, 3, 4) for ell in (1, 2)] + [(2, 3), (3, 3)]
    columns = {size: killing._guard_killing_cap(*size) for size in sizes}
    assert max(columns.values()) == columns[(3, 3)] == 1000
    # the parallel system at n=3, ell=3: 50 bundle dimensions x 20 monomials;
    # a cap one below that refuses it
    monkeypatch.setattr(killing, "DEFAULT_CAP", 999)
    with pytest.raises(prolong.CapExceeded):
        killing._guard_killing_cap(3, 3)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-key", "--n", "1"],
        ["complex", "--n", "1", "--ell", "1"],
        ["kostant", "--n", "2", "--ell", "0"],
        ["killing", "--n", "1..3", "--ell", "1"],
        ["suite", "--n", "2", "--ell", "0..1"],
    ],
)
def test_out_of_range_sizes_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_failing_check_exit_code(capsys):
    checks = cli._run_jobs([("z.fake", {"n": 2}, lambda: (1, 2))], False)
    assert checks[0]["verdict"] == "fail"

    class Args:
        output = None

    assert cli._emit(Args(), "suite", {}, checks) == 1
    captured = capsys.readouterr()
    assert "failed: z.fake" in captured.err
    assert "0/1 checks passed" in captured.out


def test_range_check_solvable(tmp_path, capsys):
    # omega_11 = 2 x1 has the exact potential (x1^2, 0)
    doc = {
        "n": 2,
        "arity": 2,
        "entries": [{"idx": [1, 1], "poly": [{"exp": [1, 0], "coef": "2"}]}],
    }
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(doc))
    assert main(["range-check", "--n", "2", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {
        "n": 2,
        "arity": 1,
        "entries": [{"idx": [1], "poly": [{"exp": [2, 0], "coef": "1"}]}],
    }


def test_range_check_certificate(tmp_path, capsys):
    # omega_11 = x2^2 is obstructed with N_1212 = 2
    doc = {
        "n": 2,
        "arity": 2,
        "entries": [{"idx": [1, 1], "poly": [{"exp": [0, 2], "coef": "1"}]}],
    }
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(doc))
    assert main(["range-check", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["arity"] == 4
    witness = [e for e in out["entries"] if e["idx"] == [1, 2, 1, 2]]
    assert witness and witness[0]["poly"] == [{"exp": [0, 0], "coef": "2"}]


def test_range_check_missing_file(tmp_path, capsys):
    assert main(["range-check", "--input", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_range_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2,,}')
    assert main(["range-check", "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err
    assert "line 1 column 9" in err


def test_range_check_rejects_wrong_arity(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"n": 2, "arity": 1, "entries": []}))
    assert main(["range-check", "--input", str(path)]) == 2
    assert "arity-2" in capsys.readouterr().err


def test_range_check_rejects_broken_document(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"n": 2, "entries": []}))  # no arity
    assert main(["range-check", "--input", str(path)]) == 2
    assert "invalid field document" in capsys.readouterr().err


def test_range_check_dimension_mismatch(tmp_path, capsys):
    doc = {"n": 3, "arity": 2, "entries": []}
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(doc))
    assert main(["range-check", "--n", "2", "--input", str(path)]) == 2
    assert "does not match --n" in capsys.readouterr().err


def test_range_check_degree_cap(tmp_path, capsys):
    doc = {
        "n": 2,
        "arity": 2,
        "entries": [{"idx": [1, 1], "poly": [{"exp": [7, 0], "coef": "8"}]}],
    }
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(doc))
    assert main(["range-check", "--input", str(path), "--degree-cap", "4"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_parse_range():
    assert cli._parse_range("4") == [4]
    assert cli._parse_range("2..5") == [2, 3, 4, 5]
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_range("5..2")


def test_suite_small(capsys):
    assert main(["suite", "--n", "2", "--ell", "1"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) >= 20


def test_console_script_installed(tmp_path):
    """The declared ``killingcalc`` console script runs end to end.

    The entry point is read from ``[project.scripts]`` in the repository's
    ``pyproject.toml`` (not from installed metadata, which may be stale), and
    the wrapper an installer generates for it is written to ``tmp_path`` and
    run in a fresh interpreter against the ``killingcalc`` package this test
    imported.  So the test needs no install and runs from a plain checkout.
    ``verify-key`` must exit 0 with ``PASS``, and ``range-check`` on a missing
    file must exit 2 with ``cannot read``: ``main``'s return value has to
    reach the process exit status through ``sys.exit``.

    When an installed ``killingcalc`` script is on ``PATH``, it is run too.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert "killingcalc" in scripts, "no killingcalc script in [project.scripts]"

    module, _, attr = scripts["killingcalc"].partition(":")
    wrapper = tmp_path / "killingcalc"
    wrapper.write_text(
        f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    )
    src = Path(killingcalc.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*args):
        cmd = [sys.executable, str(wrapper), *args]
        return subprocess.run(cmd, capture_output=True, text=True, env=env)

    ok = run("verify-key", "--n", "2")
    assert ok.returncode == 0, ok.stderr
    assert "PASS" in ok.stdout
    bad = run("range-check", "--input", str(tmp_path / "nope.json"))
    assert bad.returncode == 2, bad.stderr
    assert "cannot read" in bad.stderr

    exe = shutil.which("killingcalc")
    if exe:
        r = subprocess.run(
            [exe, "verify-key", "--n", "2"], capture_output=True, text=True
        )
        assert r.returncode == 0
        assert "PASS" in r.stdout
