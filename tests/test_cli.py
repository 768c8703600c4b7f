from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import killingcalc
from killingcalc import chain, cli, killing, kostant, prolong, young
from killingcalc.cap import CapExceeded
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
    """A pair's report is computed once, from its dominant weight blocks:
    one cohomology_dims and one composites_vanish call per block, and
    running the pair's checks again adds none."""
    forms = prolong.flat_forms if module is prolong else kostant.koszul_forms
    blocks = len(chain._dominant_weights(forms(3, 2)))
    assert blocks > 1
    calls = {"cohomology_dims": 0, "composites_vanish": 0}
    dims, vanish = chain.cohomology_dims, ChainComplex.composites_vanish

    def counted_dims(cx):
        calls["cohomology_dims"] += 1
        return dims(cx)

    def counted_vanish(cx):
        calls["composites_vanish"] += 1
        return vanish(cx)

    monkeypatch.setattr(chain, "cohomology_dims", counted_dims)
    monkeypatch.setattr(ChainComplex, "composites_vanish", counted_vanish)
    assert main([command, "--n", "3", "--ell", "2"]) == 0
    capsys.readouterr()
    once = {"cohomology_dims": blocks, "composites_vanish": blocks}
    assert calls == once
    jobs = cli._jobs_complex if command == "complex" else cli._jobs_kostant
    calls.update(cohomology_dims=0, composites_vanish=0)
    pair = jobs([(3, 2)])
    for _ in range(2):
        for _, _, job in pair:
            job()
        assert calls == once


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


def test_verify_key_cap_refuses_before_building(monkeypatch, capsys):
    """n C(n, 2) is 20825 at n=35, refused with exit 2 before any tensor
    is built, and 19074 at n=34, admitted: that run gets as far as
    building its first tensor."""
    class Built(Exception):
        pass

    def tensor(*args):
        raise Built

    monkeypatch.setattr(prolong, "Tensor", tensor)
    assert main(["verify-key", "--n", "35"]) == 2
    err = capsys.readouterr().err
    assert "error: dimension cap exceeded" in err and "20825" in err
    with pytest.raises(Built):
        main(["verify-key", "--n", "34"])


def test_verify_key_range_refused_before_its_first_check(monkeypatch, capsys):
    """n=33 and n=34 are admitted, n=35 is not: the whole range exits 2
    before the n=33 check builds a tensor, naming the first oversized n."""
    def tensor(*args):
        raise AssertionError("a tensor was built for a refused range")

    monkeypatch.setattr(prolong, "Tensor", tensor)
    assert main(["verify-key", "--n", "33..35"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (
        "error: dimension cap exceeded: key isomorphism for n=35 has "
        "dimension 20825, cap is 20000"
    )


def test_killing_range_refused_before_its_first_check(monkeypatch, capsys):
    """ell=3 is admitted at n=2..5 and refused at n=6: the whole range
    exits 2 before the n=2 checks compute a kernel or realize a basis."""
    def refuse(*args):
        raise AssertionError("a check ran for a refused range")

    monkeypatch.setattr(young, "_realize_memo", refuse)
    monkeypatch.setattr(killing, "killing_kernel", refuse)
    monkeypatch.setattr(killing, "killing_kernel_vectors", refuse)
    assert main(["killing", "--n", "2..6", "--ell", "3"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == (
        "error: dimension cap exceeded: killing checks for n=6, ell=3 build "
        "a system with 98784 columns, cap is 40000"
    )


def test_killing_cap_refuses_before_realizing(monkeypatch, capsys):
    def realize(*args):
        raise AssertionError("a basis was realized past the cap")

    monkeypatch.setattr(young, "_realize_memo", realize)
    assert main(["killing", "--n", "9", "--ell", "4"]) == 2
    assert "error: dimension cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["complex", "kostant", "killing"])
def test_cap_refuses_a_huge_valence_on_binomials(command, monkeypatch, capsys):
    """ell = 10^6 is refused on a binomial bound, before the hook-content
    product, whose cost grows quadratically in ell, is formed."""
    def product(*args):
        raise AssertionError("hook-content product formed past the cap")

    monkeypatch.setattr(young, "gl_dimension", product)
    monkeypatch.setattr(prolong, "gl_dimension", product)
    start = time.process_time()
    assert main([command, "--n", "2", "--ell", "1000000"]) == 2
    assert time.process_time() - start < 1
    assert "error: dimension cap exceeded" in capsys.readouterr().err


def test_killing_cap_admits_every_benchmarked_size(monkeypatch):
    # killing and suite sizes of the tests and the benchmark workloads
    sizes = [(n, ell) for n in (2, 3, 4) for ell in (1, 2)] + [(2, 3), (3, 3)]
    columns = {size: killing._guard_killing_cap(*size) for size in sizes}
    assert max(columns.values()) == columns[(3, 3)] == 1000
    # the parallel systems the coordinate rows make cheap: 490 bundle
    # dimensions x 70 monomials at n=4, ell=4 and x 56 at n=5, ell=3
    assert killing._guard_killing_cap(4, 4) == 34300
    assert killing._guard_killing_cap(5, 3) == 27440
    # n=2, ell=12 writes 91 kernel fields of up to 2^12 entries each
    assert killing._guard_killing_cap(2, 12) == 8281
    with pytest.raises(prolong.CapExceeded, match="860160 entries"):
        killing._guard_killing_cap(2, 13)
    # the parallel system at n=3, ell=3: 50 bundle dimensions x 20 monomials;
    # a cap one below that refuses it
    monkeypatch.setattr(killing, "KILLING_CAP", 999)
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


def _range_check_doc(tmp_path, doc):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(doc))
    return main(["range-check", "--input", str(path)])


def test_range_check_zero_denominator(tmp_path, capsys):
    doc = {
        "n": 2,
        "arity": 2,
        "entries": [{"idx": [1, 1], "poly": [{"exp": [1, 0], "coef": "1/0"}]}],
    }
    assert _range_check_doc(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert "invalid field document" in err
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("n", 3.9, id="n-float"),
        pytest.param("n", True, id="n-bool"),
        pytest.param("n", "3", id="n-string"),
        pytest.param("arity", 2.0, id="arity-float"),
        pytest.param("idx", [1, 1.7], id="idx-float"),
        pytest.param("idx", [True, 1], id="idx-bool"),
        pytest.param("exp", [0, 0, 2.9], id="exp-float"),
        pytest.param("exp", [False, 0, 2], id="exp-bool"),
    ],
)
def test_range_check_rejects_non_integer_fields(key, value, tmp_path, capsys):
    term = {"exp": [0, 0, 2], "coef": "1"}
    entry = {"idx": [1, 1], "poly": [term]}
    doc = {"n": 3, "arity": 2, "entries": [entry]}
    {"n": doc, "arity": doc, "idx": entry, "exp": term}[key][key] = value
    assert _range_check_doc(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert "invalid field document" in captured.err
    assert "must be an integer" in captured.err
    assert captured.out == ""


def test_range_check_cap_refuses_before_building(tmp_path, monkeypatch, capsys):
    def build(*args):
        raise AssertionError("a matrix was built past the cap")

    for name in ("_operator_matrix", "_obstruction_matrix", "integrability_operator"):
        monkeypatch.setattr(killing, name, build)
    # omega_11 = x1^2 at n=20: degree-3 potentials, 20 * C(23, 3) = 35420 columns
    doc = {
        "n": 20,
        "arity": 2,
        "entries": [{"idx": [1, 1], "poly": [{"exp": [2] + [0] * 19, "coef": "1"}]}],
    }
    assert _range_check_doc(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert "error: dimension cap exceeded" in err
    assert "35420 columns" in err


def test_range_check_cap_admits_every_benchmarked_size(monkeypatch):
    from killingcalc.fields import PolyTensorField
    from killingcalc.poly import PolyScalar

    def field(n, degree):
        mono = (degree,) + (0,) * (n - 1)
        return PolyTensorField(n, 2, {(1, 1): PolyScalar(n, {mono: Fraction(1)})})

    # range-check documents of the tests and the benchmark (potential degree
    # 3..5 at n=3, 4; degree 8 at n=2) and the suite's kernel solves (n <= 3,
    # potential degree <= 5)
    sizes = [(2, 8)] + [(n, d) for n in (2, 3, 4) for d in range(1, 6)]
    columns = {size: killing._guard_potential_cap(field(size[0], size[1] - 1)) for size in sizes}
    assert max(columns.values()) == columns[(4, 5)] == 504
    monkeypatch.setattr(killing, "DEFAULT_CAP", 503)
    with pytest.raises(CapExceeded):
        killing._guard_potential_cap(field(4, 4))


def _loaded_modules(code: str) -> set[str]:
    """The killingcalc modules a fresh interpreter holds after running code."""
    src = Path(killingcalc.__file__).resolve().parents[1]
    script = code + (
        "\nimport sys\nprint(*sorted(m for m in sys.modules "
        "if m.partition('.')[0] == 'killingcalc'), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    return set(out.stderr.split())


def test_cli_import_loads_no_check_family():
    loaded = _loaded_modules("import killingcalc.cli")
    assert loaded == {"killingcalc", "killingcalc.cap", "killingcalc.cli"}


def test_range_check_loads_only_the_field_modules(tmp_path):
    doc = {
        "n": 2,
        "arity": 2,
        "entries": [{"idx": [1, 1], "poly": [{"exp": [1, 0], "coef": "2"}]}],
    }
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(doc))
    loaded = _loaded_modules(
        "from killingcalc.cli import main\n"
        f"assert main(['range-check', '--input', {str(path)!r}]) == 0"
    )
    assert "killingcalc.killing" in loaded
    family = {"chain", "prolong", "young", "symspace", "kostant", "tractor"}
    assert not loaded & {f"killingcalc.{m}" for m in family}


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
