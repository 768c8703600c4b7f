from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import killingcalc
from helpers import clear_cohomology_memos
from killingcalc import (
    chain, cli, fields, jobs, killing, kostant, matrix, potential, prolong, tensor, young,
)
from killingcalc.cap import CapExceeded
from killingcalc.chain import ChainComplex
from killingcalc.cli import main
from killingcalc.matrix import ExactMatrix


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
    """A pair's report is computed once per process, from its dominant
    weight blocks: one cohomology_dims and one composites_vanish call per
    block, and running the pair's checks again, from new job lists, adds
    none."""
    forms = prolong.flat_forms if module is prolong else kostant.build_V
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
    clear_cohomology_memos()
    assert main([command, "--n", "3", "--ell", "2"]) == 0
    capsys.readouterr()
    once = {"cohomology_dims": blocks, "composites_vanish": blocks}
    assert calls == once
    build = jobs.complex_jobs if command == "complex" else jobs.kostant_jobs
    for _ in range(2):
        for _, _, job in build([3], [2]):
            job()
        assert calls == once


def test_suite_ranks_each_dominant_block_once(monkeypatch, capsys):
    """In one process, suite at n=3, ell=2 ranks each dominant block of the
    flat complex and of the Koszul complex once: the graded checks read
    the table the complex checks filled."""
    blocks = len(chain._dominant_weights(prolong.flat_forms(3, 2)))
    blocks += len(chain._dominant_weights(kostant.build_V(3, 2)))
    calls = []
    dims = chain.cohomology_dims

    def counted(cx):
        calls.append(cx.spaces)
        return dims(cx)

    monkeypatch.setattr(chain, "cohomology_dims", counted)
    clear_cohomology_memos()
    assert main(["suite", "--n", "3", "--ell", "2"]) == 0
    capsys.readouterr()
    assert len(calls) == blocks


def test_killing_family_computes_each_kernel_once(monkeypatch):
    """dim and degree-bound share the memoized whole kernel at max_degree
    ell, computed once; degree-bound then takes one kernel per dominant
    block at max_degree ell + 2 and never the whole system there, and
    parallel ranks its system without a kernel."""
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
            for _, _, job in jobs.killing_jobs([n], [ell]):
                job()
            whole = killing._operator_matrix(n, ell, ell)
            blocks = [b for _, _, b in killing._operator_blocks(n, ell, ell + 2)]
            assert calls == [(whole.rows, whole.cols)] + [(b.rows, b.cols) for b in blocks]
    finally:
        killing.killing_kernel_vectors.cache_clear()


def test_christoffel_family_solves_once_per_slot(monkeypatch):
    """The solution operator is eliminated once per n, one solve per
    symmetric slot (6, 18 and 40 at n = 2, 3, 4), not once per jet.
    ``fields`` imports ``solve`` where it runs, so the spy sits on
    ``matrix``."""
    calls = []
    original = matrix.solve

    def counted(m, b):
        calls.append(b)
        return original(m, b)

    monkeypatch.setattr(matrix, "solve", counted)
    fields._christoffel_solver.cache_clear()
    try:
        for _ in range(2):
            for _, _, job in jobs.christoffel_jobs([2, 3, 4]):
                job()
        assert len(calls) == 6 + 18 + 40
    finally:
        fields._christoffel_solver.cache_clear()


def test_a_wrong_solution_operator_fails_the_random_jets_check(monkeypatch):
    original = fields._christoffel_solver
    op = original(3)
    data = [dict(row) for row in op.data]
    i = next(i for i, row in enumerate(data) if row)
    j = next(iter(data[i]))
    data[i][j] += op.scale
    wrong = ExactMatrix.from_int_rows(op.cols, data, op.scale)
    monkeypatch.setattr(fields, "_christoffel_solver", lambda n: wrong if n == 3 else original(n))
    picked = [job for job in jobs.christoffel_jobs([3]) if job[0] == "christoffel.n3.random-jets"]
    (check,) = cli._run_jobs(picked, False)
    assert check["computed"]["agree"] < 50
    assert check["verdict"] == "fail"


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

    def build(*args):
        raise Built

    monkeypatch.setattr(tensor, "Tensor", build)
    assert main(["verify-key", "--n", "35"]) == 2
    err = capsys.readouterr().err
    assert "error: dimension cap exceeded" in err and "20825" in err
    with pytest.raises(Built):
        main(["verify-key", "--n", "34"])


def test_verify_key_range_refused_before_its_first_check(monkeypatch, capsys):
    """n=33 and n=34 are admitted, n=35 is not: the whole range exits 2
    before the n=33 check builds a tensor, naming the first oversized n."""
    def build(*args):
        raise AssertionError("a tensor was built for a refused range")

    monkeypatch.setattr(tensor, "Tensor", build)
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


_CHOICES = "'verify-key', 'complex', 'kostant', 'killing', 'range-check', 'suite'"


@pytest.mark.parametrize(
    "argv, last_line",
    [
        (["verify-key", "--n", "1"],
         "killingcalc verify-key: error: argument --n: values must be at least 2, got '1'"),
        (["complex", "--n", "1", "--ell", "1"],
         "killingcalc complex: error: argument --n: values must be at least 2, got '1'"),
        (["kostant", "--n", "2", "--ell", "0"],
         "killingcalc kostant: error: argument --ell: values must be at least 1, got '0'"),
        (["killing", "--n", "1..3", "--ell", "1"],
         "killingcalc killing: error: argument --n: values must be at least 2, got '1..3'"),
        (["suite", "--n", "2", "--ell", "0..1"],
         "killingcalc suite: error: argument --ell: values must be at least 1, got '0..1'"),
        (["complex", "--n", "2"],
         "killingcalc complex: error: the following arguments are required: --ell"),
        ([], "killingcalc: error: the following arguments are required: command"),
        (["bogus"],
         f"killingcalc: error: argument command: invalid choice: 'bogus' (choose from {_CHOICES})"),
        (["complex", "--n", "2", "--ell", "1", "--foo"],
         "killingcalc: error: unrecognized arguments: --foo"),
        (["range-check", "--input", "omega.json", "--degree-cap", "abc"],
         "killingcalc range-check: error: argument --degree-cap: invalid int value: 'abc'"),
        (["complex", "--n", "2", "--ell", "5..2"],
         "killingcalc complex: error: argument --ell: empty range '5..2'"),
    ],
)
def test_usage_errors_print_usage_then_argparse_message(argv, last_line):
    """A usage error exits 2 from a fresh process with the usage line, then
    the message argparse printed for the same command line, and no
    traceback."""
    src = Path(killingcalc.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "killingcalc.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: killingcalc")
    assert out.stderr.splitlines()[-1] == last_line
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([c, "-h"] for c in cli._COMMANDS)])
def test_help_lists_every_option(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: killingcalc {argv[0] + ' ' if len(argv) == 2 else ''}[-h]")
    assert "-h, --help" in out
    if len(argv) == 1:
        names = list(cli._COMMANDS)
    else:
        names = [name for name, *_ in cli._COMMANDS[argv[0]][1]]
    for name in names:
        assert f"  {name} " in out


@pytest.mark.parametrize(
    "argv, parsed",
    [
        (["complex", "--n=2..3", "--ell=1"],
         {"n": range(2, 4), "ell": range(1, 2), "output": None, "timings": False}),
        (["suite", "--n", "2", "--ell", "1", "--out", "r.json", "--tim"],
         {"n": range(2, 3), "ell": range(1, 2), "output": "r.json", "timings": True}),
        (["killing", "--n", "2", "--n", "3", "--e", "1", "--out=a", "--output", "b"],
         {"n": range(3, 4), "ell": range(1, 2), "output": "b", "timings": False}),
        (["range-check", "--in", "f.json"], {"n": None, "input": "f.json", "degree_cap": 6}),
        (["range-check", "--input=f.json", "--degree-cap=3", "--n", "-3"],
         {"n": -3, "input": "f.json", "degree_cap": 3}),
    ],
)
def test_attached_values_prefixes_and_repeats_parse_as_argparse_did(argv, parsed):
    assert cli._parse(argv) == (argv[0], parsed)


def test_an_abbreviated_option_writes_the_same_report(tmp_path, capsys):
    full, short = tmp_path / "full.json", tmp_path / "short.json"
    assert main(["complex", "--n", "2", "--ell", "1", "--output", str(full)]) == 0
    assert main(["complex", "--n=2", "--ell=1", "--out", str(short)]) == 0
    assert short.read_bytes() == full.read_bytes()


def test_failing_check_exit_code(capsys):
    checks = cli._run_jobs([("z.fake", {"n": 2}, lambda: (1, 2))], False)
    assert checks[0]["verdict"] == "fail"
    assert cli._emit(None, "suite", {}, checks) == 1
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


def test_range_check_accumulates_repeated_exponents(tmp_path, capsys):
    # x1 - x1 in one poly list is the zero entry, as it is over two idx entries
    terms = [{"exp": [1, 0], "coef": "1"}, {"exp": [1, 0], "coef": "-1"}]
    outputs = []
    for entries in (
        [{"idx": [1, 1], "poly": terms}],
        [{"idx": [1, 1], "poly": [t]} for t in terms],
    ):
        path = tmp_path / "omega.json"
        path.write_text(json.dumps({"n": 2, "arity": 2, "entries": entries}))
        assert main(["range-check", "--n", "2", "--input", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0]) == {"n": 2, "arity": 1, "entries": []}


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


@pytest.mark.parametrize(
    "content, message",
    [
        (b'\xff\xfe{"n": 2}', "cannot read {}: not UTF-8 at byte 0"),
        (b"[" * 100000 + b"]" * 100000, "malformed JSON in {}: nested too deeply"),
    ],
)
def test_range_check_undecodable_or_too_deep_input(content, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(["range-check", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path)}\n"


@pytest.mark.parametrize("missing", [True, False])
def test_an_unwritable_output_exits_2(missing, tmp_path, capsys):
    """An --output in a missing directory, or naming a directory, exits 2
    with one error line and no check lines."""
    path = tmp_path / "missing" / "report.json" if missing else tmp_path
    assert main(["verify-key", "--n", "2", "--output", str(path)]) == 2
    out, err = capsys.readouterr()
    reason = "No such file or directory" if missing else "Is a directory"
    assert (out, err) == ("", f"error: cannot write {path}: {reason}\n")


def test_an_unwritable_output_is_refused_before_the_first_check(tmp_path, monkeypatch, capsys):
    """suite --output in a missing directory exits 2 before any check runs:
    no thunk is called and no PASS line is printed."""
    ran = []
    original = cli._run_jobs

    def run(jobs, with_timings):
        ran.append(len(jobs))
        return original(jobs, with_timings)

    monkeypatch.setattr(cli, "_run_jobs", run)
    path = tmp_path / "missing" / "r.json"
    assert main(["suite", "--n", "2", "--ell", "1", "--output", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out and ran == []
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_a_refused_size_leaves_an_existing_report(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text("kept")
    assert main(["complex", "--n", "5", "--ell", "4", "--output", str(path)]) == 2
    capsys.readouterr()
    assert path.read_text() == "kept"


@pytest.mark.parametrize(
    "long, short",
    [
        ("complex --n 2 --ell 1..1000000", "complex --n 2 --ell 1..200"),
        ("kostant --n 2..1000000 --ell 1", "kostant --n 2..20 --ell 1"),
        ("killing --n 2..3 --ell 1..1000000", "killing --n 2..3 --ell 1..20"),
        ("verify-key --n 2..1000000", "verify-key --n 2..40"),
        ("suite --n 2..1000000 --ell 1", "suite --n 2..40 --ell 1"),
        ("suite --n 2 --ell 1..1000000", "suite --n 2 --ell 1..200"),
    ],
)
def test_a_long_range_is_refused_in_bounded_memory(long, short, capsys):
    """The builders read a range one size at a time, and every cap grows
    with n and ell, so a 10^6-long range is refused with the message of a
    short range holding the same first oversized size, in memory that
    does not grow with the range's length."""
    assert main(short.split()) == 2
    want = capsys.readouterr().err
    assert want.startswith("error: dimension cap exceeded")
    tracemalloc.start()
    try:
        assert main(long.split()) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == want
    assert peak < 2**20, peak


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

    for name in ("_operator_matrix", "_obstruction_matrix"):
        monkeypatch.setattr(killing, name, build)
    monkeypatch.setattr(potential, "integrability_operator", build)
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
    columns = {size: potential._guard_potential_cap(field(size[0], size[1] - 1)) for size in sizes}
    assert max(columns.values()) == columns[(4, 5)] == 504
    monkeypatch.setattr(potential, "DEFAULT_CAP", 503)
    with pytest.raises(CapExceeded):
        potential._guard_potential_cap(field(4, 4))


def _loaded_modules(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    src = Path(killingcalc.__file__).resolve().parents[1]
    script = code + "\nimport sys\nprint(*sorted(sys.modules), file=sys.stderr)\n"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    return set(out.stderr.split())


def _run_loaded(argv) -> set[str]:
    return _loaded_modules(f"from killingcalc.cli import main\nassert main({argv!r}) == 0")


# importing argparse (which pulls in gettext and locale) and building its
# parser cost every fresh process several ms; the CLI reads its own table
_ARGPARSE = {"argparse", "gettext", "locale"}


def test_cli_import_loads_no_check_family():
    loaded = _loaded_modules("import killingcalc.cli")
    package = {m for m in loaded if m.partition(".")[0] == "killingcalc"}
    assert package == {"killingcalc", "killingcalc.cap", "killingcalc.cli"}
    assert not loaded & _ARGPARSE


def _omega_argv(tmp_path) -> list[str]:
    doc = {
        "n": 2,
        "arity": 2,
        "entries": [{"idx": [1, 1], "poly": [{"exp": [1, 0], "coef": "2"}]}],
    }
    path = tmp_path / "omega.json"
    path.write_text(json.dumps(doc))
    return ["range-check", "--input", str(path)]


def test_range_check_loads_only_the_field_modules(tmp_path):
    """range-check runs the fields of ``poly`` and ``potential``: no field
    calculus, no tensor, no metric, no matrix kernel, no family, no job
    builders and no Killing operator matrices."""
    loaded = _run_loaded(_omega_argv(tmp_path))
    assert "killingcalc.potential" in loaded
    never = {
        "fields", "tensor", "metric", "matrix", "elim", "chain", "prolong", "young",
        "symspace", "kostant", "tractor", "killing", "jobs",
    }
    assert not loaded & {f"killingcalc.{m}" for m in never}


_STARTUP = {"killingcalc", "killingcalc.cap", "killingcalc.cli"}
_FAMILY = _STARTUP | {
    f"killingcalc.{m}" for m in ("chain", "elim", "jobs", "matrix", "prolong", "symspace", "young")
}
# the fields and the potential solver; the field calculus (``fields``) is
# loaded by neither range-check nor killing
_FIELDS = {f"killingcalc.{m}" for m in ("poly", "potential", "rationals")}


@pytest.mark.parametrize("command, package", [
    ("range-check", _STARTUP | _FIELDS),
    ("complex", _FAMILY),
    ("kostant", _FAMILY | {"killingcalc.kostant"}),
    ("killing", _FAMILY | _FIELDS | {"killingcalc.killing", "killingcalc.tractor"}),
])
def test_benchmarked_commands_load_exactly_their_modules(command, package, tmp_path):
    """A fresh process of each command the benchmark runs compiles exactly
    these package modules, so a new top-level import that adds compile
    cost to one of them fails here."""
    if command == "range-check":
        argv = _omega_argv(tmp_path)
    else:
        argv = [command, "--n", "3", "--ell", "1"]
    loaded = _run_loaded(argv)
    assert {m for m in loaded if m.partition(".")[0] == "killingcalc"} == package
    assert not loaded & _ARGPARSE


@pytest.mark.parametrize("command", ["complex", "kostant", "killing", "suite"])
def test_family_commands_load_no_dataclasses(command):
    loaded = _run_loaded([command, "--n", "2", "--ell", "1"])
    assert not loaded & {"dataclasses", "inspect"}


def test_killing_loads_neither_metric_nor_kostant():
    loaded = _run_loaded(["killing", "--n", "3", "--ell", "2"])
    assert "killingcalc.tractor" in loaded
    assert not loaded & {"killingcalc.metric", "killingcalc.kostant"}


def test_parse_range():
    assert cli._parse_range("4") == range(4, 5)
    assert cli._parse_range("2..5") == range(2, 6)
    with pytest.raises(cli.UsageError, match="empty range"):
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
