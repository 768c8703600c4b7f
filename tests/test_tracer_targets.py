"""The benchmark tracer's targets must exist in the package.

``perfbench/tracer.py`` wraps the functions its ``TARGETS`` table names,
and the benchmark reports ``null`` for the metrics of any target it
cannot resolve.  Renaming, moving or deleting a traced function would
therefore blank those metrics; these tests make that a failure here.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from killingcalc import chain, elim, killing, matrix, prolong, young

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name, modname, path", [t[:3] for t in tracer.TARGETS])
def test_every_target_resolves(name, modname, path):
    assert tracer._resolve(modname, path) is not None, name


def test_traced_signatures_and_import_sites():
    """The recorders read rref_int's first two arguments, (rows, ncols),
    and its (pivots, rows) result, in both modes; the matrix wrappers
    reach chain, prolong, killing and young through their by-name
    imports.  ``fields`` imports ``rref`` and ``kernel_basis`` where it
    runs, so the wrappers reach it by the module attribute (checked in a
    traced process below)."""
    assert list(inspect.signature(elim.rref_int).parameters) == ["rows", "ncols", "reduced"]
    pivots, rows = elim.rref_int([{0: 2, 1: 4}], 2)
    assert pivots == [0] and rows == [{0: 1, 1: 2}]
    pivots, rows = elim.rref_int([{0: 2, 1: 4}, {0: -3}], 2, reduced=False)
    assert pivots == [0, 1] and rows == [{0: 1}, {1: 1}]
    assert chain.rank is matrix.rank
    assert prolong.rank is matrix.rank
    assert killing.kernel_basis is young.kernel_basis is matrix.kernel_basis
    for fn in (matrix.rank, matrix.kernel_basis, matrix.rref):
        assert list(inspect.signature(fn).parameters) == ["m"]
    assert list(inspect.signature(matrix.solve).parameters) == ["m", "b"]
    assert list(inspect.signature(matrix.ExactMatrix.__mul__).parameters) == ["self", "other"]
    assert list(inspect.signature(prolong.build_partial).parameters) == ["n", "ell", "p"]


def test_traced_commands_reach_moved_and_lazily_imported_code(tmp_path):
    """In a fresh process with the tracer installed, range-check's solve
    goes through the wrapper of ``killing.killing_potential_solve``, which
    ``killing`` re-exports from ``potential``, and ``complex`` reaches
    ``ChainComplex.composites_vanish`` from the job builders that ``cli``
    imports only when the command runs.  ``killing`` records the layers
    the benchmark reads from it: the dim job's whole kernel, the
    degree-bound job's block kernels and span comparisons, and the
    parallel-section system's eliminations.  The Christoffel routes,
    which import the matrix kernel only when they run, go through the
    ``matrix.rref`` and ``matrix.kernel_basis`` wrappers."""
    doc = tmp_path / "omega.json"
    doc.write_text(json.dumps({
        "n": 2,
        "arity": 2,
        "entries": [{"idx": [1, 1], "poly": [{"exp": [1, 0], "coef": "2"}]}],
    }))
    script = f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
t = tracer.Tracer()
t.install()
from killingcalc.cli import main
assert main(["range-check", "--input", {str(doc)!r}]) == 0
assert main(["complex", "--n", "3", "--ell", "2"]) == 0
print(json.dumps(t.document()), file=sys.stderr)
assert main(["killing", "--n", "3", "--ell", "2"]) == 0
print(json.dumps(t.document()), file=sys.stderr)
from killingcalc import fields
fields._christoffel_solver.cache_clear()
fields.christoffel_solve(2, {{}})
fields.christoffel_homogeneous_kernel_dim(3)
print(json.dumps(t.document()), file=sys.stderr)
"""
    src = Path(chain.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    before, trace, jets = (json.loads(line) for line in out.stderr.splitlines()[-3:])
    assert trace["absent"] == []
    assert trace["spans"]["killing.killing_potential_solve"]["calls"] == 1
    assert trace["spans"]["chain.composites_vanish"]["calls"] > 0
    for name in (
        "matrix.kernel_basis",
        "matrix.rref",
        "killing.killing_kernel",
        "tractor.flat_parallel_dimension",
        "elim.rref_int",
    ):
        assert trace["spans"][name]["calls"] > before["spans"][name]["calls"], name
    for name in ("matrix.rref", "matrix.kernel_basis", "fields.christoffel_solve"):
        assert jets["spans"][name]["calls"] > trace["spans"][name]["calls"], name
