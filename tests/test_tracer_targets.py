"""The benchmark tracer's targets must exist in the package.

``perfbench/tracer.py`` wraps the functions its ``TARGETS`` table names,
and the benchmark reports ``null`` for the metrics of any target it
cannot resolve.  Renaming, moving or deleting a traced function would
therefore blank those metrics; these tests make that a failure here.
"""

from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

import pytest

from killingcalc import chain, elim, matrix, prolong

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
    """The recorders read rref_int's (rows, ncols) and its (pivots, rows)
    result; the rank wrapper reaches chain and prolong through their
    by-name imports."""
    assert list(inspect.signature(elim.rref_int).parameters) == ["rows", "ncols"]
    pivots, rows = elim.rref_int([{0: 2, 1: 4}], 2)
    assert pivots == [0] and rows == [{0: 1, 1: 2}]
    assert chain.rank is matrix.rank
    assert prolong.rank is matrix.rank
    assert list(inspect.signature(prolong.build_partial).parameters) == ["n", "ell", "p"]
