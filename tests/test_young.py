from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import pytest

from helpers import REALIZED_IDS, REALIZED_SHAPES
from killingcalc import young
from killingcalc.matrix import ExactMatrix
from killingcalc.symspace import GroupedSpace, Group, SYM, extract
from killingcalc.tensor import antisymmetrize, symmetrize
from killingcalc.young import (
    DynkinLabel,
    YoungDiagram,
    clear_realization_cache,
    gl_dimension,
    realize_irreducible,
    weyl_dimension,
)


def _ssyt_count(shape: tuple[int, ...], n: int) -> int:
    """Brute-force count of semistandard fillings with entries in 1..n.

    Rows weakly increase left to right, columns strictly increase top to
    bottom.  Independent of the hook content formula, so it serves as an
    oracle for gl_dimension on small shapes.
    """
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]

    def rec(i: int, filled: dict) -> int:
        if i == len(cells):
            return 1
        r, c = cells[i]
        lo = 1
        if c > 0:
            lo = max(lo, filled[(r, c - 1)])
        if r > 0:
            lo = max(lo, filled[(r - 1, c)] + 1)
        total = 0
        for v in range(lo, n + 1):
            filled[(r, c)] = v
            total += rec(i + 1, filled)
        filled.pop((r, c), None)
        return total

    return rec(0, {})


SHAPES = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)]


def test_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))
    assert YoungDiagram((3, 1)).conjugate() == (2, 1, 1)
    assert YoungDiagram((3, 1)).size == 4


def test_gl_dimension_matches_tableau_count():
    for shape in SHAPES:
        for n in (2, 3, 4):
            assert gl_dimension(YoungDiagram(shape), n) == _ssyt_count(shape, n)


def test_gl_dimension_zero_when_too_many_rows():
    assert gl_dimension(YoungDiagram((1, 1, 1)), 2) == 0
    assert gl_dimension(YoungDiagram((2, 2, 1)), 2) == 0


def test_weyl_dimension_known_representations():
    assert weyl_dimension((0,)) == 1
    assert weyl_dimension((1,)) == 2
    assert weyl_dimension((2,)) == 3
    assert weyl_dimension((1, 0)) == 3
    assert weyl_dimension((1, 1)) == 8
    assert weyl_dimension((2, 2)) == 27
    assert weyl_dimension((1, 0, 0)) == 4
    assert weyl_dimension((0, 1, 0)) == 6
    assert weyl_dimension((1, 0, 1)) == 15


def test_weyl_and_hook_content_agree():
    # a partition with fewer than n rows names the sl(n) irrep whose
    # label is the vector of consecutive row differences
    for shape in SHAPES:
        for n in (3, 4, 5):
            if len(shape) >= n:
                continue
            rows = shape + (0,) * (n - 1 - len(shape))
            label = tuple(rows[i] - rows[i + 1] for i in range(n - 2)) + (rows[n - 2],)
            assert gl_dimension(YoungDiagram(shape), n) == weyl_dimension(label)


def test_dynkin_label_rejects_negative_entries():
    with pytest.raises(ValueError):
        DynkinLabel((-1, 2))
    with pytest.raises(ValueError):
        weyl_dimension((-2, 1))


def test_realized_bases_have_predicted_rank():
    for shape in [(2,), (2, 1), (2, 2), (3, 1), (1, 1)]:
        for n in (2, 3):
            basis = realize_irreducible(YoungDiagram(shape), n)
            assert basis.dim == gl_dimension(YoungDiagram(shape), n)
            if basis.dim:
                # each basis tensor extracts back to a unit coordinate vector
                vec = extract(basis.space, basis.tensor(0))
                assert basis.coords({i: v for i, v in enumerate(vec) if v}) == {0: 1}


def test_symmetric_pair_basis_tensors_have_stated_symmetries():
    basis = realize_irreducible(YoungDiagram((2, 1)), 3, "symmetric-pair")
    # grouped layout (SYM 1, SYM 2): slot 1 then a symmetric pair
    for j in range(basis.dim):
        t = basis.tensor(j)
        assert symmetrize(t, (2, 3)) == t
        # trailing-slot symmetrization over all three slots vanishes:
        # that is the constraint cutting (2,1) out of sym1 x sym2
        assert symmetrize(t, (1, 2, 3)).is_zero()


def test_row_and_column_presentations():
    row = realize_irreducible(YoungDiagram((3,)), 2, "row")
    assert row.dim == gl_dimension(YoungDiagram((3,)), 2) == 4
    col = realize_irreducible(YoungDiagram((1, 1, 1)), 3, "column-skew")
    assert col.dim == 1
    t = col.tensor(0)
    assert antisymmetrize(t, (1, 2, 3)) == t


def test_cache_returns_identical_object():
    clear_realization_cache()
    a = realize_irreducible(YoungDiagram((2, 1)), 3)
    b = realize_irreducible(YoungDiagram((2, 1)), 3)
    assert a is b


def test_realization_deterministic_across_cache_clear():
    clear_realization_cache()
    a = realize_irreducible(YoungDiagram((2, 2)), 3)
    clear_realization_cache()
    b = realize_irreducible(YoungDiagram((2, 2)), 3)
    assert a is not b
    assert a.coord_basis == b.coord_basis
    assert a.space.groups == b.space.groups


def _refuse_to_realize(*args):
    raise AssertionError("basis recomputed instead of read from the disk cache")


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("KILLINGCALC_CACHE_DIR", str(tmp_path))
    cases = [((2, 1), 3, "symmetric-pair"), ((2, 2), 3, "column-skew")]
    first = {}
    clear_realization_cache()
    for shape, n, kind in cases:
        first[kind] = realize_irreducible(YoungDiagram(shape), n, kind)
    files = list(tmp_path.iterdir())
    assert len(files) == len(cases) and all(f.suffix == ".json" for f in files)
    clear_realization_cache()
    with monkeypatch.context() as m:
        m.setattr(young, "_realize", _refuse_to_realize)
        for shape, n, kind in cases:
            a = first[kind]
            b = realize_irreducible(YoungDiagram(shape), n, kind)
            assert b is not a
            assert b.coord_basis == a.coord_basis
            assert b.space.groups == a.space.groups
            assert b.dim == a.dim
    clear_realization_cache()


def test_disk_cache_ignores_stale_temporary_path(tmp_path, monkeypatch):
    # a leftover at the old shared "<name>.json.tmp" path (here a directory,
    # which cannot be opened for writing) must not block the write
    monkeypatch.setenv("KILLINGCALC_CACHE_DIR", str(tmp_path))
    path = young._disk_cache_path(((2, 1), 3, "symmetric-pair"))
    os.mkdir(path + ".tmp")
    clear_realization_cache()
    a = realize_irreducible(YoungDiagram((2, 1)), 3)
    assert os.path.isfile(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [os.path.basename(path), os.path.basename(path) + ".tmp"]
    )
    clear_realization_cache()
    monkeypatch.setattr(young, "_realize", _refuse_to_realize)
    b = realize_irreducible(YoungDiagram((2, 1)), 3)
    assert b is not a
    assert b.coord_basis == a.coord_basis
    assert b.space.groups == a.space.groups
    clear_realization_cache()


@pytest.mark.parametrize(
    "shape, n, kind", [((2, 1), 3, "symmetric-pair"), ((2, 2), 3, "column-skew")]
)
def test_disk_cache_recomputes_an_edited_basis(shape, n, kind, tmp_path, monkeypatch):
    """A cached basis with any one entry changed or dropped is not used:
    the realization recomputes the basis and rewrites the file."""
    monkeypatch.setenv("KILLINGCALC_CACHE_DIR", str(tmp_path))
    path = young._disk_cache_path((shape, n, kind))
    clear_realization_cache()
    fresh = realize_irreducible(YoungDiagram(shape), n, kind)
    with open(path, "rb") as fh:
        original = fh.read()
    payload = json.loads(original)
    edits = []
    for i, (r, c, v) in enumerate(payload["coord_basis"]["entries"]):
        edits.append((i, [r, c, str(Fraction(v) + 1)]))
        edits.append((i, None))
    assert len(edits) > 2 * fresh.dim  # entries beyond the leading 1s
    for i, entry in edits:
        edited = json.loads(original)
        if entry is None:
            del edited["coord_basis"]["entries"][i]
        else:
            edited["coord_basis"]["entries"][i] = entry
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(edited, fh, sort_keys=True)
        clear_realization_cache()
        again = realize_irreducible(YoungDiagram(shape), n, kind)
        assert again.coord_basis == fresh.coord_basis, (i, entry)
        with open(path, "rb") as fh:
            assert fh.read() == original
    clear_realization_cache()


@pytest.mark.parametrize("shape, n, kind", REALIZED_SHAPES, ids=REALIZED_IDS)
def test_lead_row_coordinates_round_trip_and_reject(shape, n, kind):
    """Coordinates are the values at the lead rows: every member of the
    span gets its own coefficients back, and a member changed at a row
    that is no column's lead (so off the span) is rejected."""
    basis = realize_irreducible(YoungDiagram(shape), n, kind)
    rng = random.Random(f"{shape} {n} {kind}")
    cols = basis.columns
    for j, col in enumerate(cols):
        assert basis.coords(col) == {j: 1}
    coeffs = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for j in range(basis.dim)}
    coeffs = {j: c for j, c in coeffs.items() if c}
    y = basis.coord_basis.apply(coeffs)
    assert basis.coords(y) == coeffs
    leads = set(basis.leads)
    free = [r for r in range(basis.space.dim) if r not in leads]
    for r in rng.sample(free, min(5, len(free))):
        off = dict(y)
        off[r] = off.get(r, 0) + 1
        with pytest.raises(ValueError, match="outside the column span"):
            basis.coords(off)


def test_subspace_basis_rejects_unreduced_columns():
    space = GroupedSpace(2, [Group(SYM, 2)])  # dimension 3
    for cols in ([{0: 1, 1: 1}, {1: 1}], [{1: 1}, {0: 1}], [{0: 2}], [{}], [{0: 1, 2: 1}, {2: 1}]):
        with pytest.raises(ValueError, match="reduced shape"):
            young.SubspaceBasis(space, ExactMatrix.from_columns(cols, 3))
    young.SubspaceBasis(space, ExactMatrix.from_columns([{0: 1}, {1: 5, 2: 1}], 3))


def test_extract_inverts_basis_embedding():
    rng = random.Random(67)
    basis = realize_irreducible(YoungDiagram((2, 1)), 3)
    # a random combination of basis tensors must extract back exactly
    coeffs = [rng.randint(-3, 3) for _ in range(basis.dim)]
    t = None
    for j, c in enumerate(coeffs):
        term = basis.tensor(j).scale(c)
        t = term if t is None else t + term
    vec = extract(basis.space, t)
    got = basis.coords({i: v for i, v in enumerate(vec) if v})
    assert got == {j: Fraction(c) for j, c in enumerate(coeffs) if c}
