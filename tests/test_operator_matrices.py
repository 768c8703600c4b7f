"""The operator matrices against the field calculus they encode.

``killing`` and ``tractor`` write their matrices entry by entry from
closed-form coefficient rules.  The oracle here rebuilds each column the
slow way: it makes the unit field of that coordinate, applies the field
operator (``higher_killing_operator``, ``helpers.field_obstruction``,
``killing_operator``, ``flat_component_derivative``) and reads the image
off in the same row coordinates.  The flat connection is read both on
ambient index tuples (``helpers.ambient_parallel_system``) and on the
component bases, where ``tractor`` writes it.  The obstruction oracle
is full-index field calculus, not ``integrability_operator``, which
shares the matrix's per-term rule.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, lcm

import pytest

from helpers import ambient_parallel_system, entries, field_obstruction, whole_rref
from killingcalc.fields import PolyTensorField
from killingcalc.killing import (
    DEFAULT_DEGREE_CAP,
    _obstruction_matrix,
    _operator_matrix,
    higher_killing_operator,
    integrability_of_killing_matrix,
    killing_operator,
    symmetric_coordinates,
)
from killingcalc.matrix import ExactMatrix, integer_rank, rank
from killingcalc.poly import PolyScalar, monomials
from killingcalc.prolong import build_T, flat_forms
from killingcalc.symspace import extract
from killingcalc.tensor import Tensor
from killingcalc.tractor import (
    ComponentSection,
    _coordinate_rows,
    flat_component_derivative,
    flat_parallel_dimension,
)


def _unit_field(n, arity, key, mono):
    p = PolyScalar(n, {mono: Fraction(1)})
    return PolyTensorField(n, arity, {perm: p for perm in set(permutations(key))})


def _symmetric_rows(n, arity, max_degree):
    coords = symmetric_coordinates(n, arity, max_degree)
    return {c: i for i, c in enumerate(coords)}, len(coords)


def _full_index_rows(n, max_degree):
    """(a, b, c, d) in lexicographic order, then monomials."""
    mons = monomials(n, max(max_degree, 0))
    mpos = {m: i for i, m in enumerate(mons)}

    def row(idx, m):
        flat = 0
        for i in idx:
            flat = flat * n + i - 1
        return flat * len(mons) + mpos[m]

    return row, (n ** 4) * len(mons)


def _oracle_operator(n, ell, max_degree):
    out_pos, nrows = _symmetric_rows(n, ell + 1, max_degree - 1)
    cols = []
    for key, mono in symmetric_coordinates(n, ell, max_degree):
        image = higher_killing_operator(_unit_field(n, ell, key, mono))
        cols.append({
            out_pos[(idx, m)]: v
            for idx, s in image.comps.items() if list(idx) == sorted(idx)
            for m, v in s.terms.items()
        })
    return ExactMatrix.from_columns(cols, nrows)


def _oracle_obstruction(n, max_degree):
    row, nrows = _full_index_rows(n, max_degree - 2)
    cols = []
    for key, mono in symmetric_coordinates(n, 2, max_degree):
        image = field_obstruction(_unit_field(n, 2, key, mono))
        cols.append({
            row(idx, m): v for idx, s in image.comps.items() for m, v in s.terms.items()
        })
    return ExactMatrix.from_columns(cols, nrows)


def _oracle_composite(n, max_degree):
    row, nrows = _full_index_rows(n, max_degree - 3)
    cols = []
    for key, mono in symmetric_coordinates(n, 1, max_degree):
        image = field_obstruction(killing_operator(_unit_field(n, 1, key, mono)))
        cols.append({
            row(idx, m): v for idx, s in image.comps.items() for m, v in s.terms.items()
        })
    return ExactMatrix.from_columns(cols, nrows)


def _oracle_parallel(n, ell, max_degree):
    """Entries keyed by (row label, column), in the column order of
    ``helpers.ambient_parallel_system``: component, basis tensor, monomial."""
    pro = build_T(n, ell)
    entries = {}
    col = 0
    for k, comp in enumerate(pro.components):
        for j in range(comp.dim):
            base = comp.tensor(j)
            for m in monomials(n, max_degree):
                parts = [PolyTensorField.zero(n, c.arity) for c in pro.components]
                p = PolyScalar(n, {m: Fraction(1)})
                parts[k] = PolyTensorField(
                    n, comp.arity, {idx: p.scale(v) for idx, v in base.entries.items()}
                )
                sec = ComponentSection(n, ell, parts)
                for kk, f in enumerate(flat_component_derivative(sec)):
                    for idx, s in f.comps.items():
                        for mm, v in s.terms.items():
                            entries[((kk, idx, mm), col)] = v
                col += 1
    return entries, col


OPERATOR_SIZES = [
    (n, ell, d)
    for n in (2, 3, 4)
    for ell in (1, 2, 3)
    for d in (ell, ell + 1)
    if not (n == 4 and ell == 3 and d == 4)
]


@pytest.mark.parametrize("n, ell, max_degree", OPERATOR_SIZES)
def test_operator_matrix_matches_field_calculus(n, ell, max_degree):
    m = _operator_matrix(n, ell, max_degree)
    want = _oracle_operator(n, ell, max_degree)
    assert (m.rows, m.cols) == (want.rows, want.cols)
    assert m == want


# (4, 4) is the largest obstruction the CLI builds: integrability_kernel(4, 4)
# and integrability_of_killing_matrix(4, 5) in the range checks at n=4
@pytest.mark.parametrize(
    "n, max_degree",
    [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)],
)
def test_obstruction_and_composite_match_field_calculus(n, max_degree):
    m = _obstruction_matrix(n, max_degree)
    want = _oracle_obstruction(n, max_degree)
    assert (m.rows, m.cols) == (want.rows, want.cols)
    assert m == want
    # the composite needs one degree more to reach the same obstruction
    m = integrability_of_killing_matrix(n, max_degree + 1)
    want = _oracle_composite(n, max_degree + 1)
    assert (m.rows, m.cols) == (want.rows, want.cols)
    assert m == want and m.is_zero()


# every operator and obstruction matrix size the tests and the CLI checks build
TRUSTED_OPERATOR_SIZES = sorted(
    {(n, ell, d) for n in (2, 3, 4) for ell in (1, 2, 3) for d in range(ell, ell + 3)}
    | {(n, 1, d) for n in (2, 3, 4) for d in range(1, DEFAULT_DEGREE_CAP + 1)}
)
TRUSTED_OBSTRUCTION_SIZES = [(n, d) for n in (2, 3, 4) for d in range(6)]


def _assert_checked_form(m):
    """m, wrapped by ``from_int_rows`` with no checks, is well formed: one
    row per matrix row, every entry a nonzero int inside the shape, a
    positive int scale, and equal to what the checking constructor makes
    of its entries."""
    assert len(m.data) == m.rows
    assert all(type(v) is int and v for row in m.data for v in row.values())
    assert all(0 <= c < m.cols for row in m.data for c in row)
    assert type(m.scale) is int and m.scale > 0
    assert m == ExactMatrix(m.rows, m.cols, entries(m))


@pytest.mark.parametrize("n, ell, max_degree", TRUSTED_OPERATOR_SIZES)
def test_operator_matrix_is_checked_form(n, ell, max_degree):
    _assert_checked_form(_operator_matrix(n, ell, max_degree))


@pytest.mark.parametrize("n, max_degree", TRUSTED_OBSTRUCTION_SIZES)
def test_obstruction_matrix_is_checked_form(n, max_degree):
    _assert_checked_form(_obstruction_matrix(n, max_degree))


PARALLEL_SIZES = [
    (2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3),
    (3, 1, 1), (3, 1, 2), (3, 2, 2), (3, 3, 1),
    (4, 1, 1), (4, 2, 1), (4, 3, 0),
]


def _column_scales(n, ell, max_degree):
    """The positive integer each column of ``ambient_parallel_system`` carries:
    the lcm of the denominators of its basis tensor, once per monomial."""
    scales = []
    for comp in build_T(n, ell).components:
        for j in range(comp.dim):
            scale = lcm(*(v.denominator for v in comp.tensor(j).entries.values()))
            scales += [scale] * len(monomials(n, max_degree))
    return scales


@pytest.mark.parametrize("n, ell, max_degree", PARALLEL_SIZES)
def test_parallel_system_matches_field_calculus(n, ell, max_degree):
    rows, ncols = ambient_parallel_system(n, ell, max_degree)
    want, cols = _oracle_parallel(n, ell, max_degree)
    assert ncols == cols
    assert all(rows.values())
    assert all(type(v) is int for row in rows.values() for v in row.values())
    scales = _column_scales(n, ell, max_degree)
    got = {(label, c): v for label, row in rows.items() for c, v in row.items()}
    assert got == {(label, c): v * scales[c] for (label, c), v in want.items()}


@pytest.mark.parametrize("n, ell", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_parallel_rank_matches_oracle_matrix(n, ell):
    """integer_rank of the scaled integer rows, with repeated rows
    dropped, equals the rank of the unscaled field-calculus matrix."""
    rows, ncols = ambient_parallel_system(n, ell, ell)
    want, cols = _oracle_parallel(n, ell, ell)
    label_pos: dict = {}
    entries = {
        (label_pos.setdefault(label, len(label_pos)), c): v for (label, c), v in want.items()
    }
    oracle = ExactMatrix(len(label_pos), cols, entries)
    oracle_rank = len(whole_rref(oracle)[0])
    assert integer_rank(rows.values(), ncols) == oracle_rank
    assert cols - oracle_rank == build_T(n, ell).total_dim


def _oracle_coordinates(n, ell, max_degree):
    """The field-calculus entries of ``_oracle_parallel`` read in component
    coordinates: for each column, component kk, monomial and direction a,
    the slice of the derivative with leading index a, as coordinates on
    the basis of T_kk (``SubspaceBasis.coords`` raises if it lies outside
    T_kk).  Keyed by (row label (a, r, m), column), r a basis column of T."""
    comps = build_T(n, ell).components
    offsets = [sum(c.dim for c in comps[:k]) for k in range(len(comps))]
    want, cols = _oracle_parallel(n, ell, max_degree)
    slices: dict = {}
    for ((kk, idx, mm), col), v in want.items():
        slices.setdefault((col, kk, mm, idx[0]), {})[idx[1:]] = v
    out = {}
    for (col, kk, mm, a), part in slices.items():
        comp = comps[kk]
        y = extract(comp.space, Tensor(n, comp.arity, part))
        for r, v in comp.coords({i: v for i, v in enumerate(y) if v}).items():
            out[((a, offsets[kk] + r, mm), col)] = v
    return out, cols


@pytest.mark.parametrize("n, ell, max_degree", PARALLEL_SIZES)
def test_coordinate_system_matches_field_calculus(n, ell, max_degree):
    forms = flat_forms(n, ell)
    mons = monomials(n, max_degree)
    rows = dict(_coordinate_rows(forms, mons))
    ncols = forms.dim * len(mons)
    want, cols = _oracle_coordinates(n, ell, max_degree)
    assert ncols == cols
    # at most one row per direction and column, by construction
    assert len(rows) <= n * ncols
    assert all(type(v) is int and v for row in rows.values() for v in row.values())
    got = {(label, c): v for label, row in rows.items() for c, v in row.items()}
    assert got == {key: v * forms.scale for key, v in want.items()}


COORDINATE_SIZES = sorted(
    {size for size in PARALLEL_SIZES if size[0] <= 3}
    | {(4, 2, 2), (2, 1, 3), (2, 2, 4), (3, 1, 3), (3, 2, 3), (2, 3, 5)}
)


@pytest.mark.parametrize("n, ell, max_degree", COORDINATE_SIZES)
def test_coordinate_rank_matches_ambient_oracle(n, ell, max_degree):
    """The system on component coordinates has the rank of the ambient
    index-tuple system: the same sections are parallel, also at degree
    bounds below and above ell."""
    rows, ncols = ambient_parallel_system(n, ell, max_degree)
    assert flat_parallel_dimension(n, ell, max_degree) == ncols - integer_rank(rows.values(), ncols)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_potential_operator_kernel_is_the_killing_vectors(n):
    # translations plus rotations, at every degree the potential solve uses
    for degree in range(1, DEFAULT_DEGREE_CAP + 1):
        m = _operator_matrix(n, 1, degree)
        assert m.cols - rank(m) == n + comb(n, 2)
