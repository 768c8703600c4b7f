"""The operator matrices against the field calculus they encode.

``killing`` and ``tractor`` write their matrices entry by entry from
closed-form coefficient rules.  The oracle here rebuilds each column the
slow way: it makes the unit field of that coordinate, applies the field
operator (``higher_killing_operator``, ``integrability_operator``,
``killing_operator``, ``flat_component_derivative``) and reads the image
off in the same row coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from killingcalc.fields import PolyTensorField
from killingcalc.killing import (
    DEFAULT_DEGREE_CAP,
    _obstruction_matrix,
    _operator_matrix,
    higher_killing_operator,
    integrability_of_killing_matrix,
    integrability_operator,
    killing_operator,
    symmetric_coordinates,
)
from killingcalc.matrix import ExactMatrix, rank
from killingcalc.poly import PolyScalar, monomials
from killingcalc.prolong import build_T
from killingcalc.tractor import (
    ComponentSection,
    _parallel_system,
    flat_component_derivative,
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
        image = integrability_operator(_unit_field(n, 2, key, mono))
        cols.append({
            row(idx, m): v for idx, s in image.comps.items() for m, v in s.terms.items()
        })
    return ExactMatrix.from_columns(cols, nrows)


def _oracle_composite(n, max_degree):
    row, nrows = _full_index_rows(n, max_degree - 3)
    cols = []
    for key, mono in symmetric_coordinates(n, 1, max_degree):
        image = integrability_operator(killing_operator(_unit_field(n, 1, key, mono)))
        cols.append({
            row(idx, m): v for idx, s in image.comps.items() for m, v in s.terms.items()
        })
    return ExactMatrix.from_columns(cols, nrows)


def _oracle_parallel(n, ell, max_degree):
    """Entries keyed by (row label, column), in the column order of
    ``_parallel_system``: component, basis tensor, monomial."""
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


PARALLEL_SIZES = [
    (2, 1, 1), (2, 1, 2), (2, 2, 2), (2, 2, 3), (2, 3, 3),
    (3, 1, 1), (3, 1, 2), (3, 2, 2), (3, 3, 1),
    (4, 1, 1), (4, 2, 1), (4, 3, 0),
]


@pytest.mark.parametrize("n, ell, max_degree", PARALLEL_SIZES)
def test_parallel_system_matches_field_calculus(n, ell, max_degree):
    m, labels = _parallel_system(n, ell, max_degree)
    want, cols = _oracle_parallel(n, ell, max_degree)
    assert m.cols == cols
    assert len(set(labels)) == len(labels) == m.rows
    assert {(labels[r], c): v for (r, c), v in m.entries.items()} == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_potential_operator_kernel_is_the_killing_vectors(n):
    # translations plus rotations, at every degree the potential solve uses
    for degree in range(1, DEFAULT_DEGREE_CAP + 1):
        m = _operator_matrix(n, 1, degree)
        assert m.cols - rank(m) == n + comb(n, 2)
