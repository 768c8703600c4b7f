"""Invariants of the integer elimination kernel that every rank, kernel
and cohomology computation funnels through, and its pivot rule and
forward mode against the first-row Gauss-Jordan kernel it replaced
(``helpers.first_row_rref_int``)."""

from __future__ import annotations

import random
from math import gcd

import pytest

from helpers import REALIZED_IDS, REALIZED_SHAPES, first_row_rref_int, hstack, presentation
from killingcalc import chain, elim, killing, kostant, prolong, tractor
from killingcalc.matrix import ExactMatrix
from killingcalc.young import YoungDiagram


def _rand_rows(rng: random.Random, nrows: int, ncols: int):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < 0.5:
                v = rng.randint(-20, 20)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def test_rref_int_rows_have_unit_content_and_positive_pivots():
    rng = random.Random(47)
    for _ in range(30):
        ncols = rng.randint(1, 8)
        rows = _rand_rows(rng, rng.randint(1, 8), ncols)
        pivots, red = elim.rref_int(rows, ncols)
        assert len(pivots) == len(red)
        for p, row in zip(pivots, red):
            assert row[p] > 0
            g = 0
            for v in row.values():
                g = gcd(g, v)
            assert g == 1


# --- the pivot rule and forward mode against the first-row kernel ----------

def _sparse_rows(rng: random.Random, nrows: int, ncols: int, density: float):
    """Random rows of few entries, some repeated, scaled or empty, so that
    candidate rows of different lengths compete for each pivot."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append({c: v * rng.choice((-2, 1, 3)) for c, v in rng.choice(rows).items()})
            continue
        if kind < 0.2:
            rows.append({})
            continue
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(-9, 9)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def _assert_both_modes(rows, ncols):
    """Gauss-Jordan equals the first-row oracle, pivots and rows; the
    forward mode finds the same pivots, and its rows, content 1 with a
    positive pivot, reduce to the same form."""
    want = first_row_rref_int(rows, ncols)
    assert elim.rref_int(rows, ncols) == want
    pivots, forward = elim.rref_int(rows, ncols, reduced=False)
    assert pivots == want[0]
    for p, row in zip(pivots, forward):
        assert row[p] > 0 and gcd(*row.values()) == 1
        assert all(c >= p for c in row)
    assert elim.rref_int(forward, ncols) == want


def test_pivot_rule_matches_the_first_row_kernel_on_sparse_matrices():
    rng = random.Random(83)
    for _ in range(300):
        ncols = rng.randint(1, 12)
        rows = _sparse_rows(rng, rng.randint(0, 14), ncols, rng.choice((0.1, 0.25, 0.5)))
        _assert_both_modes(rows, ncols)


@pytest.mark.parametrize("shape, n, kind", REALIZED_SHAPES, ids=REALIZED_IDS)
def test_pivot_rule_matches_the_first_row_kernel_on_realization_constraints(shape, n, kind):
    _, constraints = presentation(YoungDiagram(shape), n)
    if constraints is not None:
        _assert_both_modes(constraints.data, constraints.cols)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pivot_rule_matches_the_first_row_kernel_on_potential_systems(n):
    """[A | I] of the arity-1 operator at every potential degree, reduced
    whole."""
    for degree in range(1, 7):
        a = killing._operator_matrix(n, 1, degree)
        aug = hstack(a, ExactMatrix.identity(a.rows))
        _assert_both_modes(aug.data, aug.cols)


def _forward_rank(rows, ncols) -> int:
    return len(elim.rref_int(rows, ncols, reduced=False)[0])


def _reduced_rank(rows, ncols) -> int:
    return len(elim.rref_int(rows, ncols)[0])


@pytest.mark.parametrize("n, ell", [(n, ell) for n in (2, 3, 4, 5) for ell in (1, 2, 3)])
def test_forward_rank_is_the_reduced_rank_on_every_dominant_block(n, ell):
    """Every map of every dominant weight block of the flat and the Koszul
    complex has the same rank in both modes."""
    complexes = (
        prolong.flat_forms(n, ell, prolong._flat_read_weights(n, ell)),
        kostant.build_V(n, ell, kostant._read_weights(n, ell)),
    )
    maps = 0
    for cx in complexes:
        for block in chain._weight_blocks(cx):
            for m in block.complex.maps:
                assert _forward_rank(m.data, m.cols) == _reduced_rank(m.data, m.cols)
                maps += 1
    assert maps


@pytest.mark.parametrize("n, ell", [(2, 1), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_forward_rank_is_the_reduced_rank_on_the_parallel_blocks(n, ell):
    forms = prolong.flat_forms(n, ell, tractor._parallel_read_weights(n, ell, ell))
    blocks = 0
    for _, cols, _, rows in tractor._parallel_blocks(forms, ell):
        assert _forward_rank(rows, len(cols)) == _reduced_rank(rows, len(cols))
        blocks += 1
    assert blocks
