from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from helpers import (
    REALIZED_IDS,
    REALIZED_SHAPES,
    assert_matches_whole,
    rand_matrix,
    whole_rref,
)
from killingcalc import killing, young
from killingcalc.matrix import (
    ExactMatrix,
    integer_rank,
    kernel_basis,
    rank,
    row_space_rref,
    rref,
    solve,
)
from killingcalc.rationals import format_rational, parse_rational


def test_rational_round_trip():
    for x in (Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(22, 7)):
        assert parse_rational(format_rational(x)) == x
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational("-3/4") == Fraction(-3, 4)


def test_rref_known_matrix():
    m = ExactMatrix.from_rows([[1, 2, 3], [2, 4, 7], [1, 2, 4]])
    pivots, r = rref(m)
    assert pivots == [0, 2]
    assert r.dense() == [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_rref_is_canonical_and_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        pivots, r = rref(m)
        assert rank(m) == len(pivots)
        # unit pivots, and pivot columns are standard basis vectors
        for i, p in enumerate(pivots):
            assert r.at(i, p) == 1
            assert all(r.at(j, p) == 0 for j in range(r.rows) if j != i)
        pivots2, r2 = rref(r)
        assert pivots2 == pivots and r2 == r


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        sm = sympy.Matrix(m.rows, m.cols, lambda r, c: sympy.Rational(m.at(r, c)))
        assert rank(m) == sm.rank()
        # full output: pivots and the reduced matrix, zero rows dropped
        pivots, r = rref(m)
        sred, spivots = sm.rref()
        assert tuple(pivots) == spivots
        assert [[sympy.Rational(x) for x in row] for row in r.dense()] == [
            list(sred.row(i)) for i in range(len(spivots))
        ]


def _planted_block_diagonal(rng, shapes, rows, cols):
    """Blocks of the given shapes and deficient ranks, laid out along the
    diagonal of a rows x cols matrix, then permuted on both sides.
    Rows and columns past the blocks stay empty."""
    row_perm, col_perm = list(range(rows)), list(range(cols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    entries = {}
    r0 = c0 = 0
    for h, w in shapes:
        inner = rng.randint(1, min(h, w))
        block = rand_matrix(rng, h, inner) * rand_matrix(rng, inner, w)
        for (r, c), v in block.entries.items():
            entries[(row_perm[r0 + r], col_perm[c0 + c])] = v
        r0, c0 = r0 + h, c0 + w
    return ExactMatrix(rows, cols, entries)


def test_rank_on_permuted_block_diagonal_matrices():
    """rank, rref, kernel_basis and solve reduce block by block; on
    planted blocks hidden by row and column permutations they must equal
    the reduction of the whole matrix."""
    try:
        import sympy
    except ImportError:
        sympy = None
    rng = random.Random(41)
    cases = [
        ExactMatrix.zero(4, 6),
        ExactMatrix.zero(0, 5),
        ExactMatrix.zero(5, 0),
        ExactMatrix.zero(0, 0),
        rand_matrix(rng, 7, 9, density=1.0),  # a single component
    ]
    for _ in range(30):
        shapes = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
        rows = sum(h for h, _ in shapes) + rng.randint(0, 3)
        cols = sum(w for _, w in shapes) + rng.randint(0, 3)
        cases.append(_planted_block_diagonal(rng, shapes, rows, cols))
    for m in cases:
        assert_matches_whole(m)
        r = rank(m)
        assert r == rank(m.transpose())
        if sympy is not None:
            sm = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m.at(i, j)))
            assert r == sm.rank()


def _with_repeated_rows(rng, m, copies):
    """m with extra rows appended and all rows shuffled: exact copies of
    random rows, copies scaled by a random nonzero rational (some of them
    clear to the same integer row, some to a multiple), and zero rows."""
    rows = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    nonzero = [row for row in rows if row] or [{}]
    for _ in range(copies):
        row = rng.choice(nonzero)
        kind = rng.randrange(3)
        if kind == 0:
            rows.append(dict(row))
        elif kind == 1:
            f = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7]))
            rows.append({c: f * v for c, v in row.items()})
        else:
            rows.append({})
    rng.shuffle(rows)
    entries = {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}
    return ExactMatrix(len(rows), m.cols, entries)


def test_repeated_rows_match_whole_reduction():
    """Rows are cleared once and exact repeats dropped before the block
    split; rank, rref, kernel_basis and solve must still equal the
    reduction of the whole matrix, repeats and zero rows included."""
    rng = random.Random(59)
    cases = []
    for _ in range(25):
        shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        rows = sum(h for h, _ in shapes) + rng.randint(0, 2)
        cols = sum(w for _, w in shapes) + rng.randint(0, 2)
        m = _planted_block_diagonal(rng, shapes, rows, cols)
        # fractional entries, so that clearing rescales rows
        m = ExactMatrix(m.rows, m.cols, {
            k: v / rng.choice([1, 2, 3, 6]) for k, v in m.entries.items()
        })
        cases.append(_with_repeated_rows(rng, m, rng.randint(1, 2 * rows)))
    # each row of a two-block matrix repeated, and one row copied many times
    base = ExactMatrix.from_rows([[1, 2, 0, 0], [0, 0, 3, -1]])
    cases.append(base.vstack(base).vstack(base).vstack(ExactMatrix.zero(2, 4)))
    cases.append(ExactMatrix.from_rows([[Fraction(1, 2), 0, Fraction(1, 3)]] * 6))
    for m in cases:
        assert_matches_whole(m)


def test_integer_rank_drops_repeats_and_zero_rows():
    rows = [{0: 2, 3: -4}, {}, {0: 2, 3: -4}, {3: -4, 0: 2}, {1: 5}, {0: 1, 3: -2}, {2: 7, 1: 1}]
    assert integer_rank(rows, 4) == 3
    assert integer_rank(iter(rows), 4) == 3
    assert integer_rank([], 4) == 0
    assert integer_rank([{}, {}], 0) == 0
    rng = random.Random(61)
    for _ in range(20):
        m = _with_repeated_rows(rng, rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)), 6)
        rows = [dict() for _ in range(m.rows)]
        for (r, c), v in m.entries.items():
            rows[r][c] = v
        int_rows = [
            {c: int(v * lcm(*(w.denominator for w in row.values()))) for c, v in row.items()}
            for row in rows
        ]
        assert integer_rank(int_rows, m.cols) == len(whole_rref(m)[0])


def test_kernel_vectors_annihilated():
    rng = random.Random(5)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        ker = kernel_basis(m)
        assert len(ker) == m.cols - rank(m)
        for v in ker:
            assert m.apply(v) == {}
        dense = [[v.get(i, 0) for i in range(m.cols)] for v in ker]
        assert rank(row_space_rref(dense, m.cols)) == len(ker)


def test_solve_consistent_and_inconsistent():
    rng = random.Random(7)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        x = [Fraction(rng.randint(-4, 4)) for _ in range(m.cols)]
        b = m.apply({i: v for i, v in enumerate(x) if v})
        got = solve(m, [b.get(i, Fraction(0)) for i in range(m.rows)])
        assert got is not None
        assert m.apply({i: v for i, v in enumerate(got) if v}) == b
    m = ExactMatrix.from_rows([[1], [1]])
    assert solve(m, [1, 2]) is None
    assert solve(m, [3, 3]) == [Fraction(3)]


def test_row_space_rref_separates_subspaces():
    a = row_space_rref([[1, 1, 0], [0, 1, 1]], 3)
    b = row_space_rref([[1, 2, 1], [1, 0, -1]], 3)  # same plane, new basis
    c = row_space_rref([[1, 0, 0], [0, 1, 0]], 3)
    assert a == b
    assert a != c


@pytest.mark.parametrize("shape, n, kind", REALIZED_SHAPES, ids=REALIZED_IDS)
def test_block_reduction_matches_whole_on_realization_constraints(shape, n, kind):
    _, constraints = young._presentation(young.YoungDiagram(shape), n, kind)
    if constraints is not None:
        assert_matches_whole(constraints)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_reduction_matches_whole_on_potential_systems(n):
    """[A | I] of every potential solve: the identity block keeps each
    row in its own block of A, and the reduction must still be whole."""
    for degree in range(1, 7):
        a = killing._operator_matrix(n, 1, degree)
        aug = a.hstack(ExactMatrix.identity(a.rows))
        assert_matches_whole(aug, rhs=[[Fraction(i % 3 - 1) for i in range(aug.rows)]])


def test_matrix_algebra_and_json():
    rng = random.Random(3)
    a = rand_matrix(rng, 4, 3)
    b = rand_matrix(rng, 3, 5)
    ab = a * b
    for r in range(4):
        for c in range(5):
            assert ab.at(r, c) == sum(a.at(r, k) * b.at(k, c) for k in range(3))
    assert ExactMatrix.from_json(a.to_json()) == a
    assert (a - a).is_zero()
    assert a.transpose().transpose() == a
    stacked = a.hstack(a)
    assert stacked.cols == 6 and stacked.submatrix(range(4), range(3)) == a
