from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from helpers import (
    REALIZED_IDS,
    REALIZED_SHAPES,
    apply,
    assert_matches_whole,
    at,
    dense,
    entries,
    from_rows,
    hstack,
    over_common_scale,
    presentation,
    rand_matrix,
    scaled,
    submatrix,
    vstack,
    whole_rref,
)
from killingcalc import killing, young
from killingcalc.matrix import (
    ExactMatrix,
    integer_rank,
    kernel_basis,
    rank,
    rref,
    solve,
)
from killingcalc.poly import parse_rational


def test_rational_round_trip():
    for x in (Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(22, 7)):
        assert parse_rational(str(x)) == x
    assert str(Fraction(4, 2)) == "2"
    assert parse_rational("-3/4") == Fraction(-3, 4)


def test_rref_known_matrix():
    m = from_rows([[1, 2, 3], [2, 4, 7], [1, 2, 4]])
    pivots, r = rref(m)
    assert pivots == [0, 2]
    assert dense(r) == [
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
            assert at(r, i, p) == 1
            assert all(at(r, j, p) == 0 for j in range(r.rows) if j != i)
        pivots2, r2 = rref(r)
        assert pivots2 == pivots and r2 == r


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        sm = sympy.Matrix(m.rows, m.cols, lambda r, c: sympy.Rational(at(m, r, c)))
        assert rank(m) == sm.rank()
        # full output: pivots and the reduced matrix, zero rows dropped
        pivots, r = rref(m)
        sred, spivots = sm.rref()
        assert tuple(pivots) == spivots
        assert [[sympy.Rational(x) for x in row] for row in dense(r)] == [
            list(sred.row(i)) for i in range(len(spivots))
        ]


def _planted_block_diagonal(rng, shapes, rows, cols):
    """Blocks of the given shapes and deficient ranks, laid out along the
    diagonal of a rows x cols matrix, then permuted on both sides.
    Rows and columns past the blocks stay empty."""
    row_perm, col_perm = list(range(rows)), list(range(cols))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    values = {}
    r0 = c0 = 0
    for h, w in shapes:
        inner = rng.randint(1, min(h, w))
        block = rand_matrix(rng, h, inner) * rand_matrix(rng, inner, w)
        for (r, c), v in entries(block).items():
            values[(row_perm[r0 + r], col_perm[c0 + c])] = v
        r0, c0 = r0 + h, c0 + w
    return ExactMatrix(rows, cols, values)


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
        ExactMatrix(4, 6),
        ExactMatrix(0, 5),
        ExactMatrix(5, 0),
        ExactMatrix(0, 0),
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
            sm = sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(at(m, i, j)))
            assert r == sm.rank()


def _with_repeated_rows(rng, m, copies):
    """m with extra rows appended and all rows shuffled: exact copies of
    random rows, copies scaled by a random nonzero rational (some of them
    clear to the same integer row, some to a multiple), and zero rows."""
    rows = [dict() for _ in range(m.rows)]
    for (r, c), v in entries(m).items():
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
    values = {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}
    return ExactMatrix(len(rows), m.cols, values)


def test_repeated_rows_match_whole_reduction():
    """Exact repeats among the integer rows go into their block and reduce
    to zero there; rank, rref, kernel_basis and solve must equal the
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
            k: v / rng.choice([1, 2, 3, 6]) for k, v in entries(m).items()
        })
        cases.append(_with_repeated_rows(rng, m, rng.randint(1, 2 * rows)))
    # each row of a two-block matrix repeated, and one row copied many times
    base = from_rows([[1, 2, 0, 0], [0, 0, 3, -1]])
    cases.append(vstack(vstack(vstack(base, base), base), ExactMatrix(2, 4)))
    cases.append(from_rows([[Fraction(1, 2), 0, Fraction(1, 3)]] * 6))
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
        for (r, c), v in entries(m).items():
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
        for col, scale in ker:
            assert apply(m, col) == {}
            assert col[max(col)] == scale > 0
        rows = [[col.get(i, 0) for i in range(m.cols)] for col, _ in ker]
        assert rank(rref(from_rows(rows))[1]) == len(ker)


def test_kernel_columns_are_the_cleared_canonical_vectors():
    """Each kernel column is its canonical vector (1 at the free column,
    the negated reduced column at the pivots) cleared by the lcm of its
    denominators: the integers and the scale a weight space stores."""
    rng = random.Random(29)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 7), density=0.4)
        pivots, red = rref(m)
        free = [f for f in range(m.cols) if f not in pivots]
        ker = kernel_basis(m)
        assert len(ker) == len(free)
        for f, (col, scale) in zip(free, ker):
            vec = {p: -at(red, i, f) for i, p in enumerate(pivots) if at(red, i, f)}
            vec[f] = Fraction(1)
            want = lcm(*(v.denominator for v in vec.values()))
            assert scale == want
            assert col == {r: v.numerator * (want // v.denominator) for r, v in vec.items()}


def test_solve_consistent_and_inconsistent():
    rng = random.Random(7)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        x = [Fraction(rng.randint(-4, 4)) for _ in range(m.cols)]
        b = apply(m, {i: v for i, v in enumerate(x) if v})
        got = solve(m, [b.get(i, Fraction(0)) for i in range(m.rows)])
        assert got is not None
        assert apply(m, {i: v for i, v in enumerate(got) if v}) == b
    m = from_rows([[1], [1]])
    assert solve(m, [1, 2]) is None
    assert solve(m, [3, 3]) == [Fraction(3)]
    # over a scale: m x = b is (rows of m) x = scale * b
    half = from_rows([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])
    assert half.scale == 6
    assert solve(half, [Fraction(1, 3), 5]) == [Fraction(2, 3), Fraction(15, 2)]


def test_rref_separates_row_spaces():
    a = rref(from_rows([[1, 1, 0], [0, 1, 1]]))[1]
    b = rref(from_rows([[1, 2, 1], [1, 0, -1]]))[1]  # same plane, new basis
    c = rref(from_rows([[1, 0, 0], [0, 1, 0]]))[1]
    assert a == b
    assert a != c


@pytest.mark.parametrize("shape, n, kind", REALIZED_SHAPES, ids=REALIZED_IDS)
def test_block_reduction_matches_whole_on_realization_constraints(shape, n, kind):
    _, constraints = presentation(young.YoungDiagram(shape), n)
    assert (constraints is None) == (kind == "row")
    if constraints is not None:
        assert_matches_whole(constraints)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_reduction_matches_whole_on_potential_systems(n):
    """[A | I] of the arity-1 operator at every potential degree: the
    identity block keeps each row in its own block of A, and the
    reduction must still be whole."""
    for degree in range(1, 7):
        a = killing._operator_matrix(n, 1, degree)
        aug = hstack(a, ExactMatrix.identity(a.rows))
        assert_matches_whole(aug, rhs=[[Fraction(i % 3 - 1) for i in range(aug.rows)]])


def test_matrix_algebra_and_json():
    rng = random.Random(3)
    a = rand_matrix(rng, 4, 3)
    b = rand_matrix(rng, 3, 5)
    ab = a * b
    for r in range(4):
        for c in range(5):
            assert at(ab, r, c) == sum(at(a, r, k) * at(b, k, c) for k in range(3))
    neg = scaled(a, -1)
    assert ExactMatrix(4, 3, {k: v + at(neg, *k) for k, v in entries(a).items()}).is_zero()
    assert a.transpose().transpose() == a
    stacked = hstack(a, a)
    assert stacked.cols == 6
    assert all(
        at(stacked, r, c) == at(stacked, r, c + 3) == at(a, r, c)
        for r in range(4)
        for c in range(3)
    )


def test_int_matrix_product_and_rank_follow_the_scales():
    """The integer rows of a product are the products of the rows and its
    scale the product of the scales; every entry equals the entry-wise
    ``Fraction`` sum, and rank, is_zero and the submatrix helper follow
    the scales."""
    rng = random.Random(12)
    for scale_a, scale_b in ((1, 1), (2, 3), (36, 4)):
        a = scaled(rand_matrix(rng, 4, 3), Fraction(1, scale_a))
        b = scaled(rand_matrix(rng, 3, 5), Fraction(1, scale_b))
        ab = a * b
        assert ab.scale == a.scale * b.scale
        for r in range(4):
            for c in range(5):
                assert at(ab, r, c) == sum(at(a, r, k) * at(b, k, c) for k in range(3))
        assert rank(a) == rank(ExactMatrix(a.rows, a.cols, entries(a)))
        assert not a.is_zero() and ExactMatrix.from_int_rows(2, [{}, {}], scale_a).is_zero()
        sub = submatrix(a, [3, 1], [2, 0])
        assert [at(sub, i, j) for i in range(2) for j in range(2)] == [
            at(a, r, c) for r in (3, 1) for c in (2, 0)
        ]
        assert a.transpose().transpose() == a
        assert entries(a.transpose()) == {(c, r): v for (r, c), v in entries(a).items()}
        assert a * scaled(ExactMatrix.identity(3), -1) == scaled(a, -1)
    with pytest.raises(ValueError):
        a * a


def test_equality_compares_across_scales():
    """A / a == B / b exactly when A b == B a; no scale is normalized."""
    m = from_rows([[Fraction(1, 2), 0], [3, Fraction(-2, 3)]])
    assert m.scale == 6 and m.data == [{0: 3}, {0: 18, 1: -4}]
    doubled = ExactMatrix.from_int_rows(2, [{0: 6}, {0: 36, 1: -8}], 12)
    assert doubled == m and m == doubled
    assert ExactMatrix.from_int_rows(2, [{0: 1}, {0: 6, 1: -1}], 2) != m
    assert ExactMatrix.from_int_rows(2, [{0: 3}, {0: 18, 1: -4}], 5) != m
    assert ExactMatrix.from_int_rows(2, [{0: 3}, {0: 18}], 6) != m
    assert ExactMatrix.from_int_rows(2, [{0: 3}, {0: 18, 1: -4}, {}], 6) != m
    assert ExactMatrix.identity(2) == ExactMatrix.from_int_rows(2, [{0: 7}, {1: 7}], 7)
    assert ExactMatrix(0, 3) == ExactMatrix.from_int_rows(3, [], 5)
    assert ExactMatrix(0, 3) != ExactMatrix(0, 2)
    assert m != None and not m == None and m != m.data  # noqa: E711


def test_over_common_scale_and_vstack_bring_scales_together():
    a = from_rows([[Fraction(1, 2), 1]])
    b = from_rows([[Fraction(1, 3), 0], [0, Fraction(-3, 4)]])
    c = from_rows([[5, 7]])
    assert (a.scale, b.scale, c.scale) == (2, 12, 1)
    common = over_common_scale([a, b, c])
    assert [m.scale for m in common] == [12, 12, 12]
    assert [m.data for m in common] == [[{0: 6, 1: 12}], [{0: 4}, {1: -9}], [{0: 60, 1: 84}]]
    assert common == [a, b, c]
    assert over_common_scale([]) == []
    stacked = vstack(vstack(a, b), c)
    assert (stacked.rows, stacked.cols, stacked.scale) == (4, 2, 12)
    assert dense(stacked) == dense(a) + dense(b) + dense(c)
    with pytest.raises(ValueError):
        vstack(a, ExactMatrix(1, 3))


def test_constructor_checks_and_clears():
    with pytest.raises(ValueError, match="outside 2x3"):
        ExactMatrix(2, 3, {(2, 0): 1})
    with pytest.raises(ValueError, match="outside 2x3"):
        ExactMatrix(2, 3, {(0, 3): 1})
    with pytest.raises(ValueError, match="outside 2x3"):
        ExactMatrix(2, 3, {(-1, 0): 1})
    with pytest.raises(ValueError, match="nonnegative"):
        ExactMatrix(-1, 3)
    m = ExactMatrix(2, 3, {(0, 1): "3/4", (1, 2): 0, (1, 0): Fraction(5, 6)})
    assert m.scale == 12 and m.data == [{1: 9}, {0: 10}]
    assert ExactMatrix.from_columns([{1: Fraction(1, 2)}, {}, {0: 2}], 2) == from_rows(
        [[0, 0, 2], [Fraction(1, 2), 0, 0]]
    )
    assert ExactMatrix.from_columns([{1: Fraction(1, 2)}, {0: 2}], 2).columns() == [
        {1: Fraction(1, 2)}, {0: Fraction(2)}
    ]
