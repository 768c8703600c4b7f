from __future__ import annotations

import pytest

from helpers import (
    assert_matches_whole,
    at,
    build_T,
    clear_cohomology_memos,
    cochain_weights,
    entries,
    full_complex,
    key_map_by_antisymmetrization,
    koszul_complex,
    oracle_koszul,
    oracle_partial,
    submatrix,
    whole_space_injectivity,
)
from killingcalc import cap, chain, prolong
from killingcalc.chain import ChainComplex, cohomology_dims
from killingcalc.kostant import koszul_differential
from killingcalc.matrix import ExactMatrix, rank
from killingcalc.cap import CapExceeded
from killingcalc.prolong import (
    build_partial,
    complex_cohomology,
    graded_diagonal_complex,
    injectivity_implication_check,
    key_isomorphism_check,
    predicted_cohomology,
)
from killingcalc.young import YoungDiagram, gl_dimension


def test_argument_validation():
    with pytest.raises(ValueError):
        build_T(1, 1)
    with pytest.raises(ValueError):
        build_T(3, 0)


def test_args_refuse_a_float_n_or_ell():
    with pytest.raises(TypeError):
        complex_cohomology(2.5, 1)
    with pytest.raises(TypeError):
        cap._check_args(3, 2.0)


def test_graded_diagonal_refuses_a_float_grade():
    with pytest.raises(TypeError, match="interpreted as an integer"):
        graded_diagonal_complex(3, 1, 2.0)
    assert graded_diagonal_complex(3, 1, 2).as_expected


def test_predicted_cohomology_refuses_a_float_degree():
    with pytest.raises(TypeError, match="interpreted as an integer"):
        predicted_cohomology(3, 1, 1.5)
    with pytest.raises(TypeError, match="interpreted as an integer"):
        predicted_cohomology(3, 1, 2.0)


def test_component_dims_small():
    assert build_T(2, 1).component_dims == (2, 1)
    assert build_T(3, 1).component_dims == (3, 3)
    assert build_T(3, 2).component_dims == (6, 8, 6)
    assert build_T(4, 3).component_dims == (20, 45, 60, 50)


def test_total_dim_matches_two_row_module_over_n_plus_1():
    """The killing family predicts dim T by this closed form; build_T,
    which realizes the components, is its oracle."""
    for n in (2, 3, 4, 5):
        for ell in (1, 2, 3, 4):
            space = build_T(n, ell)
            expected = gl_dimension(YoungDiagram((ell, ell)), n + 1)
            assert space.total_dim == expected


def test_key_isomorphism():
    for n in (2, 3, 4, 5):
        rep = key_isomorphism_check(n)
        assert rep["bijective"]
        assert rep["rank"] == rep["dimension"]


@pytest.mark.parametrize("n", range(2, 8))
def test_key_matrix_matches_antisymmetrization(n):
    """The integer rows written from the skew rule are, as a rational
    matrix, the skews of full-index tensors read at the rows (x < y, z)."""
    m = prolong._key_matrix(n)
    want = key_map_by_antisymmetrization(n)
    assert (m.rows, m.cols, m.scale) == (want.rows, want.cols, 2)
    assert all(v in (1, -1) for row in m.data for v in row.values())
    assert entries(m) == entries(want)


def test_key_isomorphism_cap_boundary(monkeypatch):
    """n C(n, 2) is 19074 at n=34, admitted, and 20825 at n=35, refused;
    the boundary moves with ``DEFAULT_CAP``."""
    cap.key_guard(34)
    with pytest.raises(CapExceeded, match="n=35 has dimension 20825, cap is 20000"):
        cap.key_guard(35)
    monkeypatch.setattr(cap, "DEFAULT_CAP", 49)
    with pytest.raises(CapExceeded, match="dimension 50, cap is 49"):
        cap.key_guard(5)
    monkeypatch.setattr(cap, "DEFAULT_CAP", 50)
    cap.key_guard(5)


def test_partials_compose_to_zero():
    for n, ell in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        cx = full_complex(n, ell)
        assert cx.composites_vanish()
        assert len(cx.spaces) == n + 1
        assert cx.spaces[0] == build_T(n, ell).total_dim


def test_partial_shapes():
    m = build_partial(3, 2, 1)
    cx = full_complex(3, 2)
    assert (m.rows, m.cols) == (cx.spaces[2], cx.spaces[1])


def _graded_maps(monkeypatch, n: int, ell: int):
    """Every map the graded diagonal complexes of every grade at (n, ell)
    hand to ``cohomology_dims``, in order, starting from an empty memo."""
    original = chain.cohomology_dims
    out = []

    def spy(cx):
        out.extend(cx.maps)
        return original(cx)

    clear_cohomology_memos()
    monkeypatch.setattr(chain, "cohomology_dims", spy)
    for d in range(ell, n + 2 * ell + 1):
        graded_diagonal_complex(n, ell, d)
    monkeypatch.undo()
    return out


def test_block_rank_matches_full_rref_on_every_complex(monkeypatch):
    """rank, rref, kernel_basis and solve reduce each block of the nonzero
    pattern on their own; on every map of the flat, Koszul and graded
    diagonal complexes at the sizes the tests use, they must equal the
    reduction of the whole matrix, and the rank of the integer rows must
    equal the rank of the rational matrix they stand for."""
    for n in (2, 3, 4):
        for ell in (1, 2, 3):
            graded = _graded_maps(monkeypatch, n, ell)
            assert graded
            maps = full_complex(n, ell).maps + koszul_complex(n, ell).maps
            for m in maps + tuple(graded):
                assert rank(m) == rank(ExactMatrix(m.rows, m.cols, entries(m)))
                assert_matches_whole(m)


def test_differentials_equal_the_checked_constructor(monkeypatch):
    """build_partial and koszul_differential write integer rows over one
    positive scale; rows / scale must equal the ``Fraction`` oracle built
    with the checking constructor (indices in range, no zero entry), in
    every degree.  The graded path ranks every dominant weight block once,
    for all grades together, and each map must equal the oracle's
    submatrix on the block's cochains."""
    for n in (2, 3, 4):
        for ell in (1, 2, 3):
            scales = set()
            oracles = []
            for build, oracle in (
                (build_partial, oracle_partial), (koszul_differential, oracle_koszul)
            ):
                for p in range(n + 1):
                    m = build(n, ell, p)
                    want = oracle(n, ell, p)
                    assert type(m.scale) is int and m.scale > 0
                    assert len(m.data) == m.rows
                    assert all(
                        type(v) is int and v for row in m.data for v in row.values()
                    )
                    assert m == want, (build, n, ell, p)
                    scales.add(m.scale)
                    if build is build_partial:
                        oracles.append(want)
            assert len(scales) == 1
            weights = cochain_weights(n, build_T(n, ell).components)
            blocks = list(chain._weight_blocks(prolong.flat_forms(n, ell)))
            maps = _graded_maps(monkeypatch, n, ell)
            assert maps == [m for b in blocks for m in b.complex.maps], (n, ell)
            for b in blocks:
                index = [
                    [i for i, w in enumerate(degree) if w == b.weight] for degree in weights
                ]
                for p, m in enumerate(b.complex.maps):
                    want = submatrix(oracles[p], index[p + 1], index[p])
                    assert m == want, (n, ell, b.weight, p)


def test_recorded_scales():
    """One lcm of denominators per (n, ell), shared by both families."""
    assert build_partial(3, 2, 0).scale == koszul_differential(3, 2, 0).scale == 2
    assert build_partial(3, 4, 1).scale == koszul_differential(3, 4, 1).scale == 36


@pytest.mark.parametrize("family", [full_complex, koszul_complex])
def test_one_flipped_sign_breaks_the_complex(family):
    """Negating one entry v at (r, c) of D_1 adds -2v D_2[:, r] e_c^T to
    D_2 D_1, which is nonzero when column r of D_2 is; the d^2 check must
    then fail and cohomology_dims refuse the complex."""
    cx = family(3, 2)
    assert cx.composites_vanish()
    maps = list(cx.maps)
    m = maps[1]
    hit = {c for row in maps[2].data for c in row}
    r = next(i for i, row in enumerate(m.data) if row and i in hit)
    data = list(m.data)
    data[r] = dict(data[r])
    c = next(iter(data[r]))
    data[r][c] = -data[r][c]
    maps[1] = ExactMatrix.from_int_rows(m.cols, data, m.scale)
    broken = ChainComplex(cx.spaces, tuple(maps))
    assert not broken.composites_vanish()
    with pytest.raises(ValueError, match="not a complex"):
        cohomology_dims(broken)


def test_partial_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")

    m = build_partial(2, 2, 0)
    exact = oracle_partial(2, 2, 0)
    assert m == exact
    sm = sympy.Matrix(exact.rows, exact.cols, lambda r, c: sympy.Rational(at(exact, r, c)))
    assert rank(m) == sm.rank()


def test_predicted_cohomology_shapes():
    d0, _ = predicted_cohomology(3, 2, 0)
    d1, _ = predicted_cohomology(3, 2, 1)
    d2, _ = predicted_cohomology(3, 2, 2)
    d3, _ = predicted_cohomology(3, 2, 3)
    assert d0.rows == (2,)
    assert d1.rows == (3,)
    assert d2.rows == (3, 3)
    assert d3.rows == (3, 3, 1)


def test_cohomology_small_instances():
    cases = {
        (2, 1): ([2, 3, 1], [3, 6, 3]),
        (3, 1): ([3, 6, 6, 3], [6, 18, 18, 6]),
        (2, 2): ([3, 4, 1], [6, 12, 6]),
    }
    for (n, ell), (dims, spaces) in cases.items():
        rep = complex_cohomology(n, ell)
        assert list(rep.computed) == dims
        assert list(rep.space_dims) == spaces
        assert rep.all_match
        assert list(rep.predicted) == dims
        assert rep.euler == sum(
            (-1) ** p * d for p, d in enumerate(spaces)
        )


def test_cap_enforced():
    with pytest.raises(CapExceeded) as e:
        cap.complex_guard(5, 4)
    assert "56448" in str(e.value) and "20000" in str(e.value)
    cap.complex_guard(2, 3)


def test_graded_diagonal_reports():
    for n, ell in [(2, 1), (3, 1), (2, 2)]:
        for d in range(ell, n + 2 * ell + 1):
            rep = graded_diagonal_complex(n, ell, d)
            assert rep.as_expected
            assert rep.cohomology == rep.expected
            if not any(rep.boxed):
                assert not any(rep.cohomology)
    with pytest.raises(ValueError):
        graded_diagonal_complex(2, 1, 0)
    with pytest.raises(ValueError):
        graded_diagonal_complex(2, 1, 5)


def test_injectivity_intersection():
    for n, ell in [(2, 1), (2, 2), (3, 1)]:
        rep = injectivity_implication_check(n, ell)
        assert rep["injective"]
        assert rep["intersection_dim"] == 0
        assert rep["relaxed_dim"] > 0
        assert rep["relaxed_matches"]


def test_injectivity_equals_the_whole_space_system():
    """The report's two dimensions, read off the flat complex, are the
    ones the whole space of one-index-then-two-groups tensors gives."""
    for n in range(2, 6):
        for ell in range(1, 4):
            rep = injectivity_implication_check(n, ell)
            got = (rep["intersection_dim"], rep["relaxed_dim"])
            assert got == whole_space_injectivity(n, ell), (n, ell)
