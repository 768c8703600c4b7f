from __future__ import annotations

import pytest

from helpers import assert_matches_whole
from killingcalc import prolong
from killingcalc.kostant import koszul_complex
from killingcalc.prolong import (
    CapExceeded,
    build_T,
    build_partial,
    complex_cohomology,
    full_complex,
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


def test_component_dims_small():
    assert build_T(2, 1).component_dims == (2, 1)
    assert build_T(3, 1).component_dims == (3, 3)
    assert build_T(3, 2).component_dims == (6, 8, 6)
    assert build_T(4, 3).component_dims == (20, 45, 60, 50)


def test_total_dim_matches_two_row_module_over_n_plus_1():
    for n in (2, 3, 4):
        for ell in (1, 2, 3):
            space = build_T(n, ell)
            expected = gl_dimension(YoungDiagram((ell, ell)), n + 1)
            assert space.total_dim == expected


def test_key_isomorphism():
    for n in (2, 3, 4, 5):
        rep = key_isomorphism_check(n)
        assert rep["bijective"]
        assert rep["rank"] == rep["dimension"]


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


def test_block_rank_matches_full_rref_on_every_complex(monkeypatch):
    """rank, rref, kernel_basis and solve reduce each block of the nonzero
    pattern on their own; on every map of the flat, Koszul and graded
    diagonal complexes at the sizes the tests use, they must equal the
    reduction of the whole matrix."""
    original = prolong.cohomology_dims
    graded_maps = []

    def spy(cx):
        graded_maps.extend(cx.maps)
        return original(cx)

    monkeypatch.setattr(prolong, "cohomology_dims", spy)
    for n in (2, 3, 4):
        for ell in (1, 2, 3):
            graded_maps.clear()
            for d in range(ell, n + 2 * ell + 1):
                graded_diagonal_complex(n, ell, d)
            assert graded_maps
            maps = full_complex(n, ell).maps + koszul_complex(n, ell).maps
            for m in maps + tuple(graded_maps):
                assert_matches_whole(m)


def test_partial_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from killingcalc.matrix import rank

    m = build_partial(2, 2, 0)
    sm = sympy.Matrix(m.rows, m.cols, lambda r, c: sympy.Rational(m.at(r, c)))
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


def test_cohomology_report_json():
    rep = complex_cohomology(2, 1)
    d = rep.to_json_dict()
    assert [row["computed"] for row in d["H"]] == [2, 3, 1]
    assert all(row["match"] for row in d["H"])
    assert d["all_match"] is True
    assert d["n"] == 2 and d["ell"] == 1


def test_cap_enforced():
    with pytest.raises(CapExceeded) as e:
        complex_cohomology(5, 4)
    assert "56448" in str(e.value) and "20000" in str(e.value)
    # raising the cap explicitly is allowed
    rep = complex_cohomology(2, 3, cap=10**6)
    assert rep.all_match


def test_graded_diagonal_reports():
    for n, ell in [(2, 1), (3, 1), (2, 2)]:
        for d in range(ell, n + 2 * ell + 1):
            rep = graded_diagonal_complex(n, ell, d)
            assert rep.as_expected
            assert rep.cohomology == rep.expected
            if rep.interior:
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
