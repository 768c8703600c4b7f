from __future__ import annotations

import pytest

from helpers import build_T, koszul_complex
from killingcalc import kostant
from killingcalc.kostant import (
    branching_check,
    build_V,
    cohomology_label_row,
    koszul_differential,
    lie_algebra_cohomology,
)
from killingcalc.prolong import build_partial, complex_cohomology
from killingcalc.young import gl_dimension, weyl_dimension, YoungDiagram


def test_module_dimension():
    for n, ell in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        mod = build_V(n, ell)
        assert mod.dim == gl_dimension(YoungDiagram((ell, ell)), n + 1)


def test_koszul_complex_is_a_complex():
    for n, ell in [(2, 1), (3, 1), (2, 2)]:
        cx = koszul_complex(n, ell)
        assert cx.composites_vanish()
        m = koszul_differential(n, ell, 0)
        assert (m.rows, m.cols) == (cx.spaces[1], cx.spaces[0])


def test_cohomology_small_instances():
    rep = lie_algebra_cohomology(2, 1)
    assert list(rep.computed) == [2, 3, 1]
    assert list(rep.weyl) == [2, 3, 1]
    assert rep.label_rows == ((0, 1), (-2, 2), (-4, 0))
    assert rep.all_match

    rep31 = lie_algebra_cohomology(3, 1)
    assert list(rep31.computed) == [3, 6, 6, 3]
    assert rep31.label_rows == ((0, 1, 0), (-2, 2, 0), (-4, 0, 2), (-5, 0, 1))
    assert rep31.all_match


def test_larger_instance_frozen_dims():
    rep = lie_algebra_cohomology(4, 3)
    assert list(rep.computed) == [20, 35, 105, 140, 50]
    assert rep.all_match
    assert sum((-1) ** p * d for p, d in enumerate(rep.space_dims)) == 0


def test_crossed_node_entry_may_be_negative_but_tail_is_a_weight():
    for n, ell in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        rep = lie_algebra_cohomology(n, ell)
        for p, row in enumerate(rep.label_rows):
            assert len(row) == n
            assert all(v >= 0 for v in row[1:])
            if p >= 1:
                assert row[0] < 0
            # the printed dimension is the sl(n) factor through the tail
            assert weyl_dimension(row[1:]) == rep.computed[p]


def test_label_row_endpoints():
    assert cohomology_label_row(3, 2, 0) == (0, 2, 0)
    assert cohomology_label_row(3, 2, 1) == (-2, 3, 0)
    row = cohomology_label_row(3, 2, 3)
    assert row[0] == -(2 + 1 + 3)


def test_form_degrees_must_be_integers():
    """A float degree is refused by name, even one with an integer value
    that the bounds check alone would let through."""
    for build in (cohomology_label_row, koszul_differential, build_partial):
        for p in (1.0, 1.5):
            with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
                build(3, 1, p)


def test_an_action_leaving_the_module_is_refused(monkeypatch):
    """x_i raises the count of index value 1, which the top grade c = ell
    of V cannot take: an image there must vanish, and one that does not
    is refused."""
    image = kostant._x_image

    def leaking(part, col, i):
        return {part.keys[0]: 1} if part.weight[0] == 1 else image(part, col, i)

    monkeypatch.setattr(kostant, "_x_image", leaking)
    with pytest.raises(RuntimeError, match="A_1 leaves its module from weight"):
        build_V(2, 1)


def test_matches_differential_complex_side():
    for n, ell in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        a = lie_algebra_cohomology(n, ell)
        b = complex_cohomology(n, ell)
        assert tuple(a.computed) == tuple(b.computed)
        assert tuple(a.space_dims) == tuple(b.space_dims)


def test_euler_characteristic_vanishes():
    for n, ell in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        rep = lie_algebra_cohomology(n, ell)
        assert sum((-1) ** p * d for p, d in enumerate(rep.computed)) == 0
        assert sum((-1) ** p * d for p, d in enumerate(rep.space_dims)) == 0


def test_branching():
    for n, ell in [(2, 1), (3, 1), (2, 2), (4, 3)]:
        rep = branching_check(n, ell)
        assert rep["dims_match"]
        assert rep["action_shifts_grade"]
        assert sum(p["dim"] for p in rep["pieces"]) == rep["module_dim"]


def test_branching_piece_dims_match_prolongation_components():
    rep = branching_check(4, 3)
    dims = build_T(4, 3).component_dims
    # ones-count grading runs opposite to the component order
    assert [p["dim"] for p in rep["pieces"]] == list(reversed(dims))


def test_branching_check_detects_mismatches(monkeypatch):
    """A component weight space one larger than V's fails dims_match; an
    action image with a key of the source grade fails the grade shift."""
    from types import SimpleNamespace

    realize = kostant.realize_irreducible

    def padded(d, n, weights=None):
        parts = realize(d, n, weights)
        if n == 3:  # the components over n, not V over n + 1
            parts = {w: SimpleNamespace(dim=p.dim + 1) for w, p in parts.items()}
        return parts

    monkeypatch.setattr(kostant, "realize_irreducible", padded)
    rep = branching_check(3, 2)
    assert not rep["dims_match"] and rep["action_shifts_grade"]
    monkeypatch.undo()
    image = kostant._x_image
    monkeypatch.setattr(
        kostant, "_x_image", lambda part, col, i: {**image(part, col, i), part.keys[0]: 1}
    )
    rep = branching_check(3, 2)
    assert rep["dims_match"] and not rep["action_shifts_grade"]
