from __future__ import annotations

import pytest

from helpers import from_rows
from killingcalc.chain import ChainComplex, cohomology_dims
from killingcalc.matrix import ExactMatrix


def test_shape_validation():
    d0 = from_rows([[1], [0]])
    with pytest.raises(ValueError):
        ChainComplex((1, 2), ())
    with pytest.raises(ValueError):
        ChainComplex((2, 2), (d0,))


def test_known_exact_sequence():
    # 0 -> Q -> Q^2 -> Q -> 0 with the evident inclusion and projection
    d0 = from_rows([[1], [0]])
    d1 = from_rows([[0, 1]])
    cx = ChainComplex((1, 2, 1), (d0, d1))
    assert cx.composites_vanish()
    assert cohomology_dims(cx) == [0, 0, 0]


def test_zero_maps_give_full_cohomology():
    z = ExactMatrix(3, 2)
    cx = ChainComplex((2, 3), (z,))
    assert cohomology_dims(cx) == [2, 3]


def test_nonzero_composite_detected():
    d0 = from_rows([[1], [0]])
    d1 = from_rows([[1, 0]])
    cx = ChainComplex((1, 2, 1), (d0, d1))
    assert not cx.composites_vanish()
    with pytest.raises(ValueError, match="not a complex"):
        cohomology_dims(cx)
