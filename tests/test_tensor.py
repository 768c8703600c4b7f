from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import rand_tensor, symmetrize
from killingcalc.tensor import Tensor, antisymmetrize, perm_sign


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign((2, 1, 0)) == -1


def test_indices_are_one_based_and_validated():
    t = Tensor(3, 2, {(1, 3): Fraction(5)})
    assert t.at(1, 3) == 5
    assert t.at(3, 1) == 0
    with pytest.raises(ValueError):
        Tensor(3, 2, {(0, 1): Fraction(1)})
    with pytest.raises(ValueError):
        Tensor(3, 2, {(1, 4): Fraction(1)})


def test_symmetrize_is_a_projection():
    rng = random.Random(13)
    for _ in range(10):
        t = rand_tensor(rng, 3, 3)
        s = symmetrize(t, (1, 2, 3))
        assert symmetrize(s, (1, 2, 3)) == s
        assert antisymmetrize(s, (1, 2)).is_zero()
        a = antisymmetrize(t, (1, 3))
        assert antisymmetrize(a, (1, 3)) == a
        assert symmetrize(a, (1, 3)).is_zero()


def test_antisymmetrize_kills_repeated_indices():
    rng = random.Random(17)
    t = rand_tensor(rng, 2, 3, density=0.9)
    a = antisymmetrize(t, (1, 2, 3))
    # only n=2 values available for 3 antisymmetric slots
    assert a.is_zero()


def test_sym_decomposition_of_a_2_tensor():
    rng = random.Random(19)
    t = rand_tensor(rng, 4, 2, density=0.8)
    assert symmetrize(t, (1, 2)) + antisymmetrize(t, (1, 2)) == t
    assert t.scale(Fraction(1, 2)) + t.scale(Fraction(1, 2)) == t
