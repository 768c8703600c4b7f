"""Full-index tensors as plain dicts: the slot-average oracle of
``tests/helpers.py``, ``fields.perm_sign``, and the index checks of a jet."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import add_tensors, rand_tensor, slot_average
from killingcalc.fields import _jet_values, perm_sign


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign((2, 1, 0)) == -1


def test_indices_are_one_based_and_validated():
    assert _jet_values(3, {(1, 3): Fraction(5), (3, 1): 0}, 2) == {(1, 3): 5}
    for idx in ((0, 1), (1, 4), (1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="invalid"):
            _jet_values(3, {idx: Fraction(1)}, 2)


def test_symmetrize_is_a_projection():
    rng = random.Random(13)
    for _ in range(10):
        t = rand_tensor(rng, 3, 3)
        s = slot_average(t, (1, 2, 3))
        assert slot_average(s, (1, 2, 3)) == s
        assert not slot_average(s, (1, 2), signed=True)
        a = slot_average(t, (1, 3), signed=True)
        assert slot_average(a, (1, 3), signed=True) == a
        assert not slot_average(a, (1, 3))


def test_antisymmetrize_kills_repeated_indices():
    rng = random.Random(17)
    t = rand_tensor(rng, 2, 3, density=0.9)
    # only n=2 values available for 3 antisymmetric slots
    assert not slot_average(t, (1, 2, 3), signed=True)


def test_sym_decomposition_of_a_2_tensor():
    rng = random.Random(19)
    t = rand_tensor(rng, 4, 2, density=0.8)
    assert add_tensors(slot_average(t, (1, 2)), slot_average(t, (1, 2), signed=True)) == t
    assert add_tensors(t, t, -1) == {}
