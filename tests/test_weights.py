"""Dominant weight blocks against the all-weights complexes.

``complex_cohomology``, ``lie_algebra_cohomology`` and
``graded_diagonal_complex`` assemble, d^2-check and rank only the blocks
of dominant torus weights and multiply by orbit sizes.  Here the
all-weights side is the whole differentials of ``build_partial`` and
``koszul_differential`` (equal to the ``Fraction`` oracles in
test_prolong): their d^2 and full ranks, and every weight block cut out
of them by weights read independently off the realized bases.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from helpers import cochain_weights, full_complex, koszul_complex, submatrix
from killingcalc import chain
from killingcalc.chain import ChainComplex, _orbit_size, cohomology_dims
from killingcalc.kostant import build_V, koszul_forms, lie_algebra_cohomology
from killingcalc.matrix import ExactMatrix
from killingcalc.prolong import (
    _diagonal_positions,
    build_T,
    complex_cohomology,
    flat_forms,
    graded_diagonal_complex,
)
from killingcalc.symspace import SYM, Group, GroupedSpace
from killingcalc.young import SubspaceBasis

CASES = [(n, ell) for n in (2, 3, 4) for ell in (1, 2, 3)] + [(6, 2)]


def _all_weights(cx: ChainComplex, weights) -> dict[tuple[int, ...], list[int]]:
    """Cohomology of every weight block of a whole complex.  Every entry of
    every map must join two cochains of one weight."""
    index: dict[tuple[int, ...], list[list[int]]] = {}
    for p, degree in enumerate(weights):
        for i, w in enumerate(degree):
            index.setdefault(w, [[] for _ in weights])[p].append(i)
    for p, m in enumerate(cx.maps):
        for r, row in enumerate(m.data):
            assert all(weights[p + 1][r] == weights[p][c] for c in row), (p, r)
    out = {}
    for w, idx in index.items():
        maps = tuple(submatrix(m, idx[p + 1], idx[p]) for p, m in enumerate(cx.maps))
        out[w] = cohomology_dims(ChainComplex(tuple(map(len, idx)), maps))
    return out


@pytest.mark.parametrize("n, ell", CASES)
def test_dominant_blocks_match_all_weights(n, ell):
    """Per family: the whole complex's d^2 and ranks give the computed
    cohomology; each weight block of it has the cohomology of its dominant
    representative's block; the blocks of total d sum to the graded
    diagonal complex of grade d."""
    flat = (full_complex(n, ell), cochain_weights(n, build_T(n, ell).components),
            flat_forms(n, ell), complex_cohomology(n, ell).computed)
    module = build_V(n, ell)
    koszul = (koszul_complex(n, ell), cochain_weights(n, [module.basis], first=2),
              koszul_forms(n, ell), lie_algebra_cohomology(n, ell).computed)
    by_family = {}
    for family, (cx, weights, forms, computed) in (("flat", flat), ("koszul", koszul)):
        assert cx.composites_vanish()
        assert tuple(cohomology_dims(cx)) == computed
        per_weight = by_family[family] = _all_weights(cx, weights)
        for w, h in per_weight.items():
            assert h == per_weight[tuple(sorted(w, reverse=True))], w
        blocks = list(chain._weight_blocks(forms))
        assert [b.weight for b in blocks] == sorted(
            {w for w in per_weight if list(w) == sorted(w, reverse=True)}, reverse=True
        )
        for b in blocks:
            assert b.orbit == len({w for w in per_weight if sorted(w) == sorted(b.weight)})
            assert cohomology_dims(b.complex) == per_weight[b.weight]
    for d in range(ell, n + 2 * ell + 1):
        want = [
            sum(h[p] for w, h in by_family["flat"].items() if sum(w) == d)
            for p, _ in _diagonal_positions(n, ell, d)
        ]
        assert list(graded_diagonal_complex(n, ell, d).cohomology) == want, d


def test_orbit_sizes_and_dominant_weights():
    assert _orbit_size((2, 1, 1, 0)) == 12
    assert _orbit_size((1, 1, 1)) == _orbit_size(()) == 1
    # n=2, ell=1: T_0 = R^2 of weights (1, 0), (0, 1) and T_1 of weight (1, 1)
    assert chain._dominant_weights(flat_forms(2, 1)) == [(2, 2), (2, 1), (2, 0), (1, 1), (1, 0)]
    assert chain._dominant_weights(flat_forms(2, 1), 3) == [(2, 1)]


@pytest.mark.parametrize("family", ["flat", "koszul", "graded"])
def test_a_dropped_weight_trips_the_orbit_certificate(family, monkeypatch):
    original = chain._dominant_weights
    monkeypatch.setattr(chain, "_dominant_weights", lambda cx, grade=None: original(cx, grade)[1:])
    run = {
        "flat": lambda: complex_cohomology(3, 2),
        "koszul": lambda: lie_algebra_cohomology(3, 2),
        "graded": lambda: graded_diagonal_complex(3, 2, 5),
    }[family]
    with pytest.raises(RuntimeError, match="times orbits"):
        run()


def _flip_one_sign(blocks):
    """The blocks, with one entry v at (r, c) of the first D_1 whose row r
    D_2 reads negated: D_2 D_1 then gains -2 v D_2[:, r] e_c^T."""
    flipped = False
    for b in blocks:
        maps = list(b.complex.maps)
        if not flipped and len(maps) > 2:
            m, hit = maps[1], {c for row in maps[2].data for c in row}
            r = next((i for i, row in enumerate(m.data) if row and i in hit), None)
            if r is not None:
                data = list(m.data)
                data[r] = dict(data[r])
                c = next(iter(data[r]))
                data[r][c] = -data[r][c]
                maps[1] = ExactMatrix.from_int_rows(m.cols, data, m.scale)
                b = b._replace(complex=ChainComplex(b.complex.spaces, tuple(maps)))
                flipped = True
        yield b
    assert flipped


@pytest.mark.parametrize("family", ["flat", "koszul"])
def test_a_flipped_sign_in_a_dominant_block_is_refused(family, monkeypatch):
    original = chain._weight_blocks
    monkeypatch.setattr(
        chain, "_weight_blocks", lambda cx, grade=None: _flip_one_sign(original(cx, grade))
    )
    run = complex_cohomology if family == "flat" else lie_algebra_cohomology
    with pytest.raises(ValueError, match="not a complex"):
        run(3, 2)


def test_a_weight_mixing_column_is_refused():
    """A basis column e_1 + e_2 of R^2 mixes the weights (1, 0) and (0, 1);
    a module column labelled with another column's weight sends entries
    out of its block."""
    space = GroupedSpace(2, [Group(SYM, 1)])
    mixed = SubspaceBasis(space, ExactMatrix.from_columns([{0: 1, 1: 1}], 2))
    with pytest.raises(RuntimeError, match="mixes torus weights"):
        mixed.weights()
    forms = flat_forms(3, 2)
    weights = list(forms.weights)
    weights[0], weights[-1] = weights[-1], weights[0]
    with pytest.raises(RuntimeError, match="leaves its weight block"):
        chain.weight_cohomology(replace(forms, weights=tuple(weights)))
