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

import pytest

from helpers import (
    build_T,
    clear_cohomology_memos,
    cochain_weights,
    full_complex,
    koszul_complex,
    submatrix,
    whole_basis,
)
from killingcalc import chain, kostant, prolong
from killingcalc.chain import ChainComplex, cohomology_dims
from killingcalc.kostant import build_V, lie_algebra_cohomology
from killingcalc.matrix import ExactMatrix
from killingcalc.prolong import (
    _diagonal_positions,
    complex_cohomology,
    flat_forms,
    graded_diagonal_complex,
)
from killingcalc.young import YoungDiagram, gl_dimension, orbit_size, realize_irreducible

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
    module = whole_basis(YoungDiagram((ell, ell)), n + 1)
    koszul = (koszul_complex(n, ell), cochain_weights(n, [module], first=2),
              build_V(n, ell), lie_algebra_cohomology(n, ell).computed)
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


def _summed(table) -> list[int]:
    """The cohomology of the whole complex from its table by grade."""
    return [sum(h) for h in zip(*table.values())]


def test_orbit_sizes_and_dominant_weights():
    assert orbit_size((2, 1, 1, 0)) == 12
    assert orbit_size((1, 1, 1)) == orbit_size(()) == 1
    # n=2, ell=1: T_0 = R^2 of weights (1, 0), (0, 1) and T_1 of weight (1, 1)
    forms = flat_forms(2, 1)
    assert [b.weight for b in chain._weight_blocks(forms)] == [(2, 2), (2, 1), (2, 0), (1, 1), (1, 0)]
    # grade 3 holds the block (2, 1) alone, and is exact
    assert chain.weight_cohomology(forms) == {
        1: (2, 0, 0), 2: (0, 3, 0), 3: (0, 0, 0), 4: (0, 0, 1)
    }


@pytest.mark.parametrize("family", ["flat", "koszul", "graded"])
def test_a_dropped_weight_trips_the_orbit_certificate(family, monkeypatch):
    """Dropping every lift to the first dominant weight (of grade 5, for
    the graded check) leaves its grade short."""
    grade = 5 if family == "graded" else None
    forms = build_V(3, 2) if family == "koszul" else flat_forms(3, 2)
    first = next(b.weight for b in chain._weight_blocks(forms) if grade in (None, sum(b.weight)))
    original = chain.dominant_lifts

    def dropped(w, top, total):
        return [(s, mu) for s, mu in original(w, top, total) if mu != first]

    monkeypatch.setattr(chain, "dominant_lifts", dropped)
    clear_cohomology_memos()
    run = {
        "flat": lambda: complex_cohomology(3, 2),
        "koszul": lambda: lie_algebra_cohomology(3, 2),
        "graded": lambda: graded_diagonal_complex(3, 2, 5),
    }[family]
    with pytest.raises(RuntimeError, match="grade 5 times orbits" if grade else "times orbits"):
        run()


@pytest.mark.parametrize("family", ["flat", "koszul"])
def test_a_block_counted_in_another_grade_trips_the_orbit_certificate(family, monkeypatch):
    """The certificate holds grade by grade: the first block, labelled
    with a dominant weight one grade up, leaves every degree's total
    cochain dimension as it was, and is still refused."""
    original = chain._weight_blocks

    def regraded(cx):
        blocks = original(cx)
        b = next(blocks)
        yield b._replace(weight=(b.weight[0] + 1,) + b.weight[1:])
        yield from blocks

    monkeypatch.setattr(chain, "_weight_blocks", regraded)
    clear_cohomology_memos()
    run = complex_cohomology if family == "flat" else lie_algebra_cohomology
    with pytest.raises(RuntimeError, match="times orbits"):
        run(3, 2)


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
    monkeypatch.setattr(chain, "_weight_blocks", lambda cx: _flip_one_sign(original(cx)))
    clear_cohomology_memos()
    run = complex_cohomology if family == "flat" else lie_algebra_cohomology
    with pytest.raises(ValueError, match="not a complex"):
        run(3, 2)


def test_a_weight_mixing_column_is_refused():
    """A module column labelled with another column's weight sends entries
    out of its block."""
    forms = flat_forms(3, 2)
    weights = list(forms.weights)
    weights[0], weights[-1] = weights[-1], weights[0]
    with pytest.raises(RuntimeError, match="leaves the block of weight"):
        chain.weight_cohomology(forms._replace(weights=tuple(weights)))


@pytest.mark.parametrize("family", ["flat", "koszul"])
def test_forms_on_the_read_weights_give_the_same_blocks(family):
    """On the weights the dominant blocks read, the forms hold fewer
    columns (108 of 196 at n=6, ell=2; 323 of 1176 flat at n=6, ell=3;
    423 of 1764 Koszul at n=5, ell=4), and each dominant block equals the
    block of the forms on all weights."""
    build, read = {
        "flat": (flat_forms, prolong._flat_read_weights),
        "koszul": (build_V, kostant._read_weights),
    }[family]
    for n, ell, held in ((3, 2, 13), (6, 2, 108)):
        part, full = build(n, ell, read(n, ell)), build(n, ell)
        assert (part.dim, full.dim) == (held, gl_dimension(YoungDiagram((ell, ell)), n + 1))
        assert set(part.weights) == read(n, ell) < set(full.weights)
        blocks, full_blocks = list(chain._weight_blocks(part)), list(chain._weight_blocks(full))
        assert [b.weight for b in blocks] == [b.weight for b in full_blocks]
        for b, want in zip(blocks, full_blocks):
            assert b.complex.spaces == want.complex.spaces
            assert b.complex.maps == want.complex.maps
    n, ell, held = (6, 3, 323) if family == "flat" else (5, 4, 423)
    assert build(n, ell, read(n, ell)).dim == held


def test_weight_space_coordinates_are_verified():
    """Coordinates are the values at the lead keys; a vector changed at a
    key that is no lead, or holding a key of another weight, is refused."""
    part = realize_irreducible(YoungDiagram((3, 1)), 3, [(2, 1, 1)])[(2, 1, 1)]
    free = [k for r, k in enumerate(part.keys) if r not in part.leads]
    assert part.dim == 2 and free
    for j, (col, s) in enumerate(zip(part.columns, part.scales)):
        y = {part.keys[r]: v for r, v in col.items()}
        assert part.coords(y) == {j: s}
        for k in free:
            bad = {**y, k: y.get(k, 0) + 1}
            if bad[k]:
                with pytest.raises(ValueError, match="outside the column span"):
                    part.coords(bad)
    with pytest.raises(ValueError, match="no place in weight"):
        part.coords({((1,), (1, 1, 1)): 1})


@pytest.mark.parametrize("family", ["flat", "koszul"])
def test_a_corrupted_action_column_is_refused(family, monkeypatch):
    """An action image with one key of the wrong shape cannot be read in
    any target weight space."""
    module = prolong if family == "flat" else kostant
    name = "_iota_image" if family == "flat" else "_x_image"
    original = getattr(module, name)

    def corrupted(source, col, a):
        return {**original(source, col, a), source.keys[0]: 1}

    monkeypatch.setattr(module, name, corrupted)
    clear_cohomology_memos()
    with pytest.raises((ValueError, RuntimeError)):
        complex_cohomology(3, 2) if family == "flat" else lie_algebra_cohomology(3, 2)


@pytest.mark.parametrize("family", ["flat", "koszul"])
def test_a_weight_left_unrealized_trips_the_orbit_certificate(family):
    """Forms that miss one of the weights the blocks read give block
    dimensions short of C(n, p) times the closed-form module dimension,
    unless a block's d^2 check fails first on the maps it lost."""
    build, read = {
        "flat": (flat_forms, prolong._flat_read_weights),
        "koszul": (build_V, kostant._read_weights),
    }[family]
    weights = read(3, 2)
    assert _summed(chain.weight_cohomology(build(3, 2, weights))) == list(
        complex_cohomology(3, 2).computed
    )
    for w in sorted(weights)[:: len(weights) // 3]:
        with pytest.raises((RuntimeError, ValueError), match="times orbits|not a complex"):
            chain.weight_cohomology(build(3, 2, weights - {w}))
