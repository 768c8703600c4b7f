"""The killing family on dominant weight blocks.

The parallel-section system and the Killing operator are
GL(n)-equivariant, so both preserve the torus weight and S_n permutes
their weight blocks.  ``tractor`` and ``killing`` write and reduce only
the dominant blocks and multiply by orbit sizes.  These tests hold the
block path against the whole-system oracles of ``tests/helpers.py``,
against the character of T (a parallel section, and a Killing tensor,
is fixed by its value at the origin, which has its weight), and check
that the bookkeeping certificate refuses a block left out, a weight left
unrealized and an entry that leaves its block.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement

import pytest

from helpers import coordinate_rows, whole_degree_bound, whole_parallel_dimension
from killingcalc import killing, tractor
from killingcalc.chain import FormComplex
from killingcalc.killing import degree_bound_check, killing_kernel_vectors
from killingcalc.poly import monomials
from killingcalc.prolong import _component_shapes, flat_forms
from killingcalc.young import kostka, orbit_size, weight_multiplicities

CHARACTER_SIZES = [(n, ell) for n in (2, 3, 4, 5) for ell in (1, 2, 3)]


def _character(ell, mu):
    """dim T_mu: the Kostka numbers of T's shapes (ell), (ell, 1..ell) at mu."""
    return sum(kostka(d, mu) for d in _component_shapes(ell))


def _is_dominant(w):
    return list(w) == sorted(w, reverse=True)


@pytest.mark.parametrize("n, ell, max_degree", [
    (2, 1, 1), (2, 2, 3), (2, 3, 5), (3, 2, 2), (3, 3, 1), (4, 2, 1), (4, 3, 0),
])
def test_parallel_blocks_are_the_whole_system_on_dominant_weights(n, ell, max_degree):
    """On all-weight forms, block mu has the whole system's row labels of
    weight mu, its rows with two or more entries, and its vanishing
    columns: the whole rows are block-diagonal and the blocks miss none."""
    _assert_blocks_are_the_whole_system(n, ell, max_degree)


@pytest.mark.parametrize("n, ell, max_degree", [(3, 3, 2), (4, 2, 2)])
def test_parallel_blocks_list_each_weight_once(n, ell, max_degree, monkeypatch):
    """Each weight of T is lifted once, though its columns serve several
    blocks as columns and row labels, and the blocks stay the whole
    system's."""
    calls = Counter()
    original = tractor.dominant_lifts

    def counted(w, top, total):
        calls[w] += 1
        return original(w, top, total)

    monkeypatch.setattr(tractor, "dominant_lifts", counted)
    _assert_blocks_are_the_whole_system(n, ell, max_degree)
    assert calls == Counter(set(flat_forms(n, ell).weights))


def _assert_blocks_are_the_whole_system(n, ell, max_degree):
    forms = flat_forms(n, ell)
    mons = monomials(n, max_degree)
    mpos = {m: i for i, m in enumerate(mons)}

    def weight(a, r, m):
        return tuple(w + x + (i == a - 1) for i, (w, x) in enumerate(zip(forms.weights[r], m)))

    labels = [(a, r, m) for a in range(1, n + 1) for r in range(forms.dim) for m in mons]
    whole = dict(coordinate_rows(forms, mons))
    seen = 0
    for mu, cols, labs, rows in tractor._parallel_blocks(forms, max_degree):
        assert sorted(labs) == sorted(label for label in labels if weight(*label) == mu)
        glob = [t * len(mons) + mpos[m] for t, m in cols]
        got = [{glob[j]: v for j, v in row.items()} for row in rows]
        want = [row for label, row in whole.items() if weight(*label) == mu]
        assert {frozenset(r.items()) for r in got if len(r) > 1} == {
            frozenset(r.items()) for r in want if len(r) > 1
        }
        assert {c for r in got if len(r) == 1 for c in r} == {
            c for r in want if len(r) == 1 for c in r
        }
        seen += len(labs)
    assert seen == sum(1 for label in labels if _is_dominant(weight(*label)))


@pytest.mark.parametrize("n, ell, max_degree", [
    (2, 2, 4), (3, 1, 3), (3, 3, 3), (4, 1, 2), (4, 2, 2), (4, 3, 1),
])
def test_parallel_dimension_matches_the_whole_system(n, ell, max_degree):
    assert tractor.flat_parallel_dimension(n, ell, max_degree) == whole_parallel_dimension(
        n, ell, max_degree
    )


@pytest.mark.parametrize("n, ell", CHARACTER_SIZES)
def test_parallel_block_kernels_are_the_character_of_T(n, ell):
    """The kernel of the parallel system's block mu has dimension dim T_mu
    on every dominant weight, and no dominant weight of T is missing."""
    kernels = tractor._parallel_kernels(n, ell, ell)
    assert kernels == {
        mu: _character(ell, mu) for mu in kernels
    }
    weights = {w for d in _component_shapes(ell) for w in weight_multiplicities(d, n)}
    assert {w for w in weights if _is_dominant(w)} <= {mu for mu, k in kernels.items() if k}


@pytest.mark.parametrize("slack", [0, 2])
@pytest.mark.parametrize("n, ell", CHARACTER_SIZES)
def test_operator_block_kernels_are_the_character_of_T(n, ell, slack):
    """The Killing operator's block mu, at entry degree ell and ell + 2,
    has a kernel of dimension dim T_mu on every dominant weight."""
    kernels = killing._dominant_kernels(n, ell, ell + slack)
    assert {mu: len(ker) for mu, (_, ker) in kernels.items()} == {
        mu: _character(ell, mu) for mu in kernels
    }


def _coordinate_weight(coordinate):
    key, alpha = coordinate
    return tuple(a + key.count(i) for i, a in enumerate(alpha, 1))


@pytest.mark.parametrize("ell", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operator_blocks_are_the_whole_matrix_on_dominant_weights(n, ell, monkeypatch):
    """Block mu is the submatrix of the whole operator on the coordinates
    and the rows of weight mu, both in the whole matrix's order; the
    blocks hold every dominant-weight coordinate; and each key weight of
    arity ell and ell + 1 is lifted once."""
    calls = Counter()
    original = killing.dominant_lifts

    def counted(w, top, total):
        calls[w] += 1
        return original(w, top, total)

    monkeypatch.setattr(killing, "dominant_lifts", counted)
    keys = [
        key for arity in (ell, ell + 1)
        for key in combinations_with_replacement(range(1, n + 1), arity)
    ]
    for max_degree in (0, ell, ell + 2):
        calls.clear()
        coords = killing.symmetric_coordinates(n, ell, max_degree)
        # no row has degree -1: the operator vanishes on constants
        labels = killing.symmetric_coordinates(n, ell + 1, max_degree - 1) if max_degree else ()
        whole = killing._operator_matrix(n, ell, max_degree).data if max_degree else []
        position = {c: j for j, c in enumerate(coords)}
        seen = []
        for mu, cols, block in killing._operator_blocks(n, ell, max_degree):
            assert _is_dominant(mu)
            assert cols == [c for c in coords if _coordinate_weight(c) == mu]
            assert block.scale == ell + 1 and block.cols == len(cols)
            rows = [whole[i] for i, label in enumerate(labels) if _coordinate_weight(label) == mu]
            assert [{position[cols[j]]: v for j, v in row.items()} for row in block.data] == rows
            seen.extend(cols)
        assert sorted(seen) == sorted(c for c in coords if _is_dominant(_coordinate_weight(c)))
        assert calls == Counter(_coordinate_weight((key, (0,) * n)) for key in keys)


@pytest.mark.parametrize("n, ell", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_degree_bound_matches_the_whole_matrices(n, ell):
    assert degree_bound_check(n, ell) == whole_degree_bound(n, ell)
    assert degree_bound_check(n, ell)[0] == len(killing_kernel_vectors(n, ell, ell))


def test_operator_block_kernels_span_the_whole_kernel_by_weight():
    """Each dominant block's kernel spans the whole kernel's vectors of its
    weight, at both degree bounds."""
    n, ell = 3, 2
    for max_degree in (ell, ell + 2):
        coords = killing.symmetric_coordinates(n, ell, max_degree)
        whole: dict = {}
        for vec in killing_kernel_vectors(n, ell, max_degree):
            (mu,) = {
                tuple(m + key.count(i) for i, m in enumerate(mono, 1))
                for key, mono in (coords[i] for i in vec)
            }
            whole.setdefault(mu, []).append({coords[i]: v for i, v in vec.items()})
        for mu, (cols, ker) in killing._dominant_kernels(n, ell, max_degree).items():
            local = {c: j for j, c in enumerate(cols)}
            inner = [{local[c]: v for c, v in vec.items()} for vec in whole.get(mu, ())]
            assert killing._span(inner, len(cols)) == killing._span(ker, len(cols))


def test_a_block_kernel_losing_a_vector_fails_the_degree_bound(monkeypatch):
    n, ell = 3, 2
    original = killing._dominant_kernels

    def short(n, ell, max_degree):
        out = dict(original(n, ell, max_degree))
        mu = next(mu for mu, (_, ker) in out.items() if ker)
        cols, ker = out[mu]
        out[mu] = cols, ker[:-1]
        return out

    monkeypatch.setattr(killing, "_dominant_kernels", short)
    dim, same = degree_bound_check(n, ell)
    assert not same
    assert dim < len(killing_kernel_vectors(n, ell, ell))


def _without_one_block(blocks):
    """The blocks but the first with columns."""
    dropped = False
    for block in blocks:
        if not dropped and block[1]:
            dropped = True
            continue
        yield block


def test_a_parallel_block_left_out_trips_the_certificate(monkeypatch):
    original = tractor._parallel_blocks
    monkeypatch.setattr(
        tractor, "_parallel_blocks", lambda forms, d: _without_one_block(original(forms, d))
    )
    with pytest.raises(RuntimeError, match="parallel-system blocks times orbits"):
        tractor.flat_parallel_dimension(3, 2)


def test_an_operator_block_left_out_trips_the_certificate(monkeypatch):
    original = killing._operator_blocks
    monkeypatch.setattr(
        killing, "_operator_blocks", lambda n, ell, d: _without_one_block(original(n, ell, d))
    )
    with pytest.raises(RuntimeError, match="operator blocks times orbits"):
        degree_bound_check(3, 2)


def _lift_cost(w):
    """The least |m| of an m >= 0 with w + m dominant: each entry raised to
    the largest entry at or after it."""
    return sum(max(w[i:]) - x for i, x in enumerate(w))


@pytest.mark.parametrize("n, ell", CHARACTER_SIZES)
def test_parallel_read_weights_are_those_of_lift_cost_at_most_the_row_degree(n, ell):
    """The weights of T the blocks read are those lifted to a dominant
    weight by at most max_degree + 1, the degree of a row's weight over
    its module weight."""
    weights = {w for d in _component_shapes(ell) for w in weight_multiplicities(d, n)}
    for max_degree in range(ell + 1):
        want = {w for w in weights if _lift_cost(w) <= max_degree + 1}
        assert tractor._parallel_read_weights(n, ell, max_degree) == want, max_degree


def test_a_weight_left_unrealized_trips_the_parallel_certificate(monkeypatch):
    """A dominant weight of T dropped from the realized weights loses its
    columns and rows; the certificate sees the missing columns."""
    original = tractor._parallel_read_weights

    def fewer(n, ell, max_degree):
        weights = original(n, ell, max_degree)
        return weights - {max(w for w in weights if _is_dominant(w))}

    monkeypatch.setattr(tractor, "_parallel_read_weights", fewer)
    with pytest.raises(RuntimeError, match="parallel-system blocks times orbits"):
        tractor.flat_parallel_dimension(3, 2)


def test_an_entry_outside_its_block_is_refused():
    """An iota entry moved to a row of another dominant weight w leaves its
    block: it lands in the block of w + e_1."""
    forms = flat_forms(3, 2)
    columns = [dict(col) for col in forms.columns]
    t, col = next((t, col) for t, col in columns[0].items() if col)
    r = next(iter(col))
    other = next(
        s for s, w in enumerate(forms.weights) if w != forms.weights[r] and _is_dominant(w)
    )
    columns[0][t] = {other: col[r]}
    bad = FormComplex(forms.n, forms.weights, tuple(columns), forms.scale, forms.left, forms.totals)
    with pytest.raises(RuntimeError, match="leaves the block of weight"):
        for _ in tractor._parallel_blocks(bad, 2):
            pass


def test_an_operator_entry_outside_its_block_is_refused(monkeypatch):
    original = killing._gradient_terms

    def shifted(key, mono):
        for up, lower, coef in original(key, mono):
            yield up, tuple(reversed(lower)), coef

    monkeypatch.setattr(killing, "_gradient_terms", shifted)
    with pytest.raises(RuntimeError, match="leaves the block of weight"):
        list(killing._operator_blocks(3, 1, 2))


def test_orbit_weighted_columns_are_the_closed_forms():
    n, ell, max_degree = 4, 2, 2
    forms = flat_forms(n, ell, tractor._parallel_read_weights(n, ell, max_degree))
    cols = sum(orbit_size(mu) * len(c) for mu, c, _, _ in tractor._parallel_blocks(forms, max_degree))
    assert cols == flat_forms(n, ell).dim * len(monomials(n, max_degree))
    cols = sum(orbit_size(mu) * len(c) for mu, c, _ in killing._operator_blocks(n, ell, max_degree))
    assert cols == len(killing.symmetric_coordinates(n, ell, max_degree))
