"""Symmetrized-gradient operators on flat space and their exact kernels.

The degree-ell operator sends a symmetric ell-tensor field to the full
symmetrization of its coordinate derivative.  Kernels are computed as
exact nullspaces of the coefficient matrix over a fixed monomial range,
so the returned bases are canonical: same field, same order, every run.

Coefficient coordinates: a symmetric field of arity m with entries of
degree <= D is the vector of coefficients on (sorted index key, monomial)
pairs, key-major with monomials in graded lexicographic order.

The obstruction N and the potential solver live in ``potential``, which
``range-check`` runs without this module; they are re-exported here.
The symmetrized-gradient and obstruction matrices are written entry by
entry from the coefficient rules of ``potential``; no field is built for
them.  For symmetric omega N_abcd = N_badc = N_cdab = N_dcba, so only
the lexicographically first of those four index tuples gets rows.  The
composite N(sym d X) is the product of the two independently built
matrices, so its vanishing is an exact check of N o sym d = 0 and not a
property of either construction.

The degree-ell operator preserves the torus weight: coordinate
(key, alpha) has weight count(key) + alpha, the count of each index
value in the key plus the exponent, and it maps to rows
(sorted(key + c), alpha - e_c) of the same weight.  It is
GL(n)-equivariant, so S_n permutes its weight blocks, and it permutes
the coordinates with no sign.  ``degree_bound_check`` therefore writes
only the blocks of dominant weights, takes each block's kernel, and
multiplies kernel dimensions by orbit sizes; equal spans on a dominant
block mean equal spans on its orbit.  The blocks come from one pass over
the keys: each lift count(key) + alpha (``young.dominant_lifts``) gives
block count(key) + alpha the coordinate (key, alpha) of a key of arity
ell, |alpha| <= D, or the row of a key of arity ell + 1, |alpha| <= D - 1.
Each run certifies that every entry lands in a row of its block and
that the orbit-weighted coordinate counts equal
C(n + ell - 1, ell) * |monomials(n, D)|.  The whole kernel
``killing_kernel_vectors`` stays the reference the check compares with,
by weight and in total.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb

from killingcalc.chain import block_rows
from killingcalc.matrix import ExactMatrix, kernel_basis, rref
from killingcalc.poly import PolyScalar, PolyTensorField, monomials
from killingcalc.potential import (  # noqa: F401  the public names are re-exported
    KillingPotentialResult, _gradient_terms, _obstruction_terms,
    _require_symmetric, integrability_operator, killing_potential_solve,
)
from killingcalc.young import dominant_lifts, orbit_size

__all__ = [
    "killing_operator",
    "killing_kernel",
    "killing_kernel_vectors",
    "degree_bound_check",
    "symmetric_coordinates",
    "field_coefficient_vector",
    "field_from_coefficients",
    "integrability_operator",
    "integrability_kernel",
    "integrability_of_killing_matrix",
    "KillingPotentialResult",
    "killing_potential_solve",
]

def killing_operator(X: PolyTensorField) -> PolyTensorField:
    """Symmetrized gradient (d_a X_b + d_b X_a) / 2 of a covector field."""
    from killingcalc.fields import flat_derivative, symmetrize_field

    if X.arity != 1:
        raise ValueError("expected an arity-1 field")
    return symmetrize_field(flat_derivative(X), (1, 2))


@lru_cache(maxsize=None, typed=True)
def symmetric_coordinates(n: int, arity: int, max_degree: int) -> tuple:
    """The (key, monomial) coordinates of symmetric fields, key-major, as a
    tuple; memoized per (n, arity, max_degree) and their types."""
    mons = monomials(n, max_degree)
    keys = combinations_with_replacement(range(1, n + 1), arity)
    return tuple((key, m) for key in keys for m in mons)


def field_coefficient_vector(f: PolyTensorField, max_degree: int):
    """Coefficients of a symmetric polynomial field on the standard coords."""
    if f.rational:
        raise ValueError("coefficient vectors apply to polynomial fields")
    _require_symmetric(f)
    if f.degree() > max_degree:
        raise ValueError("field degree exceeds the requested bound")
    pos = {c: i for i, c in enumerate(symmetric_coordinates(f.n, f.arity, max_degree))}
    out = [Fraction(0)] * len(pos)
    for idx, s in f.comps.items():
        for m, v in s.terms.items():
            i = pos.get((idx, m))
            if i is not None:  # None on an unsorted copy of a stored sorted key
                out[i] = v
    return out


def field_from_coefficients(n: int, arity: int, max_degree: int, vec) -> PolyTensorField:
    """The symmetric field with the sparse coefficient vector vec, a dict
    from positions in ``symmetric_coordinates`` to values."""
    coords = symmetric_coordinates(n, arity, max_degree)
    per_key: dict = {}
    for i, v in sorted(vec.items()):
        if not 0 <= i < len(coords):
            raise ValueError(f"coefficient position {i} outside 0..{len(coords) - 1}")
        v = Fraction(v)
        if v:
            key, m = coords[i]
            per_key.setdefault(key, {})[m] = v
    comps = {}
    for key, terms in per_key.items():
        p = PolyScalar._of(n, terms)
        for perm in _orderings(key):
            comps[perm] = p
    return PolyTensorField._of(n, arity, comps)


def _orderings(key: tuple[int, ...]):
    """The distinct orderings of an index tuple, each made once: a key of
    arity ell with few distinct values has far fewer than ell! of them."""
    if not key:
        yield ()
        return
    for v in sorted(set(key)):
        i = key.index(v)
        for rest in _orderings(key[:i] + key[i + 1:]):
            yield (v,) + rest


def _gradient_entries(coordinate):
    """The entries (row coordinate (key, alpha), int) that the column of a
    coordinate has in the operator matrix, by ``_gradient_terms``."""
    return (((up, lower), coef) for up, lower, coef in _gradient_terms(*coordinate))


def _operator_matrix(n: int, ell: int, max_degree: int) -> ExactMatrix:
    """Degree-ell operator on coefficient vectors, columns = inputs;
    entries by the symmetrized-gradient rule of ``potential``, written
    as the integers (mult_K(c) + 1) * alpha_c over scale ell + 1 on all
    weights by ``chain.block_rows``."""
    coords = symmetric_coordinates(n, ell, max_degree)
    rows = symmetric_coordinates(n, ell + 1, max_degree - 1)
    data = block_rows(None, coords, rows, _gradient_entries)
    return ExactMatrix.from_int_rows(len(coords), data, ell + 1)


@lru_cache(maxsize=None, typed=True)
def killing_kernel_vectors(n: int, ell: int, max_degree: int) -> tuple[dict, ...]:
    """Canonical basis of symmetric solutions with entries of bounded
    degree, as sparse vectors on ``symmetric_coordinates(n, ell, max_degree)``.
    Memoized by typed arguments: callers must not mutate the vectors.

    Requires max_degree >= ell; the kernel is degree-graded and every
    solution in it has entry degree at most ell, so any bound past that
    returns the same subspace in bigger coordinates.
    """
    if operator.index(ell) < 1:
        raise ValueError("ell must be at least 1")
    if operator.index(max_degree) < ell:
        raise ValueError("max_degree must be at least ell")
    return tuple(_fractions(kernel_basis(_operator_matrix(n, ell, max_degree))))


def _fractions(kernel):
    """The vectors {position: ``Fraction``} of the (integer column,
    scale) pairs of ``matrix.kernel_basis``."""
    return ({r: Fraction(v, scale) for r, v in col.items()} for col, scale in kernel)


def killing_kernel(n: int, ell: int, max_degree: int) -> list[PolyTensorField]:
    """The fields of ``killing_kernel_vectors``."""
    return [
        field_from_coefficients(n, ell, max_degree, vec)
        for vec in killing_kernel_vectors(n, ell, max_degree)
    ]


def _operator_blocks(n: int, ell: int, max_degree: int):
    """Yield (mu, coordinates, block) for every dominant weight mu of the
    degree-ell operator on coefficients of degree <= max_degree: the
    block's coordinates (key, alpha), those with count(key) + alpha = mu,
    and the block of ``_operator_matrix`` on them, its rows the
    (sorted(key + c), alpha - e_c) of weight mu, written by
    ``chain.block_rows``.  Each key is lifted once, by the rule of the
    module docstring.  The keys come in order and a block holds at most
    one coordinate or row per key, alpha being mu - count(key), so both
    are in the order of ``_operator_matrix``."""
    blocks: dict[tuple[int, ...], tuple[list, list]] = {}
    for side, arity, degree in ((0, ell, max_degree), (1, ell + 1, max_degree - 1)):
        for key in combinations_with_replacement(range(1, n + 1), arity):
            for alpha, mu in dominant_lifts(tuple(map(key.count, range(1, n + 1))), degree, degree):
                blocks.setdefault(mu, ([], []))[side].append((key, alpha))
    for mu, (coords, rows) in blocks.items():
        data = block_rows(mu, coords, rows, _gradient_entries)
        yield mu, coords, ExactMatrix.from_int_rows(len(coords), data, ell + 1)


def _dominant_kernels(n: int, ell: int, max_degree: int) -> dict:
    """weight -> (coordinates, kernel basis on their positions, as integer
    columns) of every dominant block of ``_operator_blocks``.

    Raises RuntimeError unless the orbit-weighted coordinate counts equal
    C(n + ell - 1, ell) * |monomials(n, max_degree)|, the whole system's.
    """
    out = {}
    columns = 0
    for mu, coords, block in _operator_blocks(n, ell, max_degree):
        columns += orbit_size(mu) * len(coords)
        out[mu] = coords, [col for col, _ in kernel_basis(block)]
    want = comb(n + ell - 1, ell) * comb(n + max_degree, n)
    if columns != want:
        raise RuntimeError(
            f"operator blocks times orbits give {columns} columns, expected {want}"
        )
    return out


def _span(vectors, ncols: int):
    """The reduced echelon form of the span of sparse vectors on ncols
    coordinates."""
    return rref(ExactMatrix.from_columns(vectors, ncols).transpose())


def degree_bound_check(n: int, ell: int) -> tuple[int, bool]:
    """The kernel with entries of degree <= ell + 2 against the whole
    kernel with degree <= ell, on the dominant weight blocks: (the slack
    kernel's dimension, the block kernels times their orbit sizes; whether
    each block kernel spans what the whole kernel's vectors of its weight
    span).  S_n permutes the coordinates with no sign, so equal spans on
    a dominant block mean equal spans on its whole orbit.  Raises
    RuntimeError if a vector of the whole kernel spans several weights.
    """
    coords = symmetric_coordinates(n, ell, ell)
    tight: dict = {}
    for vec in killing_kernel_vectors(n, ell, ell):
        weights = {
            tuple(m + key.count(i) for i, m in enumerate(mono, 1))
            for key, mono in (coords[i] for i in vec)
        }
        if len(weights) != 1:
            raise RuntimeError(f"a kernel vector spans the weights {sorted(weights)}")
        tight.setdefault(weights.pop(), []).append({coords[i]: v for i, v in vec.items()})
    dim, same = 0, True
    for mu, (cols, kernel) in _dominant_kernels(n, ell, ell + 2).items():
        dim += orbit_size(mu) * len(kernel)
        local = {c: j for j, c in enumerate(cols)}
        inner = [{local[c]: v for c, v in vec.items()} for vec in tight.get(mu, ())]
        same = same and _span(inner, len(cols)) == _span(kernel, len(cols))
    return dim, same


@lru_cache(maxsize=None, typed=True)
def _obstruction_matrix(n: int, max_degree: int) -> ExactMatrix:
    """Obstruction on symmetric 2-tensor coefficients, by the rule of the
    module docstring, in integers over scale 1; rows are the index tuples
    (a, b, c, d) that come first among their equal-row four, in
    lexicographic order, then the monomials of degree <= max(max_degree - 2, 0)."""
    mons = monomials(n, max(max_degree - 2, 0))
    mpos = {m: i for i, m in enumerate(mons)}
    first = {}
    for a, b, c, d in product(range(1, n + 1), repeat=4):
        if (a, b, c, d) <= min((b, a, d, c), (c, d, a, b), (d, c, b, a)):
            first[(a, b, c, d)] = len(first) * len(mons)
    data: list[dict[int, int]] = [{} for _ in range(len(first) * len(mons))]
    col = 0
    for (i, j), mono in symmetric_coordinates(n, 2, max_degree):
        acc: dict = {}
        for u, v in {(i, j), (j, i)}:
            for idx, lower, coef in _obstruction_terms(u, v, mono):
                if idx in first:
                    r = first[idx] + mpos[lower]
                    acc[r] = acc.get(r, 0) + coef
        for r, value in acc.items():
            if value:
                data[r][col] = value
        col += 1
    return ExactMatrix.from_int_rows(col, data)


def integrability_kernel(n: int, max_degree: int) -> list[PolyTensorField]:
    """Canonical basis of symmetric 2-tensor fields killed by the
    obstruction, entries of degree <= max_degree."""
    m = _obstruction_matrix(n, max_degree)
    return [field_from_coefficients(n, 2, max_degree, vec) for vec in _fractions(kernel_basis(m))]


def integrability_of_killing_matrix(n: int, max_degree: int) -> ExactMatrix:
    """Matrix of the composite obstruction-after-symmetrized-gradient.

    The product of the two independently built operator matrices; it is
    zero exactly when the obstruction annihilates every symmetrized
    gradient of degree <= max_degree (max_degree >= 1).
    """
    return _obstruction_matrix(n, max_degree - 1) * _operator_matrix(n, 1, max_degree)
