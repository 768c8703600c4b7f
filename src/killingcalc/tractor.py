"""Prolongation connection on covector fields and its curvature.

A rank-one section pairs a covector field with an antisymmetric
2-tensor field; its derivative along the Levi-Civita connection is

    (X_b, K_bc)  ->  (nabla_a X_b - K_ab,  nabla_a K_bc - R_bc^e_a X_e)

so a section is parallel exactly when its covector part solves the
Killing equation and the 2-form part is that solution's gradient.
Curvature here means the antisymmetrized second derivative applied to
the constant spanning sections.  Its covector-slot piece cancels
identically for every metric (the first Bianchi identity); any
obstruction to flatness sits in the 2-form slot, and for the flat and
stereographic metrics that piece vanishes too.

For higher valence only the flat model is carried, and only as a
matrix: ``flat_parallel_dimension`` counts its polynomial parallel
sections.  The bundle is the tuple of graded symmetry components and the
derivative is (Dv)_k = d_a v_k - iota_a v_{k+1}, where iota_a pins the
first index of the next component.  Polynomial parallel sections of that
system biject with Killing tensors, which pins the bundle dimension.

The matrix of that system is written in component coordinates.
Column (t, m) is basis column t of T, component by component, times the
monomial x^m.  Row (a, r, m), for a direction a and a basis column r of
T_k, is coordinate r of the x^m coefficient of d_a v_k - iota_a v_{k+1},
multiplied through by the scale of ``prolong.flat_forms``: column (t, m)
gives scale * m_a at row (a, t, m - e_a) when m_a > 0 (the derivative)
and -A_a[r, t] at row (a, r, m) for every nonzero entry of column t of
the iota matrix A_a (the iota term of the next component).

This is exact.  d_a acts on the monomial alone, so d_a v_k stays in T_k
with the coordinates of v_k; iota_a v_{k+1} lies in T_k too, and
``flat_forms`` reads its coordinates off the lead rows of T_k's basis
and certifies them by their residual.  The T_k-valued equation therefore
vanishes exactly when its coordinates do, and the system has at most
n * columns rows by construction.  It is written by column, as the form
differentials of ``chain`` are, with one row per row label.  A row with
one entry says that its column vanishes, and several rows may say so
for one column; a repeated row reduces to zero and leaves the rank as it
is.  Every entry is a Python int, so the rows go straight to
``matrix.integer_rank``.

The system is written and ranked by torus weight.  Column (t, m) has
weight wt(t) + m and row (a, r, m) has weight wt(r) + m + e_a; both
entry kinds join a column and a row of one weight, because A_a lowers
the weight of T by e_a.  The connection is GL(n)-equivariant, so S_n
permutes the weight blocks, and blocks of one S_n orbit have equal
kernels.  ``flat_parallel_dimension`` therefore writes the blocks of the
dominant (non-increasing) weights mu alone, ranks each such block, and
multiplies its kernel dimension by the orbit size of mu.  The blocks
come from one pass over the weights w of T: each lift s of w, |s| <= D + 1
(``young.dominant_lifts``), gives block w + s the columns (t, s) when
|s| <= D and the row labels (a, t, s - e_a) when s_a > 0, t of weight w.
T is realized only on the weights with a lift, from Kostka numbers.  Each
run certifies the bookkeeping: every entry must land in a row of its
block, and the orbit-weighted counts of block columns and row labels
must equal dim T * |monomials(n, D)| and n times that, which also fails
when a weight the blocks read was left unrealized.  A parallel section
is fixed by its value at the origin, so the kernel of block mu has the
dimension of T's weight space mu; the tests check that character.
"""

from __future__ import annotations

import operator
from math import comb
from typing import TYPE_CHECKING

from killingcalc.chain import block_rows, read_weights
from killingcalc.matrix import integer_rank
from killingcalc.poly import PolyScalar, PolyTensorField
from killingcalc.prolong import _component_shapes, flat_forms
from killingcalc.young import (
    YoungDiagram, dominant_lifts, gl_dimension, orbit_size, weight_multiplicities,
)

if TYPE_CHECKING:  # metric is imported where it runs: `killing` never does
    from killingcalc.metric import MetricField

__all__ = [
    "TractorSection",
    "TractorCurvature",
    "tractor_curvature",
    "flat_parallel_dimension",
]


class TractorSection:
    """Covector field plus antisymmetric 2-tensor field, same base."""

    __slots__ = ("n", "x_part", "k_part")

    def __init__(self, x_part: PolyTensorField, k_part: PolyTensorField):
        if x_part.arity != 1 or k_part.arity != 2:
            raise ValueError("section parts must have arities 1 and 2")
        if x_part.n != k_part.n:
            raise ValueError("section parts live over different dimensions")
        from killingcalc.fields import antisymmetrize_field

        if k_part != antisymmetrize_field(k_part, (1, 2)):
            raise ValueError("2-tensor part must be antisymmetric")
        self.n = x_part.n
        self.x_part = x_part
        self.k_part = k_part

    def is_zero(self) -> bool:
        return self.x_part.is_zero() and self.k_part.is_zero()

    def __repr__(self) -> str:
        return f"TractorSection(n={self.n})"


def _derive_pair(g: MetricField, a_part: PolyTensorField, b_part: PolyTensorField):
    """One connection step; extra leading slots ride along as spectators."""
    from killingcalc.metric import covariant_derivative, riemann

    n = g.n
    da = covariant_derivative(a_part, g)
    ins = {}
    for idx, s in b_part.comps.items():
        mm, a, b = idx[:-2], idx[-2], idx[-1]
        ins[(a,) + mm + (b,)] = s.neg()
    out_a = da.add(PolyTensorField(n, a_part.arity + 1, ins))
    db = covariant_derivative(b_part, g)
    rm = riemann(g)
    corr: dict = {}
    if not rm.is_zero():
        for idx, s in a_part.comps.items():
            mm, e = idx[:-1], idx[-1]
            for a in range(1, n + 1):
                for c in range(1, n + 1):
                    for d in range(1, n + 1):
                        coef = rm.at(c, d, e, a)
                        if coef.is_zero():
                            continue
                        tgt = (a,) + mm + (c, d)
                        term = coef.mul(s).neg()
                        cur = corr.get(tgt)
                        corr[tgt] = term if cur is None else cur.add(term)
    out_b = db.add(PolyTensorField(n, b_part.arity + 1, corr))
    return out_a, out_b


def _constant_basis_sections(n: int):
    one = PolyScalar.const(n, 1)
    secs = []
    for b in range(1, n + 1):
        x = PolyTensorField(n, 1, {(b,): one})
        secs.append((f"e{b}", TractorSection(x, PolyTensorField.zero(n, 2))))
    for b in range(1, n + 1):
        for c in range(b + 1, n + 1):
            k = PolyTensorField(n, 2, {(b, c): one, (c, b): one.neg()})
            secs.append((f"e{b}{c}", TractorSection(PolyTensorField.zero(n, 1), k)))
    return secs


class TractorCurvature:
    """Commutator of the connection on each constant basis section."""

    __slots__ = ("n", "mode", "pieces")

    def __init__(self, n: int, mode: str, pieces):
        self.n = n
        self.mode = mode
        self.pieces = list(pieces)

    def is_zero(self) -> bool:
        return all(fx.is_zero() and fk.is_zero() for _, fx, fk in self.pieces)

    def covector_piece_zero(self) -> bool:
        return all(fx.is_zero() for _, fx, _ in self.pieces)

    def __repr__(self) -> str:
        state = "flat" if self.is_zero() else "curved"
        return f"TractorCurvature(n={self.n}, mode={self.mode}, {state})"


def tractor_curvature(g: MetricField) -> TractorCurvature:
    """Antisymmetrized second derivative on the constant section basis."""
    from killingcalc.fields import antisymmetrize_field

    pieces = []
    for label, s in _constant_basis_sections(g.n):
        a1, b1 = _derive_pair(g, s.x_part, s.k_part)
        a2, b2 = _derive_pair(g, a1, b1)
        fx = antisymmetrize_field(a2, (1, 2)).scale(2)
        fk = antisymmetrize_field(b2, (1, 2)).scale(2)
        pieces.append((label, fx, fk))
    return TractorCurvature(g.n, g.mode, pieces)


def _parallel_read_weights(n: int, ell: int, max_degree: int) -> frozenset:
    """The weights of T that the dominant blocks read, from the Kostka
    numbers alone: those with a lift of degree <= max_degree + 1."""
    weights = (w for d in _component_shapes(ell) for w in weight_multiplicities(d, n))
    return read_weights(weights, max_degree + 1, max_degree + 1)


def _parallel_blocks(forms, max_degree: int):
    """Yield (mu, columns, labels, rows) for every dominant weight mu of the
    flat connection on polynomial sections of degree <= max_degree, over
    the scale of ``forms``, a ``flat_forms`` that holds every weight the
    block reads: the block's columns (t, m), its row labels (a, r, m), and
    their rows {position in columns: int}, written by column by the rule
    of the module docstring with ``chain.block_rows``."""
    n = forms.n
    by_weight: dict[tuple[int, ...], list[int]] = {}
    for t, w in enumerate(forms.weights):
        by_weight.setdefault(w, []).append(t)
    blocks: dict[tuple[int, ...], tuple[list, list]] = {}
    for w, ts in by_weight.items():
        for s, mu in dominant_lifts(w, max_degree + 1, max_degree + 1):
            cols, labels = blocks.setdefault(mu, ([], []))
            if sum(s) <= max_degree:
                cols.extend((t, s) for t in ts)
            for a, x in enumerate(s, 1):
                if x:
                    labels.extend((a, t, s[:a - 1] + (x - 1,) + s[a:]) for t in ts)

    def entries(column):
        t, m = column
        for a in range(1, n + 1):
            if m[a - 1]:
                yield (a, t, m[:a - 1] + (m[a - 1] - 1,) + m[a:]), forms.scale * m[a - 1]
            for r, v in forms.columns[a - 1].get(t, {}).items():
                yield (a, r, m), -v

    for mu, (cols, labels) in blocks.items():
        yield mu, cols, labels, block_rows(mu, cols, labels, entries)


def _parallel_kernels(n: int, ell: int, max_degree: int) -> dict[tuple[int, ...], int]:
    """The kernel dimension of every dominant block with columns, by weight.

    Raises RuntimeError unless the orbit-weighted counts of the blocks'
    columns and row labels equal the closed forms of the whole system,
    dim T * |monomials(n, max_degree)| and n times that; a weight the
    blocks read but ``flat_forms`` left out fails it too.
    """
    forms = flat_forms(n, ell, _parallel_read_weights(n, ell, max_degree))
    kernels = {}
    columns = labels = 0
    for mu, cols, labs, rows in _parallel_blocks(forms, max_degree):
        orbit = orbit_size(mu)
        columns += orbit * len(cols)
        labels += orbit * len(labs)
        if cols:
            kernels[mu] = len(cols) - integer_rank(rows, len(cols))
    want = gl_dimension(YoungDiagram((ell, ell)), n + 1) * comb(n + max_degree, n)
    if (columns, labels) != (want, n * want):
        raise RuntimeError(
            f"parallel-system blocks times orbits give {columns} columns and "
            f"{labels} row labels, expected {want} and {n * want}"
        )
    return kernels


def flat_parallel_dimension(n: int, ell: int, max_degree: int | None = None) -> int:
    """Dimension of the space of polynomial parallel sections: the kernel
    dimensions of the dominant blocks times their orbit sizes.

    Parallel sections are exactly the prolonged Killing tensors, so this
    equals the bundle dimension; the default degree bound ell already sees
    them all.  A valence below 1 or a negative bound raises ValueError.
    """
    if operator.index(ell) < 1:
        raise ValueError("valence must be at least 1")
    if max_degree is None:
        max_degree = ell
    if operator.index(max_degree) < 0:
        raise ValueError("degree bound must be nonnegative")
    return sum(orbit_size(mu) * k for mu, k in _parallel_kernels(n, ell, max_degree).items())
