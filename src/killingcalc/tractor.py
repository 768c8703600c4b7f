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
multiplies its kernel dimension by the orbit size of mu.  T is realized
only on the weights those blocks read, found from Kostka numbers.  Each
run certifies the bookkeeping: every entry must land in a row of its
block, and the orbit-weighted counts of block columns and row labels
must equal dim T * |monomials(n, D)| and n times that, which also fails
when a weight the blocks read was left unrealized.  A parallel section
is fixed by its value at the origin, so the kernel of block mu has the
dimension of T's weight space mu; the tests check that character.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

from killingcalc.chain import block_rows
from killingcalc.matrix import integer_rank
from killingcalc.poly import PolyScalar, PolyTensorField
from killingcalc.prolong import _component_shapes, flat_forms
from killingcalc.young import (
    YoungDiagram, bounded_compositions, dominant_weights, gl_dimension, orbit_size,
    weight_multiplicities,
)

if TYPE_CHECKING:  # metric is imported where it runs: `killing` never does
    from killingcalc.metric import MetricField

__all__ = [
    "TractorSection",
    "SectionDerivative",
    "killing_lift",
    "tractor_derivative",
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


class SectionDerivative:
    """Derivative values of a section; leading slot is the direction."""

    __slots__ = ("n", "x_part", "k_part")

    def __init__(self, x_part: PolyTensorField, k_part: PolyTensorField):
        self.n = x_part.n
        self.x_part = x_part
        self.k_part = k_part

    def is_zero(self) -> bool:
        return self.x_part.is_zero() and self.k_part.is_zero()

    def __repr__(self) -> str:
        return f"SectionDerivative(n={self.n})"


def killing_lift(X: PolyTensorField, g: MetricField | None = None) -> TractorSection:
    """Lift a covector field so the derivative isolates its symmetrized
    gradient: the 2-form slot carries the skew half of the gradient."""
    from killingcalc.fields import antisymmetrize_field
    from killingcalc.metric import MetricField, covariant_derivative

    if X.arity != 1:
        raise ValueError("expected an arity-1 field")
    g = g if g is not None else MetricField.flat(X.n)
    dX = covariant_derivative(X, g)
    return TractorSection(X, antisymmetrize_field(dX, (1, 2)))


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


def tractor_derivative(s: TractorSection, g: MetricField) -> SectionDerivative:
    """Connection applied to a section; zero means parallel."""
    if s.n != g.n:
        raise ValueError("section and metric dimensions disagree")
    out_x, out_k = _derive_pair(g, s.x_part, s.k_part)
    return SectionDerivative(out_x, out_k)


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


def _lift_cost(w: tuple[int, ...]) -> int:
    """The least entry total of an m >= 0 with w + m dominant: each entry
    raised to the largest entry at or after it."""
    cost = top = 0
    for x in reversed(w):
        top = max(top, x)
        cost += top - x
    return cost


def _parallel_read_weights(n: int, ell: int, max_degree: int) -> frozenset:
    """The weights of T that the dominant blocks read, from the Kostka
    numbers alone: those w with a dominant w + m, |m| <= max_degree + 1.
    A column (t, m) has |m| <= max_degree, and a row (a, r, m) reads
    wt(r) = mu - m - e_a."""
    return frozenset(
        w
        for d in _component_shapes(ell)
        for w in weight_multiplicities(d, n)
        if _lift_cost(w) <= max_degree + 1
    )


def _parallel_blocks(forms, max_degree: int):
    """Yield (mu, columns, labels, rows) for every dominant weight mu of the
    flat connection on polynomial sections of degree <= max_degree, over
    the scale of ``forms``, a ``flat_forms`` that holds every weight the
    block reads: the block's columns (t, m), its row labels (a, r, m), and
    their rows {position in columns: int}, written by column by the rule
    of the module docstring with ``chain.block_rows``.  The row labels
    of direction a are the columns of weight mu - e_a."""
    n = forms.n
    by_weight: dict[tuple[int, ...], list[int]] = {}
    for t, w in enumerate(forms.weights):
        by_weight.setdefault(w, []).append(t)

    read: dict[tuple[int, ...], list] = {}

    def columns(nu):
        # each weight is the block of one mu and a row weight of up to n
        # others: list its columns once
        cols = read.get(nu)
        if cols is None:
            cols = read[nu] = [
                (t, m)
                for s in range(max_degree + 1)
                for m in bounded_compositions(nu, s)
                for t in by_weight.get(tuple(x - y for x, y in zip(nu, m)), ())
            ]
        return cols

    def entries(column):
        t, m = column
        for a in range(1, n + 1):
            if m[a - 1]:
                yield (a, t, m[:a - 1] + (m[a - 1] - 1,) + m[a:]), forms.scale * m[a - 1]
            for r, v in forms.columns[a - 1].get(t, {}).items():
                yield (a, r, m), -v

    totals = {sum(w) for w in by_weight}
    # an entry of mu is at most an entry of a weight of T plus |m| + 1
    largest = max(map(max, by_weight)) + max_degree + 1
    for g in range(min(totals), max(totals) + max_degree + 2):
        for mu in dominant_weights(g, n, largest):
            cols = columns(mu)
            labels = [
                (a, r, m)
                for a in range(1, n + 1)
                if mu[a - 1]
                for r, m in columns(mu[:a - 1] + (mu[a - 1] - 1,) + mu[a:])
            ]
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

    Parallel sections are exactly the prolonged Killing tensors, so
    this equals the bundle dimension; the default degree bound ell is
    already enough to see all of them.
    """
    if max_degree is None:
        max_degree = ell
    kernels = _parallel_kernels(n, ell, max_degree)
    return sum(orbit_size(mu) * k for mu, k in kernels.items())
