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
n * columns rows by construction.  A row with one entry says that its
column vanishes; of the rows that say so for one column, only the first
is written, which leaves the row space as it is.  Every
entry is a Python int, so the
rows go straight to ``matrix.integer_rank``; the number of parallel
sections is the column count minus the rank.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from killingcalc.fields import PolyTensorField, antisymmetrize_field, _s_mul
from killingcalc.matrix import integer_rank
from killingcalc.poly import PolyScalar, monomials
from killingcalc.prolong import flat_forms

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
                        term = _s_mul(coef, s).neg()
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
    pieces = []
    for label, s in _constant_basis_sections(g.n):
        a1, b1 = _derive_pair(g, s.x_part, s.k_part)
        a2, b2 = _derive_pair(g, a1, b1)
        fx = antisymmetrize_field(a2, (1, 2)).scale(2)
        fk = antisymmetrize_field(b2, (1, 2)).scale(2)
        pieces.append((label, fx, fk))
    return TractorCurvature(g.n, g.mode, pieces)


def _coordinate_rows(forms, mons):
    """Integer rows of the flat connection on polynomial sections with
    the monomials mons, in component coordinates by the rule of the module
    docstring, over the scale of ``forms = flat_forms(n, ell)``: yields
    (row label (a, r, m), row {column: int}), zero rows left out.  A row
    with one entry says that its column vanishes, so only the first such
    row of each column is written."""
    per = len(mons)
    mpos = {m: i for i, m in enumerate(mons)}
    vanishing = set()
    for a, iota in enumerate(forms.columns, 1):
        # A_a by rows: r -> {t: A_a[r, t]}
        by_row: dict = {}
        for t, col in iota.items():
            for r, v in col.items():
                by_row.setdefault(r, {})[t] = v
        for r in range(forms.dim):
            entries = by_row.get(r, {})
            for i, m in enumerate(mons):
                row = {t * per + i: -v for t, v in entries.items()}
                # the derivative of column (r, m + e_a) lands here
                e = m[a - 1] + 1
                j = mpos.get(m[: a - 1] + (e,) + m[a:])
                if j is not None:
                    row[r * per + j] = forms.scale * e
                if len(row) == 1:
                    (c,) = row
                    if c in vanishing:
                        continue
                    vanishing.add(c)
                if row:
                    yield (a, r, m), row


def flat_parallel_dimension(n: int, ell: int, max_degree: int | None = None) -> int:
    """Dimension of the space of polynomial parallel sections.

    Parallel sections are exactly the prolonged Killing tensors, so
    this equals the bundle dimension; the default degree bound ell is
    already enough to see all of them.
    """
    if max_degree is None:
        max_degree = ell
    forms = flat_forms(n, ell)
    mons = monomials(n, max_degree)
    ncols = forms.dim * len(mons)
    return ncols - integer_rank((row for _, row in _coordinate_rows(forms, mons)), ncols)
