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

For higher valence only the flat model is carried: the bundle is the
tuple of graded symmetry components and the derivative is
(Dv)_k = d_a v_k - iota_a v_{k+1}, where iota_a pins the first index
of the next component.  Polynomial parallel sections of that system
biject with Killing tensors, which pins the bundle dimension.

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
n * columns rows by construction.  Every entry is a Python int, so the
rows go straight to ``matrix.integer_rank``; the number of parallel
sections is the column count minus the rank.
"""

from __future__ import annotations

from killingcalc.fields import (
    MetricField,
    PolyTensorField,
    antisymmetrize_field,
    covariant_derivative,
    flat_derivative,
    riemann,
    _s_mul,
)
from killingcalc.matrix import integer_rank
from killingcalc.poly import PolyScalar, monomials
from killingcalc.prolong import build_T, flat_forms
from killingcalc.symspace import extract
from killingcalc.tensor import Tensor

__all__ = [
    "TractorSection",
    "SectionDerivative",
    "killing_lift",
    "tractor_derivative",
    "TractorCurvature",
    "tractor_curvature",
    "ComponentSection",
    "flat_component_derivative",
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
    if X.arity != 1:
        raise ValueError("expected an arity-1 field")
    g = g if g is not None else MetricField.flat(X.n)
    dX = covariant_derivative(X, g)
    return TractorSection(X, antisymmetrize_field(dX, (1, 2)))


def _derive_pair(g: MetricField, a_part: PolyTensorField, b_part: PolyTensorField):
    """One connection step; extra leading slots ride along as spectators."""
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

    def nonzero_witness(self):
        """First nonzero curvature entry, or None."""
        for label, fx, fk in self.pieces:
            for part_name, part in (("x", fx), ("k", fk)):
                for idx in sorted(part.comps):
                    return {
                        "section": label,
                        "slot": part_name,
                        "index": idx,
                        "value": repr(part.comps[idx]),
                    }
        return None

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


class ComponentSection:
    """Flat-model section of the valence-ell bundle, one field per
    component; every monomial coefficient must lie in its component's
    symmetry subspace."""

    __slots__ = ("n", "ell", "parts")

    def __init__(self, n: int, ell: int, parts):
        parts = tuple(parts)
        pro = build_T(n, ell)
        if len(parts) != ell + 1:
            raise ValueError(f"expected {ell + 1} component fields")
        for k, f in enumerate(parts):
            comp = pro.components[k]
            if f.n != n or f.arity != comp.arity:
                raise ValueError(f"component {k} has the wrong shape")
            if f.rational:
                raise ValueError("flat-model sections are polynomial")
            _check_membership(f, comp)
        self.n = n
        self.ell = ell
        self.parts = parts

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.parts)

    def __repr__(self) -> str:
        return f"ComponentSection(n={self.n}, ell={self.ell})"


def _check_membership(f: PolyTensorField, comp) -> None:
    per_mono: dict = {}
    for idx, s in f.comps.items():
        for m, v in s.terms.items():
            per_mono.setdefault(m, {})[idx] = v
    for m, entries in per_mono.items():
        t = Tensor(f.n, f.arity, entries)
        coords = extract(comp.space, t)
        comp.coords({i: v for i, v in enumerate(coords) if v})


def flat_component_derivative(sec: ComponentSection) -> list[PolyTensorField]:
    """Connection step in the flat model: differentiate each component
    and subtract the next one, whose leading index is the direction."""
    out = []
    for k, f in enumerate(sec.parts):
        d = flat_derivative(f)
        if k < sec.ell:
            d = d.sub(sec.parts[k + 1])
        out.append(d)
    return out


def _coordinate_rows(forms, mons):
    """Integer rows of the flat connection on polynomial sections with
    the monomials mons, in component coordinates by the rule of the module
    docstring, over the scale of ``forms = flat_forms(n, ell)``: yields
    (row label (a, r, m), row {column: int}), zero rows left out."""
    per = len(mons)
    mpos = {m: i for i, m in enumerate(mons)}
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
