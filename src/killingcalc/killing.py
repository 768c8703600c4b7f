"""Symmetrized-gradient operators on flat space and their exact kernels.

The degree-ell operator sends a symmetric ell-tensor field to the full
symmetrization of its coordinate derivative.  Kernels are computed as
exact nullspaces of the coefficient matrix over a fixed monomial range,
so the returned bases are canonical: same field, same order, every run.

Coefficient coordinates: a symmetric field of arity m with entries of
degree <= D is the vector of coefficients on (sorted index key, monomial)
pairs, key-major with monomials in graded lexicographic order.

The second-order obstruction N takes a symmetric 2-tensor omega to

    N_abcd = d_a d_c w_bd - d_b d_c w_ad - d_a d_d w_bc + d_b d_d w_ac,

which annihilates every symmetrized gradient; a nonzero N value is a
concrete certificate that no potential exists.  When N vanishes the
potential is recovered by a cached linear solve, free coefficients
pinned to zero so the answer is deterministic and small.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations

from killingcalc.fields import (
    PolyTensorField,
    flat_derivative,
    symmetrize_field,
)
from killingcalc.matrix import ExactMatrix, kernel_basis, rref
from killingcalc.poly import PolyScalar, monomials

__all__ = [
    "killing_operator",
    "higher_killing_operator",
    "killing_kernel",
    "symmetric_coordinates",
    "field_coefficient_vector",
    "field_from_coefficients",
    "integrability_operator",
    "integrability_kernel",
    "integrability_of_killing_matrix",
    "KillingPotentialResult",
    "killing_potential_solve",
    "DEFAULT_DEGREE_CAP",
]

DEFAULT_DEGREE_CAP = 6


def _require_symmetric(f: PolyTensorField) -> None:
    if f.arity >= 2 and f != symmetrize_field(f, range(1, f.arity + 1)):
        raise ValueError("field is not symmetric in all slots")


def killing_operator(X: PolyTensorField) -> PolyTensorField:
    """Symmetrized gradient (d_a X_b + d_b X_a) / 2 of a covector field."""
    if X.arity != 1:
        raise ValueError("expected an arity-1 field")
    return symmetrize_field(flat_derivative(X), (1, 2))


def higher_killing_operator(sigma: PolyTensorField) -> PolyTensorField:
    """Fully symmetrized coordinate derivative of a symmetric field."""
    if sigma.arity < 1:
        raise ValueError("expected arity >= 1")
    _require_symmetric(sigma)
    d = flat_derivative(sigma)
    return symmetrize_field(d, range(1, sigma.arity + 2))


def _sym_keys(n: int, arity: int):
    return list(combinations_with_replacement(range(1, n + 1), arity))


def symmetric_coordinates(n: int, arity: int, max_degree: int):
    """(key, monomial) coordinate list for symmetric fields, key-major."""
    mons = monomials(n, max_degree)
    return [(key, m) for key in _sym_keys(n, arity) for m in mons]


def field_coefficient_vector(f: PolyTensorField, max_degree: int):
    """Coefficients of a symmetric polynomial field on the standard coords."""
    if f.rational:
        raise ValueError("coefficient vectors apply to polynomial mode")
    _require_symmetric(f)
    if f.degree() > max_degree:
        raise ValueError("field degree exceeds the requested bound")
    out = []
    for key, m in symmetric_coordinates(f.n, f.arity, max_degree):
        out.append(f.at(*key).terms.get(m, Fraction(0)))
    return out


def _symmetric_unit_field(n: int, arity: int, key, mono) -> PolyTensorField:
    p = PolyScalar(n, {mono: Fraction(1)})
    return PolyTensorField(
        n, arity, {perm: p for perm in set(permutations(key))}
    )


def field_from_coefficients(n: int, arity: int, max_degree: int, vec) -> PolyTensorField:
    coords = symmetric_coordinates(n, arity, max_degree)
    if len(vec) != len(coords):
        raise ValueError("coefficient vector has the wrong length")
    per_key: dict = {}
    for (key, m), v in zip(coords, vec):
        if v:
            per_key.setdefault(key, {})[m] = Fraction(v)
    comps = {}
    for key, terms in per_key.items():
        p = PolyScalar(n, terms)
        for perm in set(permutations(key)):
            comps[perm] = p
    return PolyTensorField(n, arity, comps)


@cache
def _operator_matrix(n: int, ell: int, max_degree: int) -> ExactMatrix:
    """Degree-ell operator on coefficient vectors, columns = inputs."""
    out_coords = symmetric_coordinates(n, ell + 1, max_degree - 1)
    out_pos = {c: i for i, c in enumerate(out_coords)}
    cols = []
    for ckey, mono in symmetric_coordinates(n, ell, max_degree):
        image = higher_killing_operator(_symmetric_unit_field(n, ell, ckey, mono))
        col: dict[int, Fraction] = {}
        for okey in _sym_keys(n, ell + 1):
            for m, v in image.at(*okey).terms.items():
                col[out_pos[(okey, m)]] = v
        cols.append(col)
    return ExactMatrix.from_columns(cols, len(out_coords))


def killing_kernel(n: int, ell: int, max_degree: int) -> list[PolyTensorField]:
    """Canonical basis of symmetric solutions with entries of bounded degree.

    Requires max_degree >= ell; the kernel is degree-graded and every
    solution in it has entry degree at most ell, so any bound past that
    returns the same subspace in bigger coordinates.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if max_degree < ell:
        raise ValueError("max_degree must be at least ell")
    m = _operator_matrix(n, ell, max_degree)
    return [
        field_from_coefficients(n, ell, max_degree, vec)
        for vec in kernel_basis(m)
    ]


def integrability_operator(omega: PolyTensorField) -> PolyTensorField:
    """Second-order obstruction applied to a symmetric 2-tensor field."""
    if omega.arity != 2:
        raise ValueError("expected an arity-2 field")
    if omega.rational:
        raise ValueError("obstruction applies to polynomial mode")
    _require_symmetric(omega)
    dd = flat_derivative(flat_derivative(omega))
    n = omega.n
    comps: dict = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                for d in range(1, n + 1):
                    v = (
                        dd.at(a, c, b, d)
                        .sub(dd.at(b, c, a, d))
                        .sub(dd.at(a, d, b, c))
                        .add(dd.at(b, d, a, c))
                    )
                    if not v.is_zero():
                        comps[(a, b, c, d)] = v
    return PolyTensorField(n, 4, comps)


@cache
def _obstruction_matrix(n: int, max_degree: int) -> ExactMatrix:
    """Obstruction on symmetric 2-tensor coefficients; rows are raw
    (index tuple, monomial) coordinates of the arity-4 output."""
    out_deg = max(max_degree - 2, 0)
    mons = monomials(n, out_deg)
    mpos = {m: i for i, m in enumerate(mons)}
    idx_pos: dict = {}
    cols = []
    for ckey, mono in symmetric_coordinates(n, 2, max_degree):
        image = integrability_operator(_symmetric_unit_field(n, 2, ckey, mono))
        col: dict[int, Fraction] = {}
        for idx, s in image.comps.items():
            base = idx_pos.setdefault(idx, len(idx_pos))
            for m, v in s.terms.items():
                col[base * len(mons) + mpos[m]] = v
        cols.append(col)
    return ExactMatrix.from_columns(cols, (n ** 4) * len(mons))


def integrability_kernel(n: int, max_degree: int) -> list[PolyTensorField]:
    """Canonical basis of symmetric 2-tensor fields killed by the
    obstruction, entries of degree <= max_degree."""
    m = _obstruction_matrix(n, max_degree)
    return [
        field_from_coefficients(n, 2, max_degree, vec)
        for vec in kernel_basis(m)
    ]


def integrability_of_killing_matrix(n: int, max_degree: int) -> ExactMatrix:
    """Matrix of the composite obstruction-after-symmetrized-gradient."""
    out_deg = max(max_degree - 3, 0)
    mons = monomials(n, out_deg)
    mpos = {m: i for i, m in enumerate(mons)}
    cols = []
    idx_all = [
        (a, b, c, d)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        for c in range(1, n + 1)
        for d in range(1, n + 1)
    ]
    idx_pos = {idx: i for i, idx in enumerate(idx_all)}
    for ckey, mono in symmetric_coordinates(n, 1, max_degree):
        X = _symmetric_unit_field(n, 1, ckey, mono)
        image = integrability_operator(killing_operator(X))
        col: dict[int, Fraction] = {}
        for idx, s in image.comps.items():
            for m, v in s.terms.items():
                col[idx_pos[idx] * len(mons) + mpos[m]] = v
        cols.append(col)
    return ExactMatrix.from_columns(cols, len(idx_all) * len(mons))


class KillingPotentialResult:
    """Either a potential with an exact round trip or a certificate."""

    __slots__ = ("solvable", "potential", "certificate")

    def __init__(self, solvable: bool, potential=None, certificate=None):
        self.solvable = solvable
        self.potential = potential
        self.certificate = certificate

    def __repr__(self) -> str:
        tag = "potential" if self.solvable else "certificate"
        return f"KillingPotentialResult({tag})"


@cache
def _potential_transform(n: int, degree: int):
    """Row-reduced augmented system for the arity-1 operator at this degree.

    Returns (pivot columns within the operator block, full RREF of
    [A | I]).  The identity block records the row operations, so one
    reduction serves every right-hand side of the same shape.
    """
    a = _operator_matrix(n, 1, degree)
    aug = a.hstack(ExactMatrix.identity(a.rows))
    pivots, r = rref(aug)
    a_pivots = [p for p in pivots if p < a.cols]
    return a.cols, a_pivots, r


def killing_potential_solve(
    omega: PolyTensorField, degree_cap: int = DEFAULT_DEGREE_CAP
) -> KillingPotentialResult:
    """Invert the symmetrized gradient, or certify that none exists.

    The obstruction is evaluated first; a nonzero value is returned as
    the certificate.  A vanishing obstruction guarantees solvability,
    so a failed solve raises instead of returning.
    """
    if omega.arity != 2:
        raise ValueError("expected an arity-2 field")
    if omega.rational:
        raise ValueError("potential solve applies to polynomial mode")
    _require_symmetric(omega)
    n = omega.n
    if omega.is_zero():
        return KillingPotentialResult(True, PolyTensorField.zero(n, 1))
    cert = integrability_operator(omega)
    if not cert.is_zero():
        return KillingPotentialResult(False, certificate=cert)
    degree = omega.degree() + 1
    if degree > degree_cap:
        raise ValueError(
            f"potential degree {degree} exceeds the cap {degree_cap}"
        )
    ncols, a_pivots, r = _potential_transform(n, degree)
    b = field_coefficient_vector(omega, degree - 1)
    y: dict[int, Fraction] = {}
    for (row, col), v in r.entries.items():
        if col >= ncols and b[col - ncols]:
            w = y.get(row, Fraction(0)) + v * b[col - ncols]
            if w:
                y[row] = w
            elif row in y:
                del y[row]
    rank = len(a_pivots)
    if any(row >= rank for row in y):
        raise RuntimeError(
            "vanishing obstruction but inconsistent potential system"
        )
    vec = [Fraction(0)] * ncols
    for i, p in enumerate(a_pivots):
        vec[p] = y.get(i, Fraction(0))
    x = field_from_coefficients(n, 1, degree, vec)
    if killing_operator(x) != omega:
        raise RuntimeError("potential failed its round-trip check")
    return KillingPotentialResult(True, potential=x)
