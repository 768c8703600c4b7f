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

The operator matrices are written entry by entry from closed-form
coefficient rules; no field is built for them.

* Symmetrized gradient, degree ell: input coordinate (K, alpha) goes,
  for each direction c with alpha_c > 0, to (sorted(K + c), alpha - e_c)
  with value (mult_K(c) + 1) * alpha_c / (ell + 1).  Averaging the
  derivative over the ell + 1 slots, the arrangements with c in the
  derivative slot number (mult_K(c) + 1) * ell!.
* Obstruction: the unit tensor with x^alpha at (i, j) and (j, i) is
  differentiated twice; d_p d_q x^alpha = coef * x^beta of entry (u, v)
  adds +coef at (p, u, q, v), -coef at (u, p, q, v), -coef at
  (p, u, v, q) and +coef at (u, p, v, q), one for each term of N.  Rows
  are the index tuples (a, b, c, d) in lexicographic order, each
  followed by the monomials of degree <= D - 2.
* The composite N(sym d X) is the product of the two matrices above,
  built independently, so its vanishing is an exact check of N o sym d
  = 0 and not a property of either construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations
from math import comb

from killingcalc.fields import (
    PolyTensorField,
    flat_derivative,
    symmetrize_field,
)
from killingcalc.matrix import ExactMatrix, kernel_basis, rref
from killingcalc.poly import PolyScalar, monomials
from killingcalc.prolong import DEFAULT_CAP, CapExceeded, _check_args
from killingcalc.young import YoungDiagram, gl_dimension

__all__ = [
    "killing_operator",
    "higher_killing_operator",
    "killing_kernel",
    "killing_kernel_vectors",
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


@cache
def _coordinate_positions(n: int, arity: int, max_degree: int):
    """Position maps of ``symmetric_coordinates``: (key -> key index,
    monomial -> monomial index, monomials per key); the coordinate
    (key, m) sits at key index * monomials per key + monomial index."""
    mons = monomials(n, max_degree)
    return (
        {key: i for i, key in enumerate(_sym_keys(n, arity))},
        {m: i for i, m in enumerate(mons)},
        len(mons),
    )


def field_coefficient_vector(f: PolyTensorField, max_degree: int):
    """Coefficients of a symmetric polynomial field on the standard coords."""
    if f.rational:
        raise ValueError("coefficient vectors apply to polynomial mode")
    _require_symmetric(f)
    if f.degree() > max_degree:
        raise ValueError("field degree exceeds the requested bound")
    key_pos, mon_pos, per_key = _coordinate_positions(f.n, f.arity, max_degree)
    out = [Fraction(0)] * (len(key_pos) * per_key)
    for idx, s in f.comps.items():
        base = key_pos.get(idx)
        if base is None:
            continue  # an unsorted copy of a stored sorted key
        for m, v in s.terms.items():
            out[base * per_key + mon_pos[m]] = v
    return out


def field_from_coefficients(n: int, arity: int, max_degree: int, vec) -> PolyTensorField:
    """The symmetric field with the sparse coefficient vector vec, a dict
    from positions in ``symmetric_coordinates`` to values."""
    coords = symmetric_coordinates(n, arity, max_degree)
    per_key: dict = {}
    for i, v in sorted(vec.items()):
        if not 0 <= i < len(coords):
            raise ValueError(f"coefficient position {i} outside 0..{len(coords) - 1}")
        if v:
            key, m = coords[i]
            per_key.setdefault(key, {})[m] = Fraction(v)
    comps = {}
    for key, terms in per_key.items():
        p = PolyScalar(n, terms)
        for perm in set(permutations(key)):
            comps[perm] = p
    return PolyTensorField(n, arity, comps)


@cache
def _operator_matrix(n: int, ell: int, max_degree: int) -> ExactMatrix:
    """Degree-ell operator on coefficient vectors, columns = inputs;
    entries by the symmetrized-gradient rule of the module docstring."""
    key_pos, mon_pos, per_key = _coordinate_positions(n, ell + 1, max_degree - 1)
    mons = monomials(n, max_degree)
    entries: dict = {}
    col = 0
    for key in _sym_keys(n, ell):
        for mono in mons:
            for c in range(1, n + 1):
                a = mono[c - 1]
                if a:
                    lower = mono[: c - 1] + (a - 1,) + mono[c:]
                    row = key_pos[tuple(sorted(key + (c,)))] * per_key + mon_pos[lower]
                    entries[(row, col)] = Fraction((key.count(c) + 1) * a, ell + 1)
            col += 1
    return ExactMatrix(len(key_pos) * per_key, col, entries)


@cache
def killing_kernel_vectors(n: int, ell: int, max_degree: int) -> tuple[dict, ...]:
    """Canonical basis of symmetric solutions with entries of bounded
    degree, as sparse vectors on ``symmetric_coordinates(n, ell, max_degree)``.
    Memoized: callers must not mutate the returned vectors.

    Requires max_degree >= ell; the kernel is degree-graded and every
    solution in it has entry degree at most ell, so any bound past that
    returns the same subspace in bigger coordinates.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if max_degree < ell:
        raise ValueError("max_degree must be at least ell")
    return tuple(kernel_basis(_operator_matrix(n, ell, max_degree)))


def killing_kernel(n: int, ell: int, max_degree: int) -> list[PolyTensorField]:
    """The fields of ``killing_kernel_vectors``."""
    return [
        field_from_coefficients(n, ell, max_degree, vec)
        for vec in killing_kernel_vectors(n, ell, max_degree)
    ]


def _guard_killing_cap(n: int, ell: int) -> int:
    """Refuse a killing-family size whose largest system has more columns
    than ``DEFAULT_CAP``; returns that column count.  Closed forms only, so it
    runs before anything is realized: the parallel-section system has
    dim T * |monomials(n, ell)| columns, dim T the hook-content dimension
    of (ell, ell) over n + 1, and the degree-bound kernel
    C(n + ell - 1, ell) * |monomials(n, ell + 2)|.
    """
    _check_args(n, ell)
    columns = max(
        gl_dimension(YoungDiagram((ell, ell)), n + 1) * comb(n + ell, n),
        comb(n + ell - 1, ell) * comb(n + ell + 2, n),
    )
    if columns > DEFAULT_CAP:
        raise CapExceeded(
            f"killing checks for n={n}, ell={ell} build a system with "
            f"{columns} columns, cap is {DEFAULT_CAP}"
        )
    return columns


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


def _second_derivatives(mono):
    """(p, q, coefficient, exponent) of every nonzero d_p d_q x^mono."""
    n = len(mono)
    out = []
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            lower = list(mono)
            coef = lower[p - 1]
            lower[p - 1] -= 1
            coef *= lower[q - 1]
            lower[q - 1] -= 1
            if coef:
                out.append((p, q, coef, tuple(lower)))
    return out


@cache
def _obstruction_matrix(n: int, max_degree: int) -> ExactMatrix:
    """Obstruction on symmetric 2-tensor coefficients, by the rule of the
    module docstring; rows are (a, b, c, d) in lexicographic order, then
    the monomials of degree <= max(max_degree - 2, 0)."""
    mons = monomials(n, max(max_degree - 2, 0))
    mpos = {m: i for i, m in enumerate(mons)}
    entries: dict = {}
    col = 0
    for (i, j), mono in symmetric_coordinates(n, 2, max_degree):
        derivs = _second_derivatives(mono)
        acc: dict = {}
        for u, v in {(i, j), (j, i)}:
            for p, q, coef, lower in derivs:
                for (a, b, c, d), sign in (
                    ((p, u, q, v), 1),
                    ((u, p, q, v), -1),
                    ((p, u, v, q), -1),
                    ((u, p, v, q), 1),
                ):
                    idx = (((a - 1) * n + b - 1) * n + c - 1) * n + d - 1
                    r = idx * len(mons) + mpos[lower]
                    acc[r] = acc.get(r, 0) + sign * coef
        for r, value in acc.items():
            if value:
                entries[(r, col)] = Fraction(value)
        col += 1
    return ExactMatrix((n ** 4) * len(mons), col, entries)


def integrability_kernel(n: int, max_degree: int) -> list[PolyTensorField]:
    """Canonical basis of symmetric 2-tensor fields killed by the
    obstruction, entries of degree <= max_degree."""
    m = _obstruction_matrix(n, max_degree)
    return [
        field_from_coefficients(n, 2, max_degree, vec)
        for vec in kernel_basis(m)
    ]


def integrability_of_killing_matrix(n: int, max_degree: int) -> ExactMatrix:
    """Matrix of the composite obstruction-after-symmetrized-gradient.

    The product of the two independently built operator matrices; it is
    zero exactly when the obstruction annihilates every symmetrized
    gradient of degree <= max_degree (max_degree >= 1).
    """
    return _obstruction_matrix(n, max_degree - 1) * _operator_matrix(n, 1, max_degree)


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
    vec = {p: y[i] for i, p in enumerate(a_pivots) if i in y}
    x = field_from_coefficients(n, 1, degree, vec)
    if killing_operator(x) != omega:
        raise RuntimeError("potential failed its round-trip check")
    return KillingPotentialResult(True, potential=x)
