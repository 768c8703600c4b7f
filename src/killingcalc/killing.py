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
concrete certificate that no potential exists.  N is evaluated on
omega's own terms, by the same per-term rule the obstruction matrix is
written from (below).

When N vanishes the potential comes from the prolongation of
sym d X = omega, the closed system

    d_a X_b = w_ab + mu_ab,    d_c mu_ab = d_a w_bc - d_b w_ac,

with mu skew.  Its integrability condition is N = 0, so both equations
integrate along rays from the origin (the Cesaro-Volterra formula of
linear elasticity): F(x) = F(0) + int_0^1 x^c (d_c F)(tx) dt, and a
monomial m of degree k gives int_0^1 m(tx) dt = m(x) / (k + 1).  The
initial values are X(0) = 0, mu_ab(0) = -w_ab(0) for a < b and
mu_ba(0) = +w_ab(0), so the coefficient of x_a in X_b is 0 for every
a < b.  Those coefficients and the constants are exactly the free
columns of the arity-1 operator matrix (the Killing vectors are the
translations and the rotations x_a e_b - x_b e_a), so the potential is
that matrix's free-variables-zero solution, with no linear solve.  The
identity sym d X == omega, checked exactly on X's terms by the
symmetrized-gradient rule below, certifies every returned potential.

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
from math import comb, lcm

from killingcalc.cap import DEFAULT_CAP, CapExceeded, _check_args
from killingcalc.fields import (
    PolyTensorField,
    flat_derivative,
    symmetrize_field,
)
from killingcalc.matrix import ExactMatrix, kernel_basis
from killingcalc.poly import PolyScalar, monomials

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

# Limits of the killing family, in place of the shared DEFAULT_CAP.  The
# parallel-section system is written in component coordinates, so its
# cost follows its columns: n=4, ell=4 (34300 columns) and n=5, ell=3
# (27440) run in seconds; n=6, ell=3 (98784) and n=5, ell=4 (222264) do
# not.  The kernel fields cost the most at small n and large ell: the
# whole family takes about 3 s at n=2, ell=12 (372736 field entries) and
# 23 s at n=2, ell=15 (4456448).
KILLING_CAP = 40000
KILLING_FIELD_CAP = 400000


def _require_symmetric(f: PolyTensorField) -> None:
    """Raise unless every stored entry equals the stored entry at each
    permutation of its index; a permutation with no stored entry differs."""
    if f.arity >= 2 and any(
        f.comps.get(perm) != s for idx, s in f.comps.items() for perm in permutations(idx)
    ):
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
        for perm in _orderings(key):
            comps[perm] = p
    return PolyTensorField(n, arity, comps)


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


@cache
def _operator_matrix(n: int, ell: int, max_degree: int) -> ExactMatrix:
    """Degree-ell operator on coefficient vectors, columns = inputs;
    entries by the symmetrized-gradient rule of the module docstring,
    written as the integers (mult_K(c) + 1) * alpha_c over scale ell + 1."""
    key_pos, mon_pos, per_key = _coordinate_positions(n, ell + 1, max_degree - 1)
    mons = monomials(n, max_degree)
    data: list[dict[int, int]] = [{} for _ in range(len(key_pos) * per_key)]
    col = 0
    for key in _sym_keys(n, ell):
        for mono in mons:
            for up, lower, coef in _gradient_terms(key, mono):
                data[key_pos[up] * per_key + mon_pos[lower]][col] = coef
            col += 1
    return ExactMatrix.from_int_rows(col, data, ell + 1)


def _gradient_terms(key, mono):
    """(sorted(key + (c,)), exponent, integer coefficient) of every term
    the unit symmetric field x^mono at key adds to its symmetrized
    gradient, over the scale ell + 1 (ell = len(key)): the rule of the
    module docstring, (mult_key(c) + 1) * mono_c at mono - e_c for each
    direction c with mono_c > 0."""
    for c, a in enumerate(mono, 1):
        if a:
            lower = mono[: c - 1] + (a - 1,) + mono[c:]
            yield tuple(sorted(key + (c,))), lower, (key.count(c) + 1) * a


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
    than ``KILLING_CAP``, or whose kernel fields have more entries than
    ``KILLING_FIELD_CAP``; returns the column count.  Closed forms only, so
    it runs before anything is realized: the parallel-section system has
    dim T * |monomials(n, ell)| columns, dim T the hook-content dimension
    of (ell, ell) over n + 1, and the degree-bound kernel
    C(n + ell - 1, ell) * |monomials(n, ell + 2)|.  The dim check writes
    its dim T kernel fields at every index tuple, at most dim T * n^ell
    entries, which grows past the columns when n is small and ell large.
    The degree-bound count, binomials only, is tested first: the
    hook-content product is quadratic in ell and runs only on sizes that
    count admits.
    """
    from killingcalc.young import YoungDiagram, gl_dimension

    _check_args(n, ell)
    columns = comb(n + ell - 1, ell) * comb(n + ell + 2, n)
    if columns <= KILLING_CAP:
        dim = gl_dimension(YoungDiagram((ell, ell)), n + 1)
        columns = max(columns, dim * comb(n + ell, n))
    if columns > KILLING_CAP:
        raise CapExceeded(
            f"killing checks for n={n}, ell={ell} build a system with "
            f"{columns} columns, cap is {KILLING_CAP}"
        )
    entries = dim * n ** ell
    if entries > KILLING_FIELD_CAP:
        raise CapExceeded(
            f"killing checks for n={n}, ell={ell} write kernel fields with "
            f"{entries} entries, cap is {KILLING_FIELD_CAP}"
        )
    return columns


def _guard_potential_cap(omega: PolyTensorField) -> int:
    """Refuse a field whose potential has more coefficients than
    ``DEFAULT_CAP``; returns that count.  The potential has degree at most
    D = deg omega + 1, so n * C(n + D, n) coefficients (the columns of
    the arity-1 operator at degree D); it is sized before the obstruction
    is evaluated.
    """
    n, degree = omega.n, omega.degree() + 1
    columns = n * comb(n + degree, n)
    if columns > DEFAULT_CAP:
        raise CapExceeded(
            f"the potential system for n={n}, degree {degree} has "
            f"{columns} columns, cap is {DEFAULT_CAP}"
        )
    return columns


@cache
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
    return tuple(out)


def _obstruction_terms(u, v, mono):
    """((a, b, c, d), exponent, integer coefficient) of every term that
    x^mono at entry (u, v) of omega, that entry alone, adds to N: each
    second derivative d_p d_q x^mono lands at the four signed index moves
    of the module docstring."""
    out = []
    for p, q, coef, lower in _second_derivatives(mono):
        out += (
            ((p, u, q, v), lower, coef),
            ((u, p, q, v), lower, -coef),
            ((p, u, v, q), lower, -coef),
            ((u, p, v, q), lower, coef),
        )
    return out


def integrability_operator(omega: PolyTensorField) -> PolyTensorField:
    """Second-order obstruction applied to a symmetric 2-tensor field,
    summed over omega's stored terms by ``_obstruction_terms``."""
    if omega.arity != 2:
        raise ValueError("expected an arity-2 field")
    if omega.rational:
        raise ValueError("obstruction applies to polynomial mode")
    _require_symmetric(omega)
    # sums run over integers: omega times the lcm of its denominators
    scale = lcm(*(w.denominator for s in omega.comps.values() for w in s.terms.values()))
    acc: dict = {}
    for (u, v), s in omega.comps.items():
        for mono, w in s.terms.items():
            w = w.numerator * (scale // w.denominator)
            for idx, lower, coef in _obstruction_terms(u, v, mono):
                terms = acc.setdefault(idx, {})
                terms[lower] = terms.get(lower, 0) + coef * w
    n = omega.n
    return PolyTensorField(n, 4, {
        idx: PolyScalar(n, {m: Fraction(c, scale) for m, c in acc[idx].items() if c})
        for idx in sorted(acc)
    })


@cache
def _obstruction_matrix(n: int, max_degree: int) -> ExactMatrix:
    """Obstruction on symmetric 2-tensor coefficients, by the rule of the
    module docstring, in integers over scale 1; rows are (a, b, c, d) in
    lexicographic order, then the monomials of degree <= max(max_degree - 2, 0)."""
    mons = monomials(n, max(max_degree - 2, 0))
    mpos = {m: i for i, m in enumerate(mons)}
    data: list[dict[int, int]] = [{} for _ in range((n ** 4) * len(mons))]
    col = 0
    for (i, j), mono in symmetric_coordinates(n, 2, max_degree):
        acc: dict = {}
        for u, v in {(i, j), (j, i)}:
            for (a, b, c, d), lower, coef in _obstruction_terms(u, v, mono):
                idx = (((a - 1) * n + b - 1) * n + c - 1) * n + d - 1
                r = idx * len(mons) + mpos[lower]
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


def _radial_potential(omega: PolyTensorField) -> PolyTensorField:
    """The potential of the module docstring: the prolonged system
    integrated along rays, term by term.

    ``grad[(a, b)]`` collects d_a X_b = w_ab + mu_ab.  For a term
    w x^mono of w_uv and each p != u with k = mono_p > 0, the derivative
    d_p w_uv has the term w k x^mono / x_p; it enters d_v mu_pu with sign +
    and d_v mu_up with sign -, and integrating along the ray multiplies it
    by x_v and divides it by deg mono.  X_b then integrates d_a X_b the
    same way, multiplying by x_a.
    """
    n = omega.n
    zero = (0,) * n
    grad: dict = {}

    def add(a, b, mono, value):
        terms = grad.setdefault((a, b), {})
        terms[mono] = terms.get(mono, 0) + value

    for (u, v), s in omega.comps.items():
        for mono, w in s.terms.items():
            add(u, v, mono, w)
            degree = sum(mono)
            for p, k in enumerate(mono, 1):
                if k and p != u:
                    moved = list(mono)
                    moved[p - 1] -= 1
                    moved[v - 1] += 1
                    moved = tuple(moved)
                    value = w * k / degree
                    add(p, u, moved, value)
                    add(u, p, moved, -value)
        if u < v and zero in s.terms:
            add(u, v, zero, -s.terms[zero])
            add(v, u, zero, s.terms[zero])
    comps: dict = {}
    for (a, b), terms in grad.items():
        out = comps.setdefault((b,), {})
        for mono, value in terms.items():
            if value:
                raised = list(mono)
                raised[a - 1] += 1
                raised = tuple(raised)
                out[raised] = out.get(raised, 0) + value / (sum(mono) + 1)
    return PolyTensorField(n, 1, {b: PolyScalar(n, terms) for b, terms in comps.items()})


def _is_symmetrized_gradient(x: PolyTensorField, omega: PolyTensorField) -> bool:
    """Whether sym d x == omega, for a covector field x and a symmetric
    2-tensor field omega, on their terms: x's terms go through
    ``_gradient_terms`` over the scale 2, and the sums are compared with
    omega's entries at sorted index pairs (omega is symmetric, as the
    obstruction checks before any potential is formed)."""
    acc: dict = {}
    for b, s in x.comps.items():
        for mono, w in s.terms.items():
            for key, lower, coef in _gradient_terms(b, mono):
                terms = acc.setdefault(key, {})
                terms[lower] = terms.get(lower, 0) + coef * w
    got = {}
    for key, terms in acc.items():
        terms = {m: v / 2 for m, v in terms.items() if v}
        if terms:
            got[key] = terms
    return got == {key: s.terms for key, s in omega.comps.items() if key[0] <= key[1]}


def killing_potential_solve(
    omega: PolyTensorField, degree_cap: int = DEFAULT_DEGREE_CAP
) -> KillingPotentialResult:
    """Invert the symmetrized gradient, or certify that none exists.

    The obstruction is evaluated first; a nonzero value is returned as
    the certificate.  A vanishing obstruction guarantees solvability, so
    a potential that fails its round trip raises instead of returning.
    """
    if omega.arity != 2:
        raise ValueError("expected an arity-2 field")
    if omega.rational:
        raise ValueError("potential solve applies to polynomial mode")
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
    x = _radial_potential(omega)
    if not _is_symmetrized_gradient(x, omega):
        raise RuntimeError("potential failed its round-trip check")
    return KillingPotentialResult(True, potential=x)
