"""The range of the symmetrized gradient: obstruction and potential.

``range-check`` needs only this module and the fields of ``poly``; it
compiles no field calculus, and nothing here builds a matrix.  The
second-order obstruction N takes a symmetric 2-tensor omega to

    N_abcd = d_a d_c w_bd - d_b d_c w_ad - d_a d_d w_bc + d_b d_d w_ac,

which annihilates every symmetrized gradient; a nonzero N value is a
concrete certificate that no potential exists.  N is evaluated on
omega's own terms, by the per-term rule below, from which
``killing._obstruction_matrix`` is written too.

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

Both operators act term by term, by closed-form coefficient rules that
``killing`` writes its operator matrices from:

* Symmetrized gradient, degree ell: input coordinate (K, alpha) goes,
  for each direction c with alpha_c > 0, to (sorted(K + c), alpha - e_c)
  with value (mult_K(c) + 1) * alpha_c / (ell + 1).  Averaging the
  derivative over the ell + 1 slots, the arrangements with c in the
  derivative slot number (mult_K(c) + 1) * ell!.
* Obstruction: the unit tensor with x^alpha at (i, j) and (j, i) is
  differentiated twice; d_p d_q x^alpha = coef * x^beta of entry (u, v)
  adds +coef at (p, u, q, v), -coef at (u, p, q, v), -coef at
  (p, u, v, q) and +coef at (u, p, v, q), one for each term of N.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import lcm

from killingcalc.poly import PolyScalar, PolyTensorField

__all__ = [
    "integrability_operator",
    "KillingPotentialResult",
    "killing_potential_solve",
]


def _require_symmetric(f: PolyTensorField) -> None:
    """Raise unless every stored entry equals the stored entry at each
    permutation of its index; a permutation with no stored entry differs."""
    if f.arity >= 2 and any(
        f.comps.get(perm) != s for idx, s in f.comps.items() for perm in permutations(idx)
    ):
        raise ValueError("field is not symmetric in all slots")


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
        raise ValueError("obstruction applies to polynomial fields")
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


def killing_potential_solve(omega: PolyTensorField) -> KillingPotentialResult:
    """Invert the symmetrized gradient, or certify that none exists.

    The obstruction is evaluated first; a nonzero value is returned as
    the certificate.  A vanishing obstruction guarantees solvability, so
    a potential that fails its round trip raises instead of returning.
    """
    if omega.arity != 2:
        raise ValueError("expected an arity-2 field")
    if omega.rational:
        raise ValueError("potential solve applies to polynomial fields")
    n = omega.n
    if omega.is_zero():
        return KillingPotentialResult(True, PolyTensorField.zero(n, 1))
    cert = integrability_operator(omega)
    if not cert.is_zero():
        return KillingPotentialResult(False, certificate=cert)
    x = _radial_potential(omega)
    if not _is_symmetrized_gradient(x, omega):
        raise RuntimeError("potential failed its round-trip check")
    return KillingPotentialResult(True, potential=x)
