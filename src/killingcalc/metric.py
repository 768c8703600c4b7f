"""Exactly-represented metrics and their Levi-Civita calculus on fields.

Metric models: the flat delta, the conformally flat constant-curvature
form 4/(1 + kappa |x|^2)^2 delta with rational kappa, and second-order
Taylor samples built from raw jet values at the origin.  Their
components are polynomials, or rational functions in factored form when
a non-flat metric forces division (see :mod:`killingcalc.fields`).

Connection coefficients on fields use the closed form
Gamma_abc = (D_a g_bc + D_b g_ac - D_c g_ab)/2, raised with the exact
inverse.  A metric computes its inverse, both forms of the coefficients
and its curvature once each, as ``functools.cached_property`` values.
No model is special-cased: when the lowered coefficients vanish, as for
the flat delta, they serve as the raised ones without an inverse being
formed, and the covariant derivative and the curvature return at once.
The model name is a label only.  All curvature conventions follow
[nabla_a, nabla_b] X^c = R_ab{}^c{}_d X^d; the stored Riemann field is
indexed (a, b, c, d) with c the raised slot.  Of the commands, only the
tractor checks read this module; the pointwise Christoffel checks work
on raw jets in :mod:`killingcalc.fields`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import permutations, product

from killingcalc.fields import PolyTensorField, _coordinate_derivative, delta_field
from killingcalc.poly import PolyScalar, RatScalar
from killingcalc.tensor import Tensor, perm_sign

__all__ = [
    "MetricField",
    "christoffel_field",
    "covariant_derivative",
    "riemann",
]


class MetricField:
    """Symmetric two-tensor with an exactly invertible component matrix."""

    def __init__(self, n: int, field: PolyTensorField, mode: str):
        if field.n != n or field.arity != 2:
            raise ValueError("metric must be an arity-2 field")
        for (a, b), s in field.comps.items():
            if s != field.at(b, a):
                raise ValueError("metric must be symmetric")
        self.n = n
        self.field = field
        self.mode = mode

    @classmethod
    def flat(cls, n: int) -> "MetricField":
        return cls(n, delta_field(n), "flat")

    @classmethod
    def stereographic(cls, n: int, kappa) -> "MetricField":
        kappa = Fraction(kappa)
        u = PolyScalar.const(n, 1)
        for i in range(1, n + 1):
            xi = PolyScalar.variable(n, i)
            u = u.add(xi.mul(xi).scale(kappa))
        comps = {}
        for i in range(1, n + 1):
            if u.degree() > 0:
                comps[(i, i)] = RatScalar(PolyScalar.const(n, 4), [(u, 2)])
            else:
                comps[(i, i)] = RatScalar.const(n, 4)
        return cls(n, PolyTensorField(n, 2, comps), "stereographic")

    @classmethod
    def from_jet2(cls, g0: Tensor, dg0: Tensor, ddg0: Tensor) -> "MetricField":
        """Second-order Taylor metric from jet values at the origin.

        dg0 is indexed (c, a, b) for the c-derivative of g_ab; ddg0 is
        (c, d, a, b), symmetric in cd and in ab.  The sample point is
        the origin, where the metric matches the given jet exactly.
        """
        n = g0.n
        if g0.arity != 2 or dg0.arity != 3 or ddg0.arity != 4:
            raise ValueError("jet arities must be 2, 3, 4")
        if dg0.n != n or ddg0.n != n:
            raise ValueError("jet base dimensions disagree")
        comps = {}
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                terms = {}
                c0 = g0.at(a, b)
                if g0.at(b, a) != c0:
                    raise ValueError("jet value tensor must be symmetric")
                if c0:
                    terms[(0,) * n] = c0
                for c in range(1, n + 1):
                    v = dg0.at(c, a, b)
                    if dg0.at(c, b, a) != v:
                        raise ValueError("first jet must be symmetric in ab")
                    if v:
                        e = tuple(1 if j == c else 0 for j in range(1, n + 1))
                        terms[e] = terms.get(e, Fraction(0)) + v
                for c in range(1, n + 1):
                    for d in range(1, n + 1):
                        v = ddg0.at(c, d, a, b)
                        if v != ddg0.at(d, c, a, b) or v != ddg0.at(c, d, b, a):
                            raise ValueError("second jet symmetry violated")
                        if v:
                            e = tuple(
                                (1 if j == c else 0) + (1 if j == d else 0)
                                for j in range(1, n + 1)
                            )
                            terms[e] = terms.get(e, Fraction(0)) + Fraction(v, 2)
                p = PolyScalar(n, terms)
                if not p.is_zero():
                    comps[(a, b)] = p
        return cls(n, PolyTensorField(n, 2, comps), "sample")

    def inverse(self) -> PolyTensorField:
        """Inverse component matrix; its entries are rational functions."""
        return self._inverse

    @cached_property
    def _inverse(self) -> PolyTensorField:
        n = self.n
        entries = [[self.field.at(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
        det = _determinant(n, entries)
        if det.is_zero():
            raise ValueError("metric is not invertible")
        comps = {}
        for i, j in product(range(n), repeat=2):
            # entry (i, j) is the (j, i) cofactor over the determinant
            minor = [row[:i] + row[i + 1:] for row in entries[:j] + entries[j + 1:]]
            comps[(i + 1, j + 1)] = _determinant(n, minor).scale((-1) ** (i + j)).div(det)
        return PolyTensorField(n, 2, comps)

    @cached_property
    def _christoffel(self) -> PolyTensorField:
        n = self.n
        dg = _coordinate_derivative(self.field)
        comps = {}
        for a, b, c in product(range(1, n + 1), repeat=3):
            v = dg.at(a, b, c).add(dg.at(b, a, c)).sub(dg.at(c, a, b)).scale(Fraction(1, 2))
            if not v.is_zero():
                comps[(a, b, c)] = v
        return PolyTensorField(n, 3, comps)

    @cached_property
    def _christoffel_up(self) -> PolyTensorField:
        """Entry (a, b, c) = Gamma_ab^c.  When the lowered coefficients
        vanish they are returned as they are, and no inverse is formed."""
        low = self._christoffel
        if low.is_zero():
            return low
        n = self.n
        inv = self.inverse()
        comps = {}
        for a, b, c in product(range(1, n + 1), repeat=3):
            total = None
            for d in range(1, n + 1):
                lo = low.at(a, b, d)
                gi = inv.at(c, d)
                if lo.is_zero() or gi.is_zero():
                    continue
                term = gi.mul(lo)
                total = term if total is None else total.add(term)
            if total is not None:
                comps[(a, b, c)] = total
        return PolyTensorField(n, 3, comps)

    @cached_property
    def _riemann(self) -> PolyTensorField:
        n = self.n
        gamma = self._christoffel_up
        if gamma.is_zero():
            return PolyTensorField.zero(n, 4)
        dgamma = _coordinate_derivative(gamma)
        comps: dict = {}
        for a, b, c, d in product(range(1, n + 1), repeat=4):
            if a == b:
                continue
            total = dgamma.at(a, b, d, c).sub(dgamma.at(b, a, d, c))
            for e in range(1, n + 1):
                t1a, t1b = gamma.at(a, e, c), gamma.at(b, d, e)
                if not (t1a.is_zero() or t1b.is_zero()):
                    total = total.add(t1a.mul(t1b))
                t2a, t2b = gamma.at(b, e, c), gamma.at(a, d, e)
                if not (t2a.is_zero() or t2b.is_zero()):
                    total = total.sub(t2a.mul(t2b))
            comps[(a, b, c, d)] = total
        return PolyTensorField(n, 4, comps)


def _determinant(n: int, rows) -> RatScalar:
    """Permutation expansion of the determinant of a square list of rows of
    scalars in n variables; the empty matrix has determinant 1."""
    total = RatScalar.const(n, 0)
    for perm in permutations(range(len(rows))):
        term = RatScalar.const(n, perm_sign(perm))
        for row, j in zip(rows, perm):
            term = term.mul(row[j])
        total = total.add(term)
    return total


def christoffel_field(g: MetricField) -> PolyTensorField:
    """All-lower connection coefficients of the metric, indexed (a, b, c)."""
    return g._christoffel


def covariant_derivative(f: PolyTensorField, g: MetricField, variance=None) -> PolyTensorField:
    """Levi-Civita derivative, new lower index first.

    variance marks each existing slot '-' (lower, default) or '+'
    (upper); the correction is -Gamma for lower slots, +Gamma for upper.
    """
    if f.n != g.n:
        raise ValueError("field and metric dimensions disagree")
    variance = tuple(variance or "-" * f.arity)
    if len(variance) != f.arity or any(v not in "+-" for v in variance):
        raise ValueError("variance must mark each slot '+' or '-'")
    out = _coordinate_derivative(f)
    gamma = g._christoffel_up
    if gamma.is_zero():
        return out
    n = f.n
    corrections: dict = {}
    for idx, s in f.comps.items():
        for a in range(1, n + 1):
            for j, var in enumerate(variance):
                for e in range(1, n + 1):
                    if var == "-":
                        coef = gamma.at(a, e, idx[j])
                        sign = -1
                    else:
                        coef = gamma.at(a, idx[j], e)
                        sign = 1
                    if coef.is_zero():
                        continue
                    tgt = (a,) + idx[:j] + (e,) + idx[j + 1 :]
                    term = coef.mul(s).scale(sign)
                    cur = corrections.get(tgt)
                    corrections[tgt] = term if cur is None else cur.add(term)
    return out.add(PolyTensorField(n, f.arity + 1, corrections))


def riemann(g: MetricField) -> PolyTensorField:
    """Curvature R_ab{}^c{}_d as a field indexed (a, b, c, d)."""
    return g._riemann
