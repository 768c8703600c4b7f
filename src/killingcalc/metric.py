"""Exactly-represented metrics and their Levi-Civita calculus on fields.

Metric models: the flat delta, the conformally flat constant-curvature
form 4/(1 + kappa |x|^2)^2 delta with rational kappa, and second-order
Taylor samples built from raw jet values at the origin by
``MetricField.from_jet2(n, g0, dg0, ddg0)``, the jets being plain dicts
as in :mod:`killingcalc.fields`.  Their components are polynomials, or
rational functions when a non-flat metric forces division.

The rational functions are this module's ``RatScalar``: P / D^k with
one monic denominator D per metric and k least, so ``==`` compares
(P, k).  A metric with entries in Q[x][1/D] keeps its inverse,
connection coefficients and curvature there, since d(P/D^k) =
(D dP - k P dD)/D^(k+1).  D is the stereographic conformal factor, or,
for a polynomial metric, the monic determinant its inverse divides by.
Two different denominators, or a division by anything but a unit c D^j,
raise ``ValueError``; no command meets either.  A RatScalar takes
PolyScalar operands, and a PolyScalar hands it any mixed sum or product,
so fields hold both kinds (see :mod:`killingcalc.poly`).  Only metrics
build rational entries, so the commands that never read a metric never
compile this class.

Connection coefficients on fields use the closed form
Gamma_abc = (d_a g_bc + d_b g_ac - d_c g_ab)/2, raised with the exact
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

import operator
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product

from killingcalc.fields import _coordinate_derivative, _jet_values, delta_field, perm_sign
from killingcalc.poly import PolyScalar, PolyTensorField, _fr

__all__ = [
    "RatScalar",
    "MetricField",
    "christoffel_field",
    "covariant_derivative",
    "riemann",
]


def _lift(p: PolyScalar, den: PolyScalar, j: int) -> PolyScalar:
    """p * den^j."""
    for _ in range(j):
        p = p.mul(den)
    return p


def _over(num: PolyScalar, den: PolyScalar, k: int) -> "RatScalar":
    """num / den^k with k lowered while den divides num."""
    while k:
        q = num.exact_div(den)
        if q is None:
            break
        num, k = q, k - 1
    return RatScalar._of(num, den, k)


class RatScalar:
    """Exact rational function P / D^k, D monic and k least, so D does
    not divide P when k > 0.  D = 1 is no denominator and gives way to
    the D of the other operand."""

    __slots__ = ("num", "den", "k")

    def __init__(self, num: PolyScalar, den: PolyScalar | None = None, k: int = 0):
        if not isinstance(num, PolyScalar):
            raise TypeError("numerator must be a polynomial")
        if den is None:
            den = PolyScalar.const(num.n, 1)
        elif not isinstance(den, PolyScalar) or den.n != num.n:
            raise ValueError("denominator from a different ring")
        elif den.is_zero() or den.leading()[1] != 1:
            raise ValueError("denominator must be monic")
        k = operator.index(k)
        if k < 0:
            raise ValueError("denominator power must be nonnegative")
        r = _over(num, den, k)
        self.num, self.den, self.k = r.num, den, r.k

    @staticmethod
    def _of(num: PolyScalar, den: PolyScalar, k: int) -> "RatScalar":
        """num / den^k as given, with none of the constructor's checks:
        the caller guarantees the form is canonical."""
        out = object.__new__(RatScalar)
        out.num, out.den, out.k = num, den, k
        return out

    @property
    def n(self) -> int:
        return self.num.n

    @classmethod
    def const(cls, n: int, c) -> "RatScalar":
        return cls(PolyScalar.const(n, c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _operand(self, other) -> tuple["RatScalar", PolyScalar]:
        """other as a RatScalar, and the denominator the two share."""
        if isinstance(other, PolyScalar):
            return RatScalar._of(other, self.den, 0), self.den
        d, e = self.den, other.den
        if d is e or e.degree() == 0 or d == e:
            return other, d
        if d.degree() == 0:
            return other, e
        raise ValueError("rational functions over different denominators")

    def add(self, other) -> "RatScalar":
        other, d = self._operand(other)
        k = max(self.k, other.k)
        a, b = _lift(self.num, d, k - self.k), _lift(other.num, d, k - other.k)
        return _over(a.add(b), d, k)

    def neg(self) -> "RatScalar":
        return RatScalar._of(self.num.neg(), self.den, self.k)

    def sub(self, other) -> "RatScalar":
        return self.add(other.neg())

    def scale(self, c) -> "RatScalar":
        num = self.num.scale(c)
        return RatScalar._of(num, self.den, self.k if num.terms else 0)

    def mul(self, other) -> "RatScalar":
        other, d = self._operand(other)
        return _over(self.num.mul(other.num), d, self.k + other.k)

    def div(self, other) -> "RatScalar":
        """The quotient by a unit c D^j.  With no denominator on either
        side, the divisor's monic form becomes D."""
        other, d = self._operand(other)
        q = other.num
        if q.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        if d.degree() == 0 and q.degree() > 0:
            d = q.scale(1 / q.leading()[1])
        j = 0
        while q.degree() > 0:
            q = q.exact_div(d)
            if q is None:
                raise ValueError("division by a rational function that is not a unit")
            j += 1
        # self / other = num D^other.k / (c D^(self.k + j))
        num, k = self.num.scale(1 / q.terms[(0,) * self.n]), self.k + j - other.k
        if k < 0:
            num, k = _lift(num, d, -k), 0
        return _over(num, d, k)

    def diff(self, i: int) -> "RatScalar":
        p, d, k = self.num, self.den, self.k
        if not k:
            return RatScalar._of(p.diff(i), d, 0)
        # (P / D^k)' = (D P' - k P D') / D^(k+1)
        return _over(d.mul(p.diff(i)).sub(p.mul(d.diff(i)).scale(k)), d, k + 1)

    def eval(self, point) -> Fraction:
        den = self.den.eval(point) ** self.k if self.k else 1
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the point")
        return self.num.eval(point) / den

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PolyScalar, RatScalar)):
            return NotImplemented
        other, _ = self._operand(other)
        return self.k == other.k and self.num == other.num

    __hash__ = None

    def __repr__(self) -> str:
        if not self.k:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})" + (f"^{self.k}" if self.k > 1 else "")


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
        n, kappa = operator.index(n), _fr(kappa)
        u = PolyScalar.const(n, 1)
        for i in range(1, n + 1):
            xi = PolyScalar.variable(n, i)
            u = u.add(xi.mul(xi).scale(kappa))
        # 4 / u^2 over the monic D = u / lc; kappa = 0 leaves D = 1
        lc = u.leading()[1]
        entry = RatScalar(PolyScalar.const(n, 4 / lc ** 2), u.scale(1 / lc), 2)
        comps = {(i, i): entry for i in range(1, n + 1)}
        return cls(n, PolyTensorField(n, 2, comps), "stereographic")

    @classmethod
    def from_jet2(cls, n: int, g0: dict, dg0: dict, ddg0: dict) -> "MetricField":
        """Second-order Taylor metric from jet values at the origin.

        The jets are dicts from index tuples to int or ``Fraction``
        values, as in :mod:`killingcalc.fields`: g0 is indexed (a, b),
        dg0 (c, a, b) for the c-derivative of g_ab, and ddg0 (c, d, a, b),
        symmetric in cd and in ab.  The sample point is the origin, where
        the metric matches the given jet exactly.
        """
        g0, dg0, ddg0 = (_jet_values(n, j, k) for j, k in ((g0, 2), (dg0, 3), (ddg0, 4)))
        comps = {}
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                terms = {}
                c0 = g0.get((a, b), 0)
                if g0.get((b, a), 0) != c0:
                    raise ValueError("jet value tensor must be symmetric")
                if c0:
                    terms[(0,) * n] = c0
                for c in range(1, n + 1):
                    v = dg0.get((c, a, b), 0)
                    if dg0.get((c, b, a), 0) != v:
                        raise ValueError("first jet must be symmetric in ab")
                    if v:
                        e = tuple(1 if j == c else 0 for j in range(1, n + 1))
                        terms[e] = terms.get(e, Fraction(0)) + v
                for c in range(1, n + 1):
                    for d in range(1, n + 1):
                        v = ddg0.get((c, d, a, b), 0)
                        if v != ddg0.get((d, c, a, b), 0) or v != ddg0.get((c, d, b, a), 0):
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
