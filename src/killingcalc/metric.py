"""Exactly-represented metrics and their Levi-Civita calculus on fields.

Metric models: the flat delta, the conformally flat constant-curvature
form 4/(1 + kappa |x|^2)^2 delta with rational kappa, and second-order
Taylor samples built from raw jet values at the origin by
``MetricField.from_jet2(n, g0, dg0, ddg0)``, the jets being plain dicts
as in :mod:`killingcalc.fields`.  Their
components are polynomials, or rational functions when a non-flat metric
forces division.

The rational functions are this module's ``RatScalar``: it keeps its
denominator as a product of content-normalized polynomial atoms with
integer powers, and arithmetic cancels atoms against the numerator by
exact division, so denominators never grow past the atoms actually
introduced (conformal factors, determinants).  Equality is decided by
cross multiplication and needs no gcd.  A RatScalar takes PolyScalar
operands, and a PolyScalar hands it any mixed sum or product, so fields
hold both kinds (see :mod:`killingcalc.poly`).  Only metrics build
rational entries, so the commands that never read a metric never
compile this class.

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

import operator
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product
from math import gcd

from killingcalc.fields import _coordinate_derivative, _jet_values, delta_field, perm_sign
from killingcalc.poly import PolyScalar, PolyTensorField

__all__ = [
    "RatScalar",
    "MetricField",
    "christoffel_field",
    "covariant_derivative",
    "riemann",
]


def _atom_key(p: PolyScalar):
    return tuple(sorted(p.terms.items()))


def _normalize_atom(p: PolyScalar) -> tuple[PolyScalar, Fraction]:
    """Scale to coprime integer coefficients with positive leading one.

    Returns the atom and the factor r with input = r * atom.
    """
    if p.is_zero():
        raise ZeroDivisionError("denominator is the zero polynomial")
    den_lcm = 1
    for c in p.terms.values():
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    num_gcd = 0
    for c in p.terms.values():
        num_gcd = gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
    r = Fraction(num_gcd, den_lcm)
    if p.leading()[1] < 0:
        r = -r
    return p.scale(1 / r), r


class RatScalar:
    """Exact rational function with a factored denominator."""

    __slots__ = ("num", "factors")

    def __init__(self, num: PolyScalar, factors=()):
        if not isinstance(num, PolyScalar):
            raise TypeError("numerator must be a polynomial")
        flist = []
        for f, k in factors:
            if not isinstance(f, PolyScalar) or f.n != num.n:
                raise ValueError("factor from a different ring")
            k = operator.index(k)
            if k < 0:
                raise ValueError("factor powers must be nonnegative")
            if k:
                flist.append((f, k))
        self.num = num
        self.factors = tuple(
            sorted(flist, key=lambda fk: _atom_key(fk[0]))
        )
        self._cancel()

    def _cancel(self) -> None:
        if self.num.is_zero():
            self.factors = ()
            return
        out = []
        num = self.num
        for f, k in self.factors:
            while k > 0:
                q = num.exact_div(f)
                if q is None:
                    break
                num, k = q, k - 1
            if k:
                out.append((f, k))
        self.num = num
        self.factors = tuple(out)

    def _with_num(self, num: PolyScalar) -> "RatScalar":
        """num over this denominator, for num a constant multiple of this
        numerator.  No factor left here divides this numerator, so none
        divides a nonzero multiple of it either, and ``_cancel`` would
        find nothing to divide."""
        out = object.__new__(RatScalar)
        out.num = num
        out.factors = self.factors if not num.is_zero() else ()
        return out

    @property
    def n(self) -> int:
        return self.num.n

    @property
    def den(self) -> PolyScalar:
        out = PolyScalar.const(self.num.n, 1)
        for f, k in self.factors:
            for _ in range(k):
                out = out.mul(f)
        return out

    @classmethod
    def const(cls, n: int, c) -> "RatScalar":
        return cls(PolyScalar.const(n, c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _merged_factors(self, other: "RatScalar"):
        """Common denominator: per-atom max power and the two multipliers,
        None where a multiplier is the constant 1."""
        mine = {_atom_key(f): (f, k) for f, k in self.factors}
        theirs = {_atom_key(f): (f, k) for f, k in other.factors}
        union = []
        lift_a = lift_b = None
        for key in sorted(set(mine) | set(theirs)):
            f, ka = mine.get(key, (None, 0))
            fb, kb = theirs.get(key, (None, 0))
            f = f if f is not None else fb
            k = max(ka, kb)
            union.append((f, k))
            for _ in range(k - ka):
                lift_a = f if lift_a is None else lift_a.mul(f)
            for _ in range(k - kb):
                lift_b = f if lift_b is None else lift_b.mul(f)
        return union, lift_a, lift_b

    def add(self, other: "RatScalar") -> "RatScalar":
        other = _as_rat(other, self.n)
        union, la, lb = self._merged_factors(other)
        a = self.num if la is None else self.num.mul(la)
        b = other.num if lb is None else other.num.mul(lb)
        return RatScalar(a.add(b), union)

    def neg(self) -> "RatScalar":
        return self._with_num(self.num.neg())

    def sub(self, other: "RatScalar") -> "RatScalar":
        return self.add(_as_rat(other, self.n).neg())

    def scale(self, c) -> "RatScalar":
        return self._with_num(self.num.scale(c))

    def mul(self, other: "RatScalar") -> "RatScalar":
        other = _as_rat(other, self.n)
        merged: dict = {}
        for f, k in list(self.factors) + list(other.factors):
            key = _atom_key(f)
            f0, k0 = merged.get(key, (f, 0))
            merged[key] = (f0, k0 + k)
        return RatScalar(self.num.mul(other.num), list(merged.values()))

    def div(self, other: "RatScalar") -> "RatScalar":
        other = _as_rat(other, self.n)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        atom, r = _normalize_atom(other.num)
        flipped_num = PolyScalar.const(self.n, 1 / r)
        for f, k in other.factors:
            for _ in range(k):
                flipped_num = flipped_num.mul(f)
        flipped = RatScalar(
            flipped_num, [(atom, 1)] if atom.degree() > 0 else []
        )
        if atom.degree() == 0:
            flipped = RatScalar(
                flipped.num.scale(Fraction(1, atom.terms[(0,) * self.n]))
            )
        return self.mul(flipped)

    def diff(self, i: int) -> "RatScalar":
        p = self.num
        if not self.factors:
            return RatScalar(p.diff(i))
        prod_atoms = PolyScalar.const(self.n, 1)
        for f, _ in self.factors:
            prod_atoms = prod_atoms.mul(f)
        out = p.diff(i).mul(prod_atoms)
        for idx, (f, k) in enumerate(self.factors):
            rest = PolyScalar.const(self.n, 1)
            for jdx, (g, _) in enumerate(self.factors):
                if jdx != idx:
                    rest = rest.mul(g)
            out = out.sub(p.mul(f.diff(i)).mul(rest).scale(k))
        return RatScalar(out, [(f, k + 1) for f, k in self.factors])

    def eval(self, point) -> Fraction:
        den = Fraction(1)
        for f, k in self.factors:
            v = f.eval(point)
            if v == 0:
                raise ZeroDivisionError("denominator vanishes at the point")
            den *= v ** k
        return self.num.eval(point) / den

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyScalar):
            other = RatScalar(other)
        if not isinstance(other, RatScalar):
            return NotImplemented
        return self.num.mul(other.den) == other.num.mul(self.den)

    __hash__ = None

    def __repr__(self) -> str:
        if not self.factors:
            return repr(self.num)
        fac = " * ".join(
            f"({f!r})" + (f"^{k}" if k > 1 else "") for f, k in self.factors
        )
        return f"({self.num!r}) / ({fac})"


def _as_rat(v, n: int) -> RatScalar:
    if isinstance(v, RatScalar):
        return v
    if isinstance(v, PolyScalar):
        return RatScalar(v)
    return RatScalar(PolyScalar.const(n, v))


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
