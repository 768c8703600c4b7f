"""Exact multivariate polynomial and rational-function scalars.

PolyScalar is a sparse exponent-vector map with Fraction coefficients.
RatScalar keeps its denominator as a product of content-normalized
polynomial atoms with integer powers; arithmetic cancels atoms against
the numerator by exact division, so denominators never grow past the
atoms actually introduced (metric conformal factors, determinants).
Equality is decided by cross multiplication and needs no gcd.

The two kinds mix freely: a PolyScalar given a RatScalar operand hands
the sum or product to RatScalar, which takes PolyScalar operands, and
``==`` compares either kind with either.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["PolyScalar", "RatScalar", "monomials"]


def _fr(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected a rational coefficient, got {type(v).__name__}")


def monomials(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree up to the bound, graded then lex."""
    if n < 1 or max_degree < 0:
        raise ValueError("need n >= 1 and max_degree >= 0")
    out = [()]
    for _ in range(n):
        out = [e + (k,) for e in out for k in range(max_degree + 1 - sum(e))]
    return sorted(out, key=lambda e: (sum(e), e))


class PolyScalar:
    """Polynomial in n variables with exact rational coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = n
        clean: dict[tuple[int, ...], Fraction] = {}
        for exp, c in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            c = _fr(c)
            if c:
                clean[exp] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "PolyScalar":
        return cls(n)

    @classmethod
    def const(cls, n: int, c) -> "PolyScalar":
        return cls(n, {(0,) * n: _fr(c)})

    @classmethod
    def variable(cls, n: int, i: int) -> "PolyScalar":
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside 1..{n}")
        exp = tuple(1 if j == i else 0 for j in range(1, n + 1))
        return cls(n, {exp: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        return max((sum(e) for e in self.terms), default=-1)

    def _same(self, other: "PolyScalar") -> None:
        if not isinstance(other, PolyScalar) or other.n != self.n:
            raise ValueError("mixed polynomial rings")

    def add(self, other: "PolyScalar | RatScalar") -> "PolyScalar | RatScalar":
        if isinstance(other, RatScalar):
            return RatScalar(self).add(other)
        self._same(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            w = out.get(e, Fraction(0)) + c
            if w:
                out[e] = w
            else:
                out.pop(e, None)
        return PolyScalar(self.n, out)

    def neg(self) -> "PolyScalar":
        return PolyScalar(self.n, {e: -c for e, c in self.terms.items()})

    def sub(self, other: "PolyScalar | RatScalar") -> "PolyScalar | RatScalar":
        return self.add(other.neg())

    def scale(self, c) -> "PolyScalar":
        c = _fr(c)
        return PolyScalar(self.n, {e: c * v for e, v in self.terms.items()})

    def mul(self, other: "PolyScalar | RatScalar") -> "PolyScalar | RatScalar":
        if isinstance(other, RatScalar):
            return RatScalar(self).mul(other)
        self._same(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                w = out.get(e, Fraction(0)) + c1 * c2
                if w:
                    out[e] = w
                else:
                    out.pop(e, None)
        return PolyScalar(self.n, out)

    def diff(self, i: int) -> "PolyScalar":
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} outside 1..{self.n}")
        out = {}
        for e, c in self.terms.items():
            k = e[i - 1]
            if k:
                out[e[: i - 1] + (k - 1,) + e[i:]] = c * k
        return PolyScalar(self.n, out)

    def eval(self, point) -> Fraction:
        point = [_fr(p) for p in point]
        if len(point) != self.n:
            raise ValueError("evaluation point has wrong length")
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for p, k in zip(point, e):
                v *= p ** k
            total += v
        return total

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def exact_div(self, other: "PolyScalar") -> "PolyScalar | None":
        """Quotient if the division is exact, else None."""
        self._same(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        le, lc = other.leading()
        rem = dict(self.terms)
        quot: dict[tuple[int, ...], Fraction] = {}
        while rem:
            e = max(rem)
            q = tuple(a - b for a, b in zip(e, le))
            if any(k < 0 for k in q):
                return None
            c = rem[e] / lc
            quot[q] = c
            for e2, c2 in other.terms.items():
                t = tuple(a + b for a, b in zip(q, e2))
                w = rem.get(t, Fraction(0)) - c * c2
                if w:
                    rem[t] = w
                else:
                    rem.pop(t, None)
        return PolyScalar(self.n, quot)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyScalar):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            mono = "*".join(
                f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


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
            if k < 0:
                raise ValueError("factor powers must be nonnegative")
            if k:
                flist.append((f, int(k)))
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
        return RatScalar(self.num.neg(), self.factors)

    def sub(self, other: "RatScalar") -> "RatScalar":
        return self.add(_as_rat(other, self.n).neg())

    def scale(self, c) -> "RatScalar":
        return RatScalar(self.num.scale(c), self.factors)

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
    return RatScalar(PolyScalar.const(n, _fr(v)))
