"""Exact multivariate polynomial scalars and the tensor fields made of them.

PolyScalar is a sparse exponent-vector map with Fraction coefficients.
Rational functions (``RatScalar``) live in :mod:`killingcalc.metric`,
the only module that builds them.  The two kinds still mix freely: a
PolyScalar given an operand of another kind hands the sum or product to
that operand, which takes PolyScalar operands (both operations
commute), so this module never imports the rational one; ``==``
compares either kind with either.

PolyTensorField is a sparse map from index tuples to scalar entries.  A
field stores the entries it is given, so one field may hold both kinds,
and a missing entry reads as the zero polynomial.  A field is rational
as soon as any entry is; degrees and the JSON form are refused for
rational fields.  Its calculus (derivatives, symmetrizers) is in
:mod:`killingcalc.fields`; ``range-check`` needs this module, not that
one.
"""

from __future__ import annotations

from fractions import Fraction

from killingcalc.rationals import format_rational, parse_rational

__all__ = ["PolyScalar", "PolyTensorField", "monomials"]


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

    def add(self, other):
        """The sum; an operand of another kind computes it."""
        if not isinstance(other, PolyScalar):
            return other.add(self)
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

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c) -> "PolyScalar":
        c = _fr(c)
        return PolyScalar(self.n, {e: c * v for e, v in self.terms.items()})

    def mul(self, other):
        """The product; an operand of another kind computes it."""
        if not isinstance(other, PolyScalar):
            return other.mul(self)
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


def _json_int(value, what: str) -> int:
    """An integer of a field document; floats, strings and bools are refused
    rather than truncated or converted."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


class PolyTensorField:
    """Sparse tensor field: index tuple (1-based) -> scalar entry."""

    __slots__ = ("n", "arity", "comps")

    def __init__(self, n: int, arity: int, comps=None):
        if n < 1 or arity < 0:
            raise ValueError("need n >= 1 and arity >= 0")
        self.n = n
        self.arity = arity
        self.comps = {}
        for idx, s in (comps or {}).items():
            if len(idx) != arity or not all(1 <= i <= n for i in idx):
                raise ValueError(f"bad index tuple {idx}")
            if not s.is_zero():
                self.comps[tuple(idx)] = s

    @classmethod
    def zero(cls, n: int, arity: int) -> "PolyTensorField":
        return cls(n, arity)

    @property
    def rational(self) -> bool:
        return any(not isinstance(s, PolyScalar) for s in self.comps.values())

    def at(self, *idx):
        """The entry at idx; a missing entry is the zero polynomial."""
        return self.comps.get(idx) or PolyScalar.zero(self.n)

    def is_zero(self) -> bool:
        return not self.comps

    def add(self, other: "PolyTensorField") -> "PolyTensorField":
        self._compatible(other)
        out = dict(self.comps)
        for idx, s in other.comps.items():
            cur = out.get(idx)
            out[idx] = s if cur is None else cur.add(s)
        return PolyTensorField(self.n, self.arity, out)

    def neg(self) -> "PolyTensorField":
        return PolyTensorField(
            self.n, self.arity, {i: s.neg() for i, s in self.comps.items()}
        )

    def sub(self, other: "PolyTensorField") -> "PolyTensorField":
        return self.add(other.neg())

    def scale(self, c) -> "PolyTensorField":
        return PolyTensorField(
            self.n, self.arity, {i: s.scale(c) for i, s in self.comps.items()}
        )

    def _compatible(self, other: "PolyTensorField") -> None:
        if not isinstance(other, PolyTensorField):
            raise TypeError("expected a tensor field")
        if other.n != self.n or other.arity != self.arity:
            raise ValueError("field shape mismatch")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyTensorField):
            return NotImplemented
        if other.n != self.n or other.arity != self.arity:
            return False
        return all(self.at(*i) == other.at(*i) for i in set(self.comps) | set(other.comps))

    __hash__ = None

    def degree(self) -> int:
        """Maximal entry degree; polynomial fields only."""
        if self.rational:
            raise ValueError("degree bookkeeping applies to polynomial fields")
        return max((s.degree() for s in self.comps.values()), default=-1)

    def to_json_dict(self) -> dict:
        if self.rational:
            raise ValueError("JSON form covers polynomial fields only")
        entries = []
        for idx in sorted(self.comps):
            poly = [
                {"exp": list(e), "coef": format_rational(c)}
                for e, c in sorted(
                    self.comps[idx].terms.items(), key=lambda t: (sum(t[0]), t[0])
                )
            ]
            entries.append({"idx": list(idx), "poly": poly})
        return {"n": self.n, "arity": self.arity, "entries": entries}

    @classmethod
    def from_json_dict(cls, data) -> "PolyTensorField":
        if not isinstance(data, dict):
            raise ValueError("field document must be an object")
        try:
            n, arity, raw = data["n"], data["arity"], data["entries"]
        except KeyError as e:
            raise ValueError(f"field document missing n/arity/entries: {e}")
        n, arity = _json_int(n, "n"), _json_int(arity, "arity")
        comps = {}
        if not isinstance(raw, list):
            raise ValueError("entries must be a list")
        for item in raw:
            idx = tuple(_json_int(i, "index") for i in item["idx"])
            terms = {}
            for t in item["poly"]:
                exp = tuple(_json_int(e, "exponent") for e in t["exp"])
                if len(exp) != n:
                    raise ValueError(f"exponent vector {exp} has wrong length")
                c = parse_rational(t["coef"])
                terms[exp] = terms[exp] + c if exp in terms else c
            prev = comps.get(idx)
            p = PolyScalar(n, terms)
            comps[idx] = p if prev is None else prev.add(p)
        return cls(n, arity, comps)

    def __repr__(self) -> str:
        return (
            f"PolyTensorField(n={self.n}, arity={self.arity}, "
            f"{len(self.comps)} nonzero)"
        )
