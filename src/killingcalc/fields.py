"""Tensor fields over flat coordinates and exactly-represented metrics.

Components are polynomials, or rational functions in factored form when a
non-flat metric forces division.  A field is in rational mode as soon as
any entry is rational; modes never mix inside one field.

Metric models: the flat delta, the conformally flat constant-curvature
form 4/(1 + kappa |x|^2)^2 delta with rational kappa, and second-order
Taylor samples built from raw jet values at the origin.  All curvature
conventions follow [nabla_a, nabla_b] X^c = R_ab{}^c{}_d X^d; the stored
Riemann field is indexed (a, b, c, d) with c the raised slot.

Connection coefficients come in two independent ways: the closed form
Gamma_abc = (D_a g_bc + D_b g_ac - D_c g_ab)/2 used on fields, and a
pointwise linear solve of the torsion-free metric-compatibility system
used on raw jets.  The two are compared in tests, not merged.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations, product

from killingcalc.matrix import ExactMatrix, kernel_basis, solve
from killingcalc.poly import PolyScalar, RatScalar, _as_rat
from killingcalc.rationals import format_rational, parse_rational
from killingcalc.tensor import Tensor, perm_sign

__all__ = [
    "PolyTensorField",
    "MetricField",
    "delta_field",
    "flat_derivative",
    "christoffel_closed_form",
    "christoffel_solve",
    "christoffel_homogeneous_kernel_dim",
    "christoffel_field",
    "covariant_derivative",
    "riemann",
    "lie_derivative_delta",
    "symmetrize_field",
    "antisymmetrize_field",
]


def _is_rat(s) -> bool:
    return isinstance(s, RatScalar)


def _coerce(scalars, n: int):
    vals = list(scalars)
    if any(_is_rat(s) for s in vals):
        return [_as_rat(s, n) for s in vals], True
    return vals, False


def _json_int(value, what: str) -> int:
    """An integer of a field document; floats, strings and bools are refused
    rather than truncated or converted."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _s_zero(n: int, rational: bool):
    return RatScalar.const(n, 0) if rational else PolyScalar.zero(n)


class PolyTensorField:
    """Sparse tensor field: index tuple (1-based) -> scalar entry."""

    __slots__ = ("n", "arity", "comps", "rational")

    def __init__(self, n: int, arity: int, comps=None):
        if n < 1 or arity < 0:
            raise ValueError("need n >= 1 and arity >= 0")
        self.n = n
        self.arity = arity
        items = list((comps or {}).items())
        for idx, _ in items:
            if len(idx) != arity or not all(1 <= i <= n for i in idx):
                raise ValueError(f"bad index tuple {idx}")
        vals, rational = _coerce((s for _, s in items), n)
        self.rational = rational
        self.comps = {
            tuple(idx): s
            for (idx, _), s in zip(items, vals)
            if not s.is_zero()
        }

    @classmethod
    def zero(cls, n: int, arity: int) -> "PolyTensorField":
        return cls(n, arity)

    def at(self, *idx):
        return self.comps.get(tuple(idx), _s_zero(self.n, self.rational))

    def is_zero(self) -> bool:
        return not self.comps

    def add(self, other: "PolyTensorField") -> "PolyTensorField":
        self._compatible(other)
        out = dict(self.comps)
        for idx, s in other.comps.items():
            cur = out.get(idx)
            out[idx] = s if cur is None else _s_add(cur, s)
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
        for idx in set(self.comps) | set(other.comps):
            if not _s_eq(self.at(*idx), other.at(*idx)):
                return False
        return True

    __hash__ = None

    def degree(self) -> int:
        """Maximal entry degree; polynomial mode only."""
        if self.rational:
            raise ValueError("degree bookkeeping applies to polynomial mode")
        return max((s.degree() for s in self.comps.values()), default=-1)

    def to_json_dict(self) -> dict:
        if self.rational:
            raise ValueError("JSON form covers polynomial mode only")
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
                terms[exp] = parse_rational(t["coef"])
            prev = comps.get(idx)
            p = PolyScalar(n, terms)
            comps[idx] = p if prev is None else prev.add(p)
        return cls(n, arity, comps)

    def __repr__(self) -> str:
        return (
            f"PolyTensorField(n={self.n}, arity={self.arity}, "
            f"{len(self.comps)} nonzero)"
        )


def _s_add(a, b):
    if _is_rat(a) or _is_rat(b):
        return _as_rat(a, _scalar_n(a)).add(b)
    return a.add(b)


def _s_mul(a, b):
    if _is_rat(a) or _is_rat(b):
        return _as_rat(a, _scalar_n(a)).mul(b)
    return a.mul(b)


def _s_eq(a, b) -> bool:
    if _is_rat(a) or _is_rat(b):
        return _as_rat(a, _scalar_n(a)) == _as_rat(b, _scalar_n(b))
    return a == b


def _scalar_n(s) -> int:
    return s.n


def delta_field(n: int) -> PolyTensorField:
    return PolyTensorField(
        n, 2, {(i, i): PolyScalar.const(n, 1) for i in range(1, n + 1)}
    )


def flat_derivative(f: PolyTensorField) -> PolyTensorField:
    """Coordinate derivative, new index first; polynomial mode only."""
    if f.rational:
        raise ValueError(
            "rational mode has no flat derivative: use covariant_derivative"
        )
    return _coordinate_derivative(f)


def _coordinate_derivative(f: PolyTensorField) -> PolyTensorField:
    out = {}
    for idx, s in f.comps.items():
        for a in range(1, f.n + 1):
            d = s.diff(a)
            if not d.is_zero():
                out[(a,) + idx] = d
    return PolyTensorField(f.n, f.arity + 1, out)


def _permuted_combination(f: PolyTensorField, positions, signed: bool) -> PolyTensorField:
    pos = tuple(p - 1 for p in positions)
    if len(set(pos)) != len(pos) or not all(0 <= p < f.arity for p in pos):
        raise ValueError("bad slot positions")
    out: dict = {}
    for perm in permutations(range(len(pos))):
        sign = perm_sign(perm) if signed else 1
        for idx, s in f.comps.items():
            tgt = list(idx)
            for slot, which in zip(pos, perm):
                tgt[slot] = idx[pos[which]]
            tgt = tuple(tgt)
            term = s.scale(sign)
            cur = out.get(tgt)
            out[tgt] = term if cur is None else _s_add(cur, term)
    k = 1
    for i in range(2, len(pos) + 1):
        k *= i
    return PolyTensorField(
        f.n, f.arity, {i: s.scale(Fraction(1, k)) for i, s in out.items()}
    )


def symmetrize_field(f: PolyTensorField, positions) -> PolyTensorField:
    """Average over rearrangements of the given 1-based slots."""
    return _permuted_combination(f, positions, signed=False)


def antisymmetrize_field(f: PolyTensorField, positions) -> PolyTensorField:
    """Signed average over rearrangements of the given 1-based slots."""
    return _permuted_combination(f, positions, signed=True)


class MetricField:
    """Symmetric two-tensor with an exactly invertible component matrix."""

    def __init__(self, n: int, field: PolyTensorField, mode: str, kappa=None):
        if field.n != n or field.arity != 2:
            raise ValueError("metric must be an arity-2 field")
        for (a, b), s in field.comps.items():
            if not _s_eq(s, field.at(b, a)):
                raise ValueError("metric must be symmetric")
        self.n = n
        self.field = field
        self.mode = mode
        self.kappa = kappa
        self._inverse = None
        self._gamma = None
        self._gamma_up = None
        self._riemann = None

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
        return cls(n, PolyTensorField(n, 2, comps), "stereographic", kappa)

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
        """Inverse component matrix as a rational-mode field."""
        if self._inverse is not None:
            return self._inverse
        n = self.n
        if self.mode == "flat":
            self._inverse = delta_field(n)
            return self._inverse
        entries = [
            [_as_rat(self.field.at(i, j), n) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
        det = RatScalar.const(n, 0)
        for perm in permutations(range(n)):
            term = RatScalar.const(n, perm_sign(perm))
            for i in range(n):
                term = term.mul(entries[i][perm[i]])
            det = det.add(term)
        if det.is_zero():
            raise ValueError("metric is not invertible")
        comps = {}
        for i in range(n):
            for j in range(n):
                minor_rows = [r for r in range(n) if r != j]
                minor_cols = [c for c in range(n) if c != i]
                cof = RatScalar.const(n, 0)
                for perm in permutations(range(n - 1)):
                    term = RatScalar.const(n, perm_sign(perm))
                    for a in range(n - 1):
                        term = term.mul(entries[minor_rows[a]][minor_cols[perm[a]]])
                    cof = cof.add(term)
                sign = (-1) ** (i + j)
                val = cof.scale(sign).div(det)
                if not val.is_zero():
                    comps[(i + 1, j + 1)] = val
        self._inverse = PolyTensorField(n, 2, comps)
        return self._inverse


def christoffel_closed_form(dg: Tensor) -> Tensor:
    """Pointwise (D_a g_bc + D_b g_ac - D_c g_ab)/2 from jet values."""
    _check_dg(dg)
    n = dg.n
    out = {}
    for a, b, c in product(range(1, n + 1), repeat=3):
        v = (dg.at(a, b, c) + dg.at(b, a, c) - dg.at(c, a, b)) / 2
        if v:
            out[(a, b, c)] = v
    return Tensor(n, 3, out)


def _check_dg(dg: Tensor) -> None:
    if dg.arity != 3:
        raise ValueError("derivative jet must have arity 3")
    for (a, b, c), v in dg.entries.items():
        if dg.at(a, c, b) != v:
            raise ValueError("jet not symmetric in the last two slots")


def _gamma_index(n: int):
    trip = list(product(range(1, n + 1), repeat=3))
    return trip, {t: i for i, t in enumerate(trip)}


@cache
def _christoffel_system(n: int) -> ExactMatrix:
    """Rows: vanishing antisymmetric part, then prescribed symmetric part."""
    trip, pos = _gamma_index(n)
    rows: list[dict[int, Fraction]] = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(1, n + 1):
                rows.append({pos[(a, b, c)]: Fraction(1), pos[(b, a, c)]: Fraction(-1)})
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(b, n + 1):
                row = {pos[(a, b, c)]: Fraction(1)}
                key = (a, c, b)
                row[pos[key]] = row.get(pos[key], Fraction(0)) + 1
                rows.append(row)
    return ExactMatrix(
        len(rows),
        len(trip),
        {(r, c): v for r, row in enumerate(rows) for c, v in row.items()},
    )


def christoffel_solve(dg: Tensor) -> Tensor:
    """Unique torsion-free metric-compatible coefficients at a point.

    Solves the linear system Gamma_[ab]c = 0, Gamma_a(bc) = Dg_abc / 2
    directly; independent of the closed form.
    """
    _check_dg(dg)
    n = dg.n
    m = _christoffel_system(n)
    trip, _ = _gamma_index(n)
    b: list[Fraction] = [Fraction(0)] * (n * n * (n - 1) // 2)
    for a in range(1, n + 1):
        for bb in range(1, n + 1):
            for c in range(bb, n + 1):
                b.append(dg.at(a, bb, c))
    x = solve(m, b)
    if x is None:
        raise RuntimeError("coefficient system unexpectedly inconsistent")
    return Tensor(n, 3, {t: x[i] for i, t in enumerate(trip) if x[i]})


def christoffel_homogeneous_kernel_dim(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    return len(kernel_basis(_christoffel_system(n)))


def christoffel_field(g: MetricField) -> PolyTensorField:
    """All-lower connection coefficients of the metric, indexed (a, b, c)."""
    if g._gamma is not None:
        return g._gamma
    n = g.n
    if g.mode == "flat":
        g._gamma = PolyTensorField.zero(n, 3)
        return g._gamma
    dg = _coordinate_derivative(g.field)
    comps = {}
    for a, b, c in product(range(1, n + 1), repeat=3):
        v = _s_add(
            _s_add(dg.at(a, b, c), dg.at(b, a, c)),
            dg.at(c, a, b).neg(),
        ).scale(Fraction(1, 2))
        if not v.is_zero():
            comps[(a, b, c)] = v
    g._gamma = PolyTensorField(n, 3, comps)
    return g._gamma


def _christoffel_up(g: MetricField) -> PolyTensorField:
    """Coefficients with the last index raised: entry (a, b, c) = Gamma_ab^c."""
    if g._gamma_up is not None:
        return g._gamma_up
    n = g.n
    if g.mode == "flat":
        g._gamma_up = PolyTensorField.zero(n, 3)
        return g._gamma_up
    low = christoffel_field(g)
    inv = g.inverse()
    comps = {}
    for a, b, c in product(range(1, n + 1), repeat=3):
        total = None
        for d in range(1, n + 1):
            lo = low.at(a, b, d)
            gi = inv.at(c, d)
            if lo.is_zero() or gi.is_zero():
                continue
            term = _s_mul(gi, lo)
            total = term if total is None else _s_add(total, term)
        if total is not None and not total.is_zero():
            comps[(a, b, c)] = total
    g._gamma_up = PolyTensorField(n, 3, comps)
    return g._gamma_up


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
    if g.mode == "flat":
        return _coordinate_derivative(f)
    gamma = _christoffel_up(g)
    out = _coordinate_derivative(f)
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
                    term = _s_mul(coef, s).scale(sign)
                    cur = corrections.get(tgt)
                    corrections[tgt] = term if cur is None else _s_add(cur, term)
    return out.add(PolyTensorField(n, f.arity + 1, corrections))


def riemann(g: MetricField) -> PolyTensorField:
    """Curvature R_ab{}^c{}_d as a field indexed (a, b, c, d)."""
    if g._riemann is not None:
        return g._riemann
    n = g.n
    if g.mode == "flat":
        g._riemann = PolyTensorField.zero(n, 4)
        return g._riemann
    gamma = _christoffel_up(g)
    dgamma = _coordinate_derivative(gamma)
    comps: dict = {}
    for a, b, c, d in product(range(1, n + 1), repeat=4):
        if a == b:
            continue
        total = _s_add(
            dgamma.at(a, b, d, c), dgamma.at(b, a, d, c).neg()
        )
        for e in range(1, n + 1):
            t1a, t1b = gamma.at(a, e, c), gamma.at(b, d, e)
            if not (t1a.is_zero() or t1b.is_zero()):
                total = _s_add(total, _s_mul(t1a, t1b))
            t2a, t2b = gamma.at(b, e, c), gamma.at(a, d, e)
            if not (t2a.is_zero() or t2b.is_zero()):
                total = _s_add(total, _s_mul(t2a, t2b).neg())
        if not total.is_zero():
            comps[(a, b, c, d)] = total
    g._riemann = PolyTensorField(n, 4, comps)
    return g._riemann


def lie_derivative_delta(X: PolyTensorField) -> PolyTensorField:
    """Lie derivative of the flat delta along X, term by term.

    Computed as X^a D_a g_bc + g_ac D_b X^a + g_ba D_c X^a with g = delta,
    keeping the (vanishing) transport term explicit.
    """
    if X.arity != 1 or X.rational:
        raise ValueError("expected a polynomial vector field")
    n = X.n
    g = delta_field(n)
    dg = _coordinate_derivative(g)
    dX = _coordinate_derivative(X)
    comps: dict = {}
    for b in range(1, n + 1):
        for c in range(1, n + 1):
            total = PolyScalar.zero(n)
            for a in range(1, n + 1):
                total = total.add(_s_mul(X.at(a), dg.at(a, b, c)))
                total = total.add(_s_mul(g.at(a, c), dX.at(b, a)))
                total = total.add(_s_mul(g.at(b, a), dX.at(c, a)))
            if not total.is_zero():
                comps[(b, c)] = total
    return PolyTensorField(n, 2, comps)
