from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from helpers import factored, rand_field, rand_poly, rat_quotient
from killingcalc.killing import field_from_coefficients, killing_kernel, symmetric_coordinates
from killingcalc.metric import RatScalar
from killingcalc.poly import PolyScalar, PolyTensorField, monomials


def _x(n, i):
    return PolyScalar.variable(n, i)


def test_monomials_graded_lex_and_count():
    mons = monomials(2, 2)
    assert mons == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    for n in (1, 2, 3):
        for d in (0, 1, 2, 3):
            assert len(monomials(n, d)) == comb(n + d, d)


def test_poly_square_of_sum():
    x1, x2 = _x(2, 1), _x(2, 2)
    p = x1.add(x2).mul(x1.add(x2))
    expected = {(2, 0): Fraction(1), (1, 1): Fraction(2), (0, 2): Fraction(1)}
    assert p.terms == expected
    assert p.degree() == 2
    assert p.eval((Fraction(2), Fraction(3))) == 25


def test_poly_product_rule():
    rng = random.Random(53)
    for _ in range(20):
        a = rand_poly(rng, 3, 3)
        b = rand_poly(rng, 3, 3)
        for i in (1, 2, 3):
            lhs = a.mul(b).diff(i)
            rhs = a.diff(i).mul(b).add(a.mul(b.diff(i)))
            assert lhs == rhs


def test_poly_eval_is_a_ring_map():
    rng = random.Random(59)
    pt = (Fraction(1, 2), Fraction(-2), Fraction(3))
    for _ in range(15):
        a = rand_poly(rng, 3, 3)
        b = rand_poly(rng, 3, 3)
        assert a.add(b).eval(pt) == a.eval(pt) + b.eval(pt)
        assert a.mul(b).eval(pt) == a.eval(pt) * b.eval(pt)


def test_exact_div():
    x1, x2 = _x(2, 1), _x(2, 2)
    p = x1.mul(x1).sub(x2.mul(x2))
    q = x1.sub(x2)
    d = p.exact_div(q)
    assert d is not None and d == x1.add(x2)
    assert p.exact_div(x1.add(PolyScalar.const(2, 1))) is None


def test_zero_and_degree_conventions():
    z = PolyScalar.zero(3)
    assert z.is_zero() and z.degree() == -1
    assert z.diff(2).is_zero()
    c = PolyScalar.const(3, Fraction(5, 2))
    assert c.degree() == 0 and c.diff(1).is_zero()


def test_poly_refuses_a_float_exponent():
    with pytest.raises(TypeError):
        PolyScalar(2, {(1.5, 0): 1})


@pytest.mark.parametrize("make", [
    lambda: PolyScalar(2.0),
    lambda: PolyScalar(2.0, {(1, 0): 1}),
    lambda: PolyTensorField(2.0, 2),
    lambda: PolyTensorField(2, 2.0, {(1, 1): PolyScalar(2, {(1, 0): 1})}),
], ids=["scalar", "scalar-terms", "field-n", "field-arity"])
def test_the_checking_constructors_refuse_float_sizes(make):
    """A float n or arity is a TypeError, not a field whose JSON form its
    own reader refuses ("arity must be an integer, got 2.0") or whose
    solve fails on the float."""
    with pytest.raises(TypeError):
        make()


def _u(n=2):
    """1 + x1^2, monic."""
    return PolyScalar.const(n, 1).add(_x(n, 1).mul(_x(n, 1)))


def _pow(u: PolyScalar, k: int) -> PolyScalar:
    out = PolyScalar.const(u.n, 1)
    for _ in range(k):
        out = out.mul(u)
    return out


def test_rat_refuses_a_float_factor_power():
    u = _u()
    with pytest.raises(TypeError):
        RatScalar(PolyScalar.const(2, 1), u, 1.7)
    with pytest.raises(ValueError, match="monic"):
        RatScalar(PolyScalar.const(2, 1), u.scale(2), 1)
    with pytest.raises(ValueError, match="nonnegative"):
        RatScalar(PolyScalar.const(2, 1), u, -1)


def test_rat_quotient_keeps_single_denominator_atom():
    # rat_quotient() does not factor its denominator: u^2 becomes D, k = 1
    n = 2
    u = _u(n)
    r = rat_quotient(PolyScalar.const(n, 4), u.mul(u).scale(3))
    assert (r.num, r.den, r.k) == (PolyScalar.const(n, Fraction(4, 3)), u.mul(u), 1)
    # over D = u the same value is 4 / u^2
    s = RatScalar(PolyScalar.const(n, 4), u, 2)
    assert (s.den, s.k) == (u, 2)
    pt = (Fraction(1, 2), Fraction(3))
    assert s.eval(pt) == 3 * r.eval(pt)
    with pytest.raises(ValueError, match="different denominators"):
        s.add(r)


def test_rat_arithmetic_matches_pointwise_values():
    rng = random.Random(61)
    n = 2
    u = PolyScalar.const(n, 1).add(_x(n, 1).mul(_x(n, 1))).add(_x(n, 2).mul(_x(n, 2)))
    pts = [(Fraction(1), Fraction(2)), (Fraction(-1, 2), Fraction(3)), (Fraction(0), Fraction(0))]
    for _ in range(10):
        a = rat_quotient(rand_poly(rng, n, 2), u)
        b = RatScalar(rand_poly(rng, n, 3), u, 2)
        for pt in pts:
            assert a.add(b).eval(pt) == a.eval(pt) + b.eval(pt)
            assert a.mul(b).eval(pt) == a.eval(pt) * b.eval(pt)
            assert a.sub(b).eval(pt) == a.eval(pt) - b.eval(pt)


def test_rat_quotient_rule():
    n = 2
    u = _u(n)
    r = RatScalar(PolyScalar.const(n, 1), u)  # k = 0 here is the polynomial 1
    assert r.diff(1).is_zero()
    r = RatScalar(PolyScalar.const(n, 1), u, 1)
    # d/dx1 (1/u) = -u_x1 / u^2
    assert r.diff(1) == RatScalar(u.diff(1).neg(), u, 2)
    assert r.diff(2).is_zero()
    # d/dx1 (x2 / u^3) = -3 x2 u_x1 / u^4
    r = RatScalar(_x(n, 2), u, 3)
    assert r.diff(1) == RatScalar(_x(n, 2).mul(u.diff(1)).scale(-3), u, 4)


def test_rat_division_and_cancellation():
    n = 2
    u = PolyScalar.const(n, 1).add(_x(n, 2).mul(_x(n, 2)))
    a = rat_quotient(_x(n, 1), u)
    b = rat_quotient(PolyScalar.const(n, 2), u)
    q = a.div(b)
    assert q.k == 0  # denominators cancel
    assert q.num == _x(n, 1).scale(Fraction(1, 2))
    # dividing by a unit c u^j moves u^j into the numerator
    q = a.div(RatScalar(u.mul(u).scale(3), u, 1))
    assert (q.num, q.k) == (_x(n, 1).scale(Fraction(1, 3)), 2)
    with pytest.raises(ZeroDivisionError):
        a.div(RatScalar.const(n, 0))


def test_rat_zero_detection_after_mixed_ops():
    n = 2
    u = PolyScalar.const(n, 1).add(_x(n, 1).mul(_x(n, 1)))
    a = rat_quotient(_x(n, 2), u)
    assert a.sub(a).is_zero()
    assert a.add(a.neg()).is_zero()
    assert not a.is_zero()


def test_rat_add_equals_the_cross_multiplied_sum():
    """Over one denominator D at equal and differing powers, and with a
    polynomial summand, p / D^ka + q / D^kb is (p D^kb + q D^ka) / D^(ka + kb),
    held at the larger power."""
    n = 2
    rng = random.Random(59)
    u = _u(n)
    p, q = rand_poly(rng, n, 2), rand_poly(rng, n, 3)
    points = [(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(0, 5))) for _ in range(4)]
    for ka, kb in ((1, 1), (1, 2), (2, 1), (0, 3), (3, 0)):
        a, b = RatScalar(p, u, ka), RatScalar(q, u, kb)
        total = a.add(b)
        crossed = RatScalar(p.mul(_pow(u, kb)).add(q.mul(_pow(u, ka))), u, ka + kb)
        assert total == crossed, (ka, kb)
        assert total.k == max(ka, kb)
        for pt in points:
            assert total.eval(pt) == a.eval(pt) + b.eval(pt)


def test_poly_hands_mixed_arithmetic_to_rat():
    """PolyScalar add/sub/mul with a RatScalar operand give the RatScalar
    side's result, in both orders, and == compares across the kinds."""
    rng = random.Random(67)
    n = 2
    u = PolyScalar.const(n, 1).add(_x(n, 1).mul(_x(n, 1)))
    for _ in range(20):
        p = rand_poly(rng, n, 3)
        r = rat_quotient(rand_poly(rng, n, 2), u if rng.random() < 0.5 else u.mul(u))
        for op in ("add", "sub", "mul"):
            got = getattr(p, op)(r)
            assert isinstance(got, RatScalar)
            assert got == getattr(RatScalar(p), op)(r)
        assert p.add(r) == r.add(p) and r.add(p) == p.add(r)
        assert p.mul(r) == r.mul(p)
        assert p.sub(r) == r.sub(p).neg()
        assert p == RatScalar(p) and RatScalar(p) == p


def test_rat_scale_and_neg_skip_the_cancellation_they_cannot_need():
    """``scale`` and ``neg`` keep the power as it is; on seeded values, zero
    multiples and numerators with a factor to cancel among them, they give
    exactly what the constructor's cancelling route gives."""
    rng = random.Random(71)
    n = 2
    u = _u(n)
    for _ in range(30):
        num = rand_poly(rng, n, 3)
        if rng.random() < 0.3:
            num = num.mul(u)
        r = RatScalar(num, u, rng.randint(0, 2))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for got, want in (
            (r.scale(c), RatScalar(r.num.scale(c), u, r.k)),
            (r.neg(), RatScalar(r.num.neg(), u, r.k)),
        ):
            assert got.num.terms == want.num.terms
            assert (got.den, got.k) == (want.den, want.k)


def _assert_canonical(r: RatScalar) -> None:
    """k is least: D does not divide P when k > 0, and zero has k = 0."""
    if r.k:
        assert not r.num.is_zero() and r.num.exact_div(r.den) is None, r


def _rand_rat(rng: random.Random, d: PolyScalar, factors) -> RatScalar:
    """A random numerator, sometimes times one of d's factors, over d^k."""
    num = rand_poly(rng, d.n, 2)
    return RatScalar(num.mul(rng.choice(factors)), d, rng.randint(0, 3))


def _check_against_oracle(got: RatScalar, want) -> None:
    _assert_canonical(got)
    assert factored(got) == want
    assert got == RatScalar(got.num, got.den, got.k)


def test_rat_operations_match_the_factored_oracle():
    """Over an irreducible D and a product D = u v, on seeded numerators
    and powers, every operation agrees with the factored-atom oracle as a
    value, at rational points, and leaves k least."""
    rng = random.Random(101)
    n = 2
    u, v = _u(n), PolyScalar.const(n, 2).add(_x(n, 2))
    one = PolyScalar.const(n, 1)
    w = one.add(_x(n, 1).mul(_x(n, 1))).add(_x(n, 2).mul(_x(n, 2)))
    pts = [(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(3)]
    for d, factors in ((w, [one, w]), (u.mul(v), [one, u, v, u.mul(v)])):
        for _ in range(20):
            a, b = _rand_rat(rng, d, factors), _rand_rat(rng, d, factors)
            fa, fb = factored(a), factored(b)
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            p = rand_poly(rng, n, 2)
            cases = [
                (a.add(b), fa.add(fb)), (a.sub(b), fa.sub(fb)), (a.mul(b), fa.mul(fb)),
                (a.scale(c), fa.scale(c)), (a.neg(), fa.neg()), (a.add(a.neg()), fa.sub(fa)),
                (a.add(p), fa.add(factored(p))), (a.mul(p), fa.mul(factored(p))),
                (a.diff(1), fa.diff(1)), (a.diff(2), fa.diff(2)),
            ]
            unit = RatScalar(_pow(d, rng.randint(0, 3)).scale(c or 1), d, rng.randint(0, 3))
            cases.append((a.div(unit), fa.div(factored(unit))))
            for got, want in cases:
                _check_against_oracle(got, want)
                for pt in pts:
                    assert got.eval(pt) == want.eval(pt)


def test_rat_equal_values_written_differently_are_equal():
    n = 2
    u = _u(n)
    x = _x(n, 1)
    assert RatScalar(x.mul(u), u, 2) == RatScalar(x, u, 1)
    assert RatScalar(x.mul(u), u, 1) == x and x == RatScalar(x.mul(u), u, 1)
    assert RatScalar(u.mul(u), u, 2) == RatScalar.const(n, 1)
    assert RatScalar(x, u, 1) != RatScalar(x, u, 2)
    assert RatScalar(x, u, 1) != x
    assert RatScalar(PolyScalar.zero(n), u, 3).k == 0
    r = RatScalar(x.mul(u), u, 2)
    assert (r.num, r.k) == (x, 1)


def test_rat_refuses_two_denominators_and_non_units():
    n = 2
    u, v = _u(n), PolyScalar.const(n, 2).add(_x(n, 2))
    a, b = RatScalar(_x(n, 2), u, 1), RatScalar(_x(n, 1), v, 1)
    for op in (a.add, a.sub, a.mul, a.div, a.__eq__, b.add, b.mul):
        with pytest.raises(ValueError, match="different denominators"):
            op(b if op.__self__ is a else a)
    # a polynomial, or a value over D = 1, mixes with either
    assert a.add(RatScalar(_x(n, 1))).den == u and RatScalar(_x(n, 1)).mul(b).den == v
    with pytest.raises(ValueError, match="not a unit"):
        a.div(RatScalar(_x(n, 1), u, 0))
    with pytest.raises(ValueError, match="not a unit"):
        a.div(_x(n, 1))


def _assert_rechecked(p: PolyScalar) -> None:
    """p holds only nonzero ``Fraction`` values on valid exponents: the
    checking constructor gives it back unchanged."""
    assert all(type(c) is Fraction and c for c in p.terms.values()), p.terms
    assert PolyScalar(p.n, p.terms) == p


def _assert_field_rechecked(f: PolyTensorField) -> None:
    for s in f.comps.values():
        assert not s.is_zero()
        _assert_rechecked(s)
    again = PolyTensorField(f.n, f.arity, f.comps)
    assert again == f and again.comps.keys() == f.comps.keys()


def test_arithmetic_results_pass_the_checking_constructor():
    """The results the trusted constructors wrap, on seeded polynomials
    with sums that cancel wholly or in part, zero factors and exact
    quotients, are the ones the checking constructors would build."""
    rng = random.Random(73)
    zero = PolyScalar.zero(3)
    for _ in range(40):
        a, b = rand_poly(rng, 3, 3, nterms=5), rand_poly(rng, 3, 2)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        results = [
            a.add(b), a.sub(b), a.neg(), a.add(a.neg()), a.add(b.sub(a)),
            a.scale(c), a.scale(0), a.mul(b), a.mul(zero), a.mul(b.neg()).add(a.mul(b)),
            a.diff(rng.randint(1, 3)),
        ]
        if not b.is_zero():
            results.append(a.mul(b).exact_div(b))
        for r in results:
            _assert_rechecked(r)
    assert a.scale(0).terms == {} and a.add(a.neg()).terms == {}


def test_field_arithmetic_results_pass_the_checking_constructor():
    rng = random.Random(79)
    for _ in range(20):
        f, g = rand_field(rng, 2, 2, 2), rand_field(rng, 2, 2, 2)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for r in (
            f.add(g), f.sub(g), f.neg(), f.add(f.neg()), f.add(g.sub(f)),
            f.scale(c), f.scale(0),
        ):
            _assert_field_rechecked(r)
        assert f.scale(0).comps == {} and f.sub(f).comps == {}


def test_fields_from_coefficients_pass_the_checking_constructor():
    rng = random.Random(83)
    for n, arity, degree in ((2, 1, 2), (3, 2, 2), (2, 3, 3)):
        size = len(symmetric_coordinates(n, arity, degree))
        for _ in range(10):
            vec = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in rng.sample(range(size), 4)}
            _assert_field_rechecked(field_from_coefficients(n, arity, degree, vec))
    for f in killing_kernel(2, 2, 2):
        _assert_field_rechecked(f)
