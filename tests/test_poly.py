from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from helpers import rand_field, rand_poly, rat_quotient
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


def test_rat_refuses_a_float_factor_power():
    u = PolyScalar.const(2, 1).add(_x(2, 1))
    with pytest.raises(TypeError):
        RatScalar(PolyScalar.const(2, 1), [(u, 1.7)])


def test_rat_quotient_keeps_single_denominator_atom():
    # rat_quotient() does not factor its denominator; u^2 stays one atom.
    n = 2
    u = PolyScalar.const(n, 1).add(_x(n, 1).mul(_x(n, 1)))
    r = rat_quotient(PolyScalar.const(n, 4), u.mul(u))
    assert len(r.factors) == 1
    base, mult = r.factors[0]
    assert mult == 1 and base == u.mul(u)
    # passing the atom explicitly keeps the multiplicity structure
    s = RatScalar(PolyScalar.const(n, 4), ((u, 2),))
    assert s.factors == ((u, 2),)
    assert s == r


def test_rat_arithmetic_matches_pointwise_values():
    rng = random.Random(61)
    n = 2
    u = PolyScalar.const(n, 1).add(_x(n, 1).mul(_x(n, 1))).add(_x(n, 2).mul(_x(n, 2)))
    pts = [(Fraction(1), Fraction(2)), (Fraction(-1, 2), Fraction(3)), (Fraction(0), Fraction(0))]
    for _ in range(10):
        a = rat_quotient(rand_poly(rng, n, 2), u)
        b = rat_quotient(rand_poly(rng, n, 3), u.mul(u))
        for pt in pts:
            assert a.add(b).eval(pt) == a.eval(pt) + b.eval(pt)
            assert a.mul(b).eval(pt) == a.eval(pt) * b.eval(pt)
            assert a.sub(b).eval(pt) == a.eval(pt) - b.eval(pt)


def test_rat_quotient_rule():
    n = 2
    u = PolyScalar.const(n, 1).add(_x(n, 1).mul(_x(n, 1)))
    r = rat_quotient(PolyScalar.const(n, 1), u)
    # d/dx1 (1/u) = -u_x1 / u^2
    expected = rat_quotient(u.diff(1).neg(), u.mul(u))
    assert r.diff(1) == expected
    assert r.diff(2).is_zero()


def test_rat_division_and_cancellation():
    n = 2
    u = PolyScalar.const(n, 1).add(_x(n, 2).mul(_x(n, 2)))
    a = rat_quotient(_x(n, 1), u)
    b = rat_quotient(PolyScalar.const(n, 2), u)
    q = a.div(b)
    assert q.factors == ()  # denominators cancel
    assert q.num == _x(n, 1).scale(Fraction(1, 2))
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
    """Over shared, disjoint and differently powered denominator atoms, and
    with a polynomial summand, a / da + b / db is (a db + b da) / (da db),
    on the per-atom maximal powers."""
    n = 2
    rng = random.Random(59)
    u = PolyScalar.const(n, 1).add(_x(n, 1).mul(_x(n, 1)))
    v = PolyScalar.const(n, 2).add(_x(n, 2))
    p, q = rand_poly(rng, n, 2), rand_poly(rng, n, 3)
    cases = [
        ([(u, 1)], [(u, 1)], {1: 1}),
        ([(u, 1)], [(v, 2)], {1: 1, 2: 2}),
        ([(u, 2)], [(u, 1), (v, 3)], {1: 2, 2: 3}),
        ([(u, 1), (v, 1)], [(u, 3)], {1: 3, 2: 1}),
        ([], [(v, 1)], {2: 1}),
    ]
    points = [(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(0, 5))) for _ in range(4)]
    for fa, fb, powers in cases:
        a, b = RatScalar(p, fa), RatScalar(q, fb)
        total = a.add(b)
        crossed = RatScalar(p.mul(b.den).add(q.mul(a.den)), fa + fb)
        assert total == crossed, (fa, fb)
        assert {1 if f == u else 2: k for f, k in total.factors} == powers
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
    """``scale`` and ``neg`` keep the denominator as it is; on seeded
    values, zero multiples and numerators with a factor to cancel among
    them, they give exactly what ``__init__``'s cancelling route gives."""
    rng = random.Random(71)
    n = 2
    u = PolyScalar.const(n, 1).add(_x(n, 1).mul(_x(n, 1)))
    v = PolyScalar.const(n, 2).add(_x(n, 2))
    for _ in range(30):
        num = rand_poly(rng, n, 3)
        if rng.random() < 0.3:
            num = num.mul(u)
        r = RatScalar(num, [(u, rng.randint(0, 2)), (v, rng.randint(0, 2))])
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for got, want in (
            (r.scale(c), RatScalar(r.num.scale(c), r.factors)),
            (r.neg(), RatScalar(r.num.neg(), r.factors)),
        ):
            assert got.num.terms == want.num.terms
            assert got.factors == want.factors


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
