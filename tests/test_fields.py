from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from helpers import (
    christoffel_by_elimination, christoffel_solver_by_slot_solves, evaluate, lie_derivative_delta,
    rand_field,
)
from killingcalc import fields
from killingcalc.fields import (
    PolyTensorField,
    antisymmetrize_field,
    christoffel_closed_form,
    christoffel_homogeneous_kernel_dim,
    christoffel_solve,
    delta_field,
    flat_derivative,
    symmetrize_field,
)
from killingcalc.metric import (
    MetricField, RatScalar, christoffel_field, covariant_derivative, riemann,
)
from killingcalc.matrix import ExactMatrix
from killingcalc.poly import PolyScalar
from killingcalc.tractor import tractor_curvature

P = PolyScalar


def _rotation_field():
    return PolyTensorField(
        2, 1, {(1,): P.variable(2, 2), (2,): P.variable(2, 1).neg()}
    )


def test_field_algebra_and_evaluate():
    f = _rotation_field()
    assert not f.is_zero()
    assert f.add(f.neg()).is_zero()
    assert f.scale(3).at(1) == P.variable(2, 2).scale(3)
    t = evaluate(f, (Fraction(3), Fraction(5)))
    assert t == {(1,): 5, (2,): -3}
    assert f.degree() == 1
    assert PolyTensorField.zero(2, 1).degree() == -1


def test_flat_derivative_prepends_the_direction_slot():
    f = _rotation_field()
    d = flat_derivative(f)
    assert d.at(2, 1) == P.const(2, 1)  # direction x2, component 1
    assert d.at(1, 2) == P.const(2, -1)
    assert d.at(1, 1).is_zero()
    # rotation generator has an antisymmetric gradient
    assert symmetrize_field(d, (1, 2)).is_zero()
    assert antisymmetrize_field(d, (1, 2)) == d


def test_mixed_partials_commute():
    rng = random.Random(71)
    for _ in range(100):
        n = rng.choice((2, 3))
        f = rand_field(rng, n, 1, 4)
        dd = flat_derivative(flat_derivative(f))
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                for c in range(1, n + 1):
                    assert dd.at(a, b, c) == dd.at(b, a, c)


def test_symmetrize_field_is_a_projection():
    rng = random.Random(73)
    f = rand_field(rng, 3, 2, 3)
    s = symmetrize_field(f, (1, 2))
    assert symmetrize_field(s, (1, 2)) == s
    a = antisymmetrize_field(f, (1, 2))
    assert s.add(a) == f


def test_json_round_trip_and_validation():
    f = _rotation_field()
    doc = f.to_json_dict()
    assert PolyTensorField.from_json_dict(doc) == f
    assert doc["entries"][0]["idx"] == [1]
    bad = {"n": 2, "arity": 1, "entries": [{"idx": [3], "poly": []}]}
    with pytest.raises(ValueError):
        PolyTensorField.from_json_dict(bad)
    bad2 = {
        "n": 2,
        "arity": 1,
        "entries": [{"idx": [1], "poly": [{"exp": [1], "coef": "1"}]}],
    }
    with pytest.raises(ValueError):
        PolyTensorField.from_json_dict(bad2)  # exponent length != n


def test_json_rejects_rational_mode():
    g = MetricField.stereographic(2, 1)
    with pytest.raises(ValueError):
        g.field.to_json_dict()


def test_rational_fields_need_the_covariant_derivative():
    g = MetricField.stereographic(2, 1)
    with pytest.raises(ValueError):
        flat_derivative(g.field)


def test_christoffel_witness():
    dg = {(1, 2, 2): Fraction(2)}
    gam = christoffel_solve(2, dg)
    assert gam == {(1, 2, 2): 1, (2, 1, 2): 1, (2, 2, 1): -1}
    assert gam == christoffel_closed_form(2, dg)


def test_christoffel_unique():
    for n in (2, 3, 4):
        assert christoffel_homogeneous_kernel_dim(n) == 0


def test_christoffel_dual_routes_agree_on_random_jets():
    """The cached solution operator, the per-jet elimination and the
    closed form agree on jets with non-integer entries, n = 1..5."""
    rng = random.Random(79)
    for n in range(1, 6):
        for _ in range(10):
            entries = {}
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    for c in range(b, n + 1):
                        v = Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 5, 12)))
                        entries[(a, b, c)] = entries[(a, c, b)] = v
            # a non-integer entry on every jet, also at n = 1
            entries[(1, 1, 1)] = Fraction(rng.randint(-6, 6) * 7 + 3, 7)
            assert christoffel_solve(n, entries) == christoffel_by_elimination(n, entries)
            assert christoffel_solve(n, entries) == christoffel_closed_form(n, entries)


def test_christoffel_rejects_asymmetric_jet():
    bad = [
        (2, {(1, 1, 2): Fraction(1)}),  # not symmetric in (b, c)
        (3, {(2, 1, 3): Fraction(1), (2, 3, 1): Fraction(2)}),
    ]
    for route in (christoffel_closed_form, christoffel_solve):
        for n, dg in bad:
            with pytest.raises(ValueError, match="symmetric"):
                route(n, dg)
        with pytest.raises(ValueError, match="arity 3"):
            route(2, {(1, 2): Fraction(1), (2, 1): Fraction(1)})


def test_christoffel_operator_is_the_per_slot_solves():
    """One reduction of [A | s E] gives the operator one ``solve`` per
    symmetric slot gives: the same integer rows over the same scale."""
    for n in range(1, 7):
        op, oracle = fields._christoffel_solver(n), christoffel_solver_by_slot_solves(n)
        assert op == oracle
        assert op.scale == oracle.scale and op.data == oracle.data


def test_christoffel_operator_refuses_a_system_missing_a_row(monkeypatch):
    original = fields._christoffel_system

    def dropped(n):
        m = original(n)
        return ExactMatrix.from_int_rows(m.cols, m.data[:-1], m.scale)

    monkeypatch.setattr(fields, "_christoffel_system", dropped)
    fields._christoffel_solver.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="singular"):
            fields._christoffel_solver(2)
    finally:
        fields._christoffel_solver.cache_clear()


_ONE = {(1, 1): 1, (2, 2): 1}
_JET_ROUTES = {
    "closed-form": ((1, 2, 2), lambda jet: christoffel_closed_form(2, jet)),
    "solve": ((1, 2, 2), lambda jet: christoffel_solve(2, jet)),
    "jet2-g0": ((2, 2), lambda jet: MetricField.from_jet2(2, jet, {}, {})),
    "jet2-dg0": ((1, 2, 2), lambda jet: MetricField.from_jet2(2, _ONE, jet, {})),
    "jet2-ddg0": ((1, 1, 2, 2), lambda jet: MetricField.from_jet2(2, _ONE, {}, jet)),
}


@pytest.mark.parametrize("route", sorted(_JET_ROUTES))
@pytest.mark.parametrize("value", [0.5, "1", 1j])
def test_jet_values_other_than_int_or_fraction_are_refused(route, value):
    """A float, str or other value is refused by a ``TypeError`` naming
    its index, as ``poly`` refuses a coefficient, on both Christoffel
    routes and on each jet of ``MetricField.from_jet2``."""
    idx, run = _JET_ROUTES[route]
    with pytest.raises(TypeError, match=re.escape(f"jet value at {idx} must be an int or Fraction")):
        run({idx: value})


@pytest.mark.parametrize("route", [christoffel_closed_form, christoffel_solve])
def test_christoffel_jets_are_plain_dicts(route):
    """A jet is a dict over index triples in 1..n: a triple outside that
    range is refused, an explicit zero reads as absent (so it breaks no
    symmetry), and int and ``Fraction`` values give the same result."""
    for triple in ((0, 1, 1), (1, 1, 3), (1, 2, 2, 1)):
        with pytest.raises(ValueError, match="invalid"):
            route(2, {triple: Fraction(1)})
    with pytest.raises(ValueError, match="symmetric"):
        route(2, {(1, 1, 2): 1, (1, 2, 1): Fraction(2)})
    dg = {(1, 2, 2): 2}
    assert route(2, {**dg, (1, 1, 2): 0, (2, 1, 1): Fraction(0)}) == route(2, dg)
    assert route(2, dg) == route(2, {(1, 2, 2): Fraction(2)}) == {
        (1, 2, 2): 1, (2, 1, 2): 1, (2, 2, 1): -1
    }
    assert route(2, {}) == {}


def test_flat_metric_is_genuinely_flat():
    g = MetricField.flat(2)
    assert christoffel_field(g).is_zero()
    assert riemann(g).is_zero()
    f = _rotation_field()
    assert covariant_derivative(f, g) == flat_derivative(f)
    assert g.inverse() == delta_field(2)


def test_lie_derivative_of_delta():
    rng = random.Random(83)
    for _ in range(50):
        n = rng.choice((2, 3))
        X = rand_field(rng, n, 1, 3)
        lhs = lie_derivative_delta(X)
        rhs = symmetrize_field(flat_derivative(X), (1, 2)).scale(2)
        assert lhs == rhs


def test_stereographic_metric_compatibility():
    for n, kappa in [(2, Fraction(1)), (3, Fraction(-1, 2))]:
        g = MetricField.stereographic(n, kappa)
        assert covariant_derivative(g.field, g).is_zero()


def test_stereographic_curvature_identity():
    # R_ab^c_d = kappa (delta_a^c g_bd - delta_b^c g_ad), exactly
    for n, kappa in [(2, Fraction(1)), (3, Fraction(-1, 2))]:
        g = MetricField.stereographic(n, kappa)
        R = riemann(g)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(1, n + 1):
                    for d in range(1, n + 1):
                        want = RatScalar.const(n, 0)
                        if a == c:
                            want = want.add(g.field.at(b, d))
                        if b == c:
                            want = want.sub(g.field.at(a, d))
                        want = want.scale(kappa)
                        assert R.at(a, b, c, d) == want


def test_stereographic_kappa_zero_is_constant():
    g = MetricField.stereographic(2, 0)
    assert riemann(g).is_zero()
    assert g.field.at(1, 1) == P.const(2, 4)


def test_stereographic_entries_are_one_power_of_one_denominator():
    """4 / (1 + kappa |x|^2)^2 is (4 / kappa^2) / D^2 with the monic
    D = 1 / kappa + |x|^2, the one denominator of everything derived."""
    g = MetricField.stereographic(2, Fraction(-1, 2))
    d = P.const(2, -2).add(P.variable(2, 1).mul(P.variable(2, 1))).add(
        P.variable(2, 2).mul(P.variable(2, 2))
    )
    e = g.field.at(1, 1)
    assert (e.num, e.den, e.k) == (P.const(2, 16), d, 2)
    assert all(s.den == d for s in riemann(g).comps.values())


def test_stereographic_refuses_a_float_curvature_or_size():
    """kappa is exact, as jet values and coefficients are: 0.1 would read
    as its binary expansion 3602879701896397/36028797018963968."""
    for kappa in (0.1, 1.0, "1/2"):
        with pytest.raises(TypeError, match="rational coefficient"):
            MetricField.stereographic(2, kappa)
    with pytest.raises(TypeError, match="interpreted as an integer"):
        MetricField.stereographic(2.0, 1)


def test_metric_inverse():
    for g in (MetricField.stereographic(2, 1), _sample_metric()):
        inv = g.inverse()
        n = g.n
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                acc = RatScalar.const(n, 0)
                for e in range(1, n + 1):
                    acc = acc.add(g.field.at(a, e).mul(inv.at(e, b)))
                assert acc == RatScalar.const(n, 1 if a == b else 0)


def test_degenerate_metric_rejected():
    bad = PolyTensorField(2, 2, {(1, 1): P.const(2, 1)})  # det = 0
    g = MetricField(2, bad, "sample")
    with pytest.raises(ValueError):
        g.inverse()


def _sample_metric():
    g0 = {(1, 1): Fraction(1), (2, 2): Fraction(1)}
    ddg0 = {(2, 2, 1, 1): Fraction(2)}  # g_11 = 1 + x2^2
    return MetricField.from_jet2(2, g0, {}, ddg0)


def test_jet2_taylor_data():
    g0 = {(1, 1): Fraction(1), (2, 2): Fraction(1)}
    dg0 = {(1, 2, 2): Fraction(2)}
    g = MetricField.from_jet2(2, g0, dg0, {})
    assert g.mode == "sample"
    assert g.field.at(2, 2) == P(2, {(0, 0): Fraction(1), (1, 0): Fraction(2)})
    # at the origin the christoffel field matches the pointwise solve
    gam0 = evaluate(christoffel_field(g), (Fraction(0), Fraction(0)))
    assert gam0 == christoffel_solve(2, dg0)


def test_jet2_rejects_bad_symmetry():
    g0 = {(1, 2): Fraction(1)}  # not symmetric
    with pytest.raises(ValueError, match="symmetric"):
        MetricField.from_jet2(2, g0, {}, {})
    # a zero value reads as absent, so an explicit (2, 1): 0 is no asymmetry
    one = {(1, 1): 1, (2, 2): 1}
    assert MetricField.from_jet2(2, {**one, (2, 1): 0}, {}, {}).field == (
        MetricField.from_jet2(2, one, {}, {}).field
    )
    for g0, dg0, ddg0 in (
        ({(1, 3): 1, (3, 1): 1}, {}, {}),  # index outside 1..n
        (one, {(1, 1): 1}, {}),  # first jet of arity 2
        (one, {}, {(1, 1, 1): 1}),  # second jet of arity 3
    ):
        with pytest.raises(ValueError, match="invalid"):
            MetricField.from_jet2(2, g0, dg0, ddg0)


def test_jet2_curvature_nonzero():
    g = _sample_metric()
    R = riemann(g)
    assert not R.is_zero()
    assert evaluate(R, (Fraction(0), Fraction(0)))


def test_commutator_convention():
    # [nabla_a, nabla_b] X^c = + R_ab^c_d X^d on 20 random upper fields
    rng = random.Random(89)
    metrics = [MetricField.stereographic(2, 1), _sample_metric()]
    for trial in range(20):
        g = metrics[trial % 2]
        n = g.n
        X = rand_field(rng, n, 1, 2)
        nX = covariant_derivative(X, g, "+")
        nnX = covariant_derivative(nX, g, "-+")
        R = riemann(g)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(1, n + 1):
                    lhs = nnX.at(a, b, c).sub(nnX.at(b, a, c))
                    rhs = RatScalar.const(n, 0)
                    for d in range(1, n + 1):
                        rhs = rhs.add(R.at(a, b, c, d).mul(X.at(d)))
                    assert lhs == rhs


def test_second_covariant_derivative_on_scalars_is_symmetric():
    # torsion-freeness: nabla^2 of a scalar has no antisymmetric part
    rng = random.Random(97)
    g = _sample_metric()
    for _ in range(10):
        s = rand_field(rng, 2, 0, 3)
        dds = covariant_derivative(covariant_derivative(s, g), g)
        assert antisymmetrize_field(dds, (1, 2)).is_zero()


def test_duplicate_json_indices_accumulate():
    doc = {
        "n": 2,
        "arity": 1,
        "entries": [
            {"idx": [1], "poly": [{"exp": [1, 0], "coef": "2"}]},
            {"idx": [1], "poly": [{"exp": [1, 0], "coef": "3"}]},
        ],
    }
    f = PolyTensorField.from_json_dict(doc)
    assert f.at(1) == P(2, {(1, 0): Fraction(5)})


def test_repeated_json_exponents_accumulate():
    """Repeated exponents inside one poly list add up, as repeated idx
    entries do: x1 - x1 is the zero entry."""
    doc = {
        "n": 2,
        "arity": 1,
        "entries": [
            {"idx": [1], "poly": [{"exp": [1, 0], "coef": "1"}, {"exp": [1, 0], "coef": "-1"}]},
            {"idx": [2], "poly": [{"exp": [0, 1], "coef": "2"}, {"exp": [0, 1], "coef": "1/3"}]},
        ],
    }
    f = PolyTensorField.from_json_dict(doc)
    assert f.at(1).is_zero()
    assert f.at(2) == P(2, {(0, 1): Fraction(7, 3)})


def _mixed_field():
    """A field whose entries are of both kinds, and its all-RatScalar form."""
    u = P.const(2, 1).add(P.variable(2, 1).mul(P.variable(2, 1)))
    comps = {(1, 1): P.variable(2, 2), (1, 2): RatScalar(P.const(2, 3), u, 1)}
    rat = {idx: s if isinstance(s, RatScalar) else RatScalar(s) for idx, s in comps.items()}
    return PolyTensorField(2, 2, comps), PolyTensorField(2, 2, rat)


def test_mixed_entries_make_a_rational_field():
    mixed, rat = _mixed_field()
    assert mixed.rational and rat.rational
    assert not _rotation_field().rational
    assert isinstance(mixed.at(1, 1), PolyScalar)  # entries are kept as given
    assert mixed.at(2, 2) == P.zero(2)
    for refused in (mixed.degree, mixed.to_json_dict, lambda: flat_derivative(mixed)):
        with pytest.raises(ValueError):
            refused()


def test_mixed_fields_equal_their_rational_form():
    mixed, rat = _mixed_field()
    assert mixed == rat and rat == mixed
    assert mixed.add(rat) == rat.scale(2)
    assert mixed.sub(rat).is_zero()
    assert mixed != rat.scale(2)


def test_flat_metric_forms_no_inverse():
    """Vanishing Christoffel symbols short-cut the raised ones, the
    covariant derivative and the curvature: no inverse is formed."""
    g = MetricField.flat(4)
    assert tractor_curvature(g).is_zero()
    assert "_inverse" not in vars(g)


def test_metric_calculus_is_memoized():
    g = _sample_metric()
    assert christoffel_field(g) is christoffel_field(g)
    assert riemann(g) is riemann(g)
    assert g.inverse() is g.inverse()
