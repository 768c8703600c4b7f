from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from helpers import (
    field_obstruction,
    from_rows,
    higher_killing_operator,
    is_potential_by_field_calculus,
    lie_derivative_delta,
    rand_field,
    rand_symmetric_field,
    whole_solve,
)
from killingcalc.fields import (
    PolyTensorField,
    symmetrize_field,
)
from killingcalc import cap, potential
from killingcalc.cap import CapExceeded
from killingcalc.killing import (
    _operator_matrix,
    field_coefficient_vector,
    field_from_coefficients,
    integrability_kernel,
    integrability_of_killing_matrix,
    integrability_operator,
    killing_kernel,
    killing_operator,
    killing_potential_solve,
    symmetric_coordinates,
)
from killingcalc.matrix import rref
from killingcalc.potential import _is_symmetrized_gradient, _radial_potential
from killingcalc.poly import PolyScalar
from killingcalc.young import YoungDiagram, gl_dimension

P = PolyScalar


def test_operator_witnesses():
    const = PolyTensorField(2, 1, {(1,): P.const(2, 5)})
    assert killing_operator(const).is_zero()
    rotation = PolyTensorField(
        2, 1, {(1,): P.variable(2, 2), (2,): P.variable(2, 1).neg()}
    )
    assert killing_operator(rotation).is_zero()
    X = PolyTensorField(2, 1, {(1,): P.variable(2, 1).mul(P.variable(2, 1))})
    w = killing_operator(X)
    assert w.at(1, 1) == P(2, {(1, 0): Fraction(2)})
    assert w.at(1, 2).is_zero() and w.at(2, 2).is_zero()


def test_entry_points_agree_on_covectors():
    rng = random.Random(101)
    for _ in range(10):
        X = rand_field(rng, rng.choice((2, 3)), 1, 3)
        assert higher_killing_operator(X) == killing_operator(X)


def test_higher_operator_validates_symmetry():
    f = PolyTensorField(2, 2, {(1, 2): P.variable(2, 1)})
    with pytest.raises(ValueError, match="symmetric"):
        higher_killing_operator(f)


def test_products_of_flat_killing_vectors_are_higher_solutions():
    # sym(X Y) for Killing covectors X, Y lies in the valence-2 kernel
    n = 2
    fields = [
        PolyTensorField(n, 1, {(1,): P.const(n, 1)}),
        PolyTensorField(n, 1, {(2,): P.const(n, 1)}),
        PolyTensorField(n, 1, {(1,): P.variable(n, 2), (2,): P.variable(n, 1).neg()}),
    ]
    for X in fields:
        for Y in fields:
            comps = {}
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    p = X.at(a).mul(Y.at(b))
                    if not p.is_zero():
                        comps[(a, b)] = p
            prod = PolyTensorField(n, 2, comps)
            sym = symmetrize_field(prod, (1, 2))
            assert higher_killing_operator(sym).is_zero()


def test_kernel_dimensions_valence_one():
    for n in (2, 3, 4):
        ker = killing_kernel(n, 1, 3)
        assert len(ker) == n * (n + 1) // 2
        for f in ker:
            assert higher_killing_operator(f).is_zero()
            assert f.degree() <= 1


def test_kernel_dimensions_valence_two():
    for n in (2, 3):
        ker = killing_kernel(n, 2, 2)
        assert len(ker) == gl_dimension(YoungDiagram((2, 2)), n + 1)
        for f in ker:
            assert higher_killing_operator(f).is_zero()
            assert f.degree() <= 2


def test_kernel_stable_under_degree_slack():
    for n, ell in [(2, 1), (3, 1), (2, 2)]:
        tight = killing_kernel(n, ell, ell)
        slack = killing_kernel(n, ell, ell + 2)
        assert len(tight) == len(slack)
        va = [field_coefficient_vector(f, ell + 2) for f in tight]
        vb = [field_coefficient_vector(f, ell + 2) for f in slack]
        assert rref(from_rows(va))[1] == rref(from_rows(vb))[1]


def test_kernel_argument_validation():
    with pytest.raises(ValueError):
        killing_kernel(2, 0, 3)
    with pytest.raises(ValueError):
        killing_kernel(2, 2, 1)  # degree below the valence


def test_coefficient_coordinates_round_trip():
    rng = random.Random(103)
    for arity in (1, 2):
        f = rand_symmetric_field(rng, 2, arity, 3)
        vec = field_coefficient_vector(f, 3)
        ncoords = len(symmetric_coordinates(2, arity, 3))
        assert len(vec) == ncoords
        sparse = {i: v for i, v in enumerate(vec) if v}
        assert field_from_coefficients(2, arity, 3, sparse) == f
        with pytest.raises(ValueError):
            field_from_coefficients(2, arity, 3, {ncoords: 1})


def test_lie_derivative_route_matches_operator():
    rng = random.Random(107)
    for _ in range(50):
        n = rng.choice((2, 3))
        X = rand_field(rng, n, 1, 3)
        assert lie_derivative_delta(X) == killing_operator(X).scale(2)


def test_obstruction_witness():
    omega = PolyTensorField(2, 2, {(1, 1): P(2, {(0, 2): Fraction(1)})})
    N = integrability_operator(omega)
    assert N.at(1, 2, 1, 2) == P.const(2, 2)


def test_obstruction_symmetries():
    rng = random.Random(109)
    for _ in range(6):
        n = rng.choice((2, 3))
        om = rand_symmetric_field(rng, n, 2, 4)
        N = integrability_operator(om)
        for (a, b, c, d), s in N.comps.items():
            assert N.at(b, a, c, d) == s.neg()
            assert N.at(a, b, d, c) == s.neg()
            assert N.at(c, d, a, b) == s
        # first-Bianchi-type cycle over the last three slots
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(1, n + 1):
                    for d in range(1, n + 1):
                        cyc = N.at(a, b, c, d).add(N.at(a, c, d, b)).add(
                            N.at(a, d, b, c)
                        )
                        assert cyc.is_zero()


def test_obstruction_annihilates_gradients():
    assert integrability_of_killing_matrix(2, 5).is_zero()
    assert integrability_of_killing_matrix(3, 4).is_zero()


def test_obstruction_kernel_dimensions_frozen():
    # degree-4 n=3 (dimension 162) is exercised by the acceptance gate
    assert len(integrability_kernel(2, 4)) == 39
    assert len(integrability_kernel(3, 3)) == 99


def test_potential_round_trip_on_random_gradients():
    rng = random.Random(113)
    for _ in range(100):
        n = rng.choice((2, 3))
        X = rand_field(rng, n, 1, 4)
        omega = killing_operator(X)
        res = killing_potential_solve(omega)
        assert res.solvable
        assert killing_operator(res.potential) == omega


def _assert_free_variables_zero_potential(omega):
    """The closed-form potential is the free-variables-zero solution of
    the whole arity-1 operator matrix at degree deg omega + 1."""
    degree = omega.degree() + 1
    res = killing_potential_solve(omega)
    assert res.solvable
    want = whole_solve(_operator_matrix(omega.n, 1, degree), field_coefficient_vector(omega, degree - 1))
    assert want is not None
    assert field_coefficient_vector(res.potential, degree) == want


@pytest.mark.parametrize("n", [2, 3])
def test_potential_of_every_obstruction_kernel_vector_is_the_matrix_solve(n):
    for omega in integrability_kernel(n, 4):
        _assert_free_variables_zero_potential(omega)


def test_potential_of_random_gradients_is_the_matrix_solve():
    rng = random.Random(137)
    for n in (2, 3, 4):
        for degree in range(1, 6):
            for _ in range(3):
                _assert_free_variables_zero_potential(killing_operator(rand_field(rng, n, 1, degree)))


def test_certificate_is_the_field_calculus_obstruction():
    rng = random.Random(139)
    seen = 0
    for _ in range(40):
        n = rng.choice((2, 3, 4))
        omega = rand_symmetric_field(rng, n, 2, rng.randint(2, 4))
        res = killing_potential_solve(omega)
        want = field_obstruction(omega)
        assert res.solvable == want.is_zero()
        if not res.solvable:
            seen += 1
            assert res.certificate == want
            assert json.dumps(res.certificate.to_json_dict()) == json.dumps(want.to_json_dict())
    assert seen >= 30


def test_term_certificate_agrees_with_field_calculus():
    """On the 162 solves of the n=3 range check and on the witness, whose
    ray integral is no potential, the certificate on terms and the
    field-calculus round trip give the same verdict."""
    basis = integrability_kernel(3, 4)
    assert len(basis) == 162
    for omega in basis:
        x = _radial_potential(omega)
        assert _is_symmetrized_gradient(x, omega)
        assert is_potential_by_field_calculus(x, omega)
    omega = PolyTensorField(2, 2, {(1, 1): P(2, {(0, 2): Fraction(1)})})
    x = _radial_potential(omega)
    assert not _is_symmetrized_gradient(x, omega)
    assert not is_potential_by_field_calculus(x, omega)


def test_corrupted_potential_is_rejected(monkeypatch):
    rng = random.Random(149)
    omega = killing_operator(rand_field(rng, 3, 1, 3))
    x = _radial_potential(omega)
    rotation = PolyTensorField(3, 1, {(1,): P.variable(3, 2), (2,): P.variable(3, 1).neg()})
    bumps = [
        PolyTensorField(3, 1, {(2,): P(3, {(1, 0, 1): Fraction(1, 3)})}),
        PolyTensorField(3, 1, {(3,): P.variable(3, 3)}),
        x.scale(Fraction(-1, 2)),
    ]
    for bump in bumps:
        bad = x.add(bump)
        assert not _is_symmetrized_gradient(bad, omega)
        assert not is_potential_by_field_calculus(bad, omega)
    # a Killing vector changes the potential, not its gradient
    assert _is_symmetrized_gradient(x.add(rotation), omega)
    assert is_potential_by_field_calculus(x.add(rotation), omega)
    monkeypatch.setattr(potential, "_radial_potential", lambda w: x.add(bumps[0]))
    with pytest.raises(RuntimeError, match="round-trip"):
        killing_potential_solve(omega)


def test_potential_is_deterministic():
    rng = random.Random(127)
    X = rand_field(rng, 2, 1, 3)
    omega = killing_operator(X)
    a = killing_potential_solve(omega)
    b = killing_potential_solve(omega)
    assert a.potential == b.potential


def test_certificate_path():
    omega = PolyTensorField(2, 2, {(1, 1): P(2, {(0, 2): Fraction(1)})})
    res = killing_potential_solve(omega)
    assert not res.solvable
    assert res.potential is None
    assert res.certificate.at(1, 2, 1, 2) == P.const(2, 2)


def test_zero_input_returns_zero_potential():
    res = killing_potential_solve(PolyTensorField.zero(3, 2))
    assert res.solvable and res.potential.is_zero()


def test_degree_cap_on_the_solvable_path(monkeypatch):
    """The library solve applies no cap; the degree bound of a command is
    ``cap.potential_guard``, which counts the degree-7 potential of this
    degree-6 omega at n=2 as 2 * C(9, 2) = 72 coefficients."""
    rng = random.Random(131)
    omega = killing_operator(rand_field(rng, 2, 1, 7))
    assert omega.degree() == 6
    assert cap.potential_guard(2, omega.degree() + 1) == 72
    monkeypatch.setattr(cap, "DEFAULT_CAP", 71)
    with pytest.raises(CapExceeded, match="degree 7 has 72 columns, cap is 71"):
        cap.potential_guard(2, omega.degree() + 1)
    res = killing_potential_solve(omega)
    assert res.solvable
    assert killing_operator(res.potential) == omega


def test_solver_input_validation():
    with pytest.raises(ValueError):
        killing_potential_solve(PolyTensorField.zero(2, 1))  # arity
    asym = PolyTensorField(2, 2, {(1, 2): P.variable(2, 1)})
    unequal = PolyTensorField(2, 2, {(1, 2): P.variable(2, 1), (2, 1): P.variable(2, 2)})
    for omega in (asym, unequal):
        with pytest.raises(ValueError, match="symmetric"):
            killing_potential_solve(omega)
