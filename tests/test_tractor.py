from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from helpers import rand_field
from killingcalc.fields import MetricField, PolyTensorField
from killingcalc.killing import killing_kernel, killing_operator
from killingcalc.poly import PolyScalar
from killingcalc.prolong import build_T
from killingcalc.tensor import Tensor
from killingcalc.tractor import (
    ComponentSection,
    TractorSection,
    flat_component_derivative,
    flat_parallel_dimension,
    killing_lift,
    tractor_curvature,
    tractor_derivative,
)

P = PolyScalar


def _rotation():
    return PolyTensorField(
        2, 1, {(1,): P.variable(2, 2), (2,): P.variable(2, 1).neg()}
    )


def _sample_metric(n=2, seed=None):
    """Second-order Taylor metric; with a seed, a random symmetric jet."""
    g0 = Tensor(n, 2, {(i, i): Fraction(1) for i in range(1, n + 1)})
    if seed is None:
        ddg0 = Tensor(n, 4, {(2, 2, 1, 1): Fraction(2)})
        return MetricField.from_jet2(g0, Tensor(n, 3, {}), ddg0)
    rng = random.Random(seed)
    dg = {}
    for c in range(1, n + 1):
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                v = Fraction(rng.randint(-2, 2))
                if v:
                    dg[(c, a, b)] = v
                    dg[(c, b, a)] = v
    ddg = {}
    for c in range(1, n + 1):
        for d in range(c, n + 1):
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    v = Fraction(rng.randint(-2, 2))
                    if v:
                        for cc, dd in {(c, d), (d, c)}:
                            for aa, bb in {(a, b), (b, a)}:
                                ddg[(cc, dd, aa, bb)] = v
    return MetricField.from_jet2(g0, Tensor(n, 3, dg), Tensor(n, 4, ddg))


def test_section_validation():
    rot = _rotation()
    sym = PolyTensorField(2, 2, {(1, 2): P.const(2, 1)})
    with pytest.raises(ValueError):
        TractorSection(rot, sym)  # k part must be antisymmetric
    with pytest.raises(ValueError):
        TractorSection(sym, sym)  # x part must have arity 1


def test_killing_vector_lifts_to_parallel_section():
    rot = _rotation()
    g = MetricField.flat(2)
    sec = killing_lift(rot)
    assert not sec.k_part.is_zero()
    assert tractor_derivative(sec, g).is_zero()


def test_non_killing_lift_shows_the_symmetrized_gradient():
    g = MetricField.flat(2)
    bad = PolyTensorField(2, 1, {(1,): P.variable(2, 1).mul(P.variable(2, 1))})
    d = tractor_derivative(killing_lift(bad), g)
    assert d.x_part == killing_operator(bad)
    assert not d.is_zero()


def test_parallel_iff_killing():
    rng = random.Random(137)
    for n in (2, 3):
        g = MetricField.flat(n)
        for X in killing_kernel(n, 1, 1):
            assert tractor_derivative(killing_lift(X), g).is_zero()
        for _ in range(5):
            X = rand_field(rng, n, 1, 2)
            parallel = tractor_derivative(killing_lift(X), g).is_zero()
            killing = killing_operator(X).is_zero()
            assert parallel == killing


def test_flat_connection_curvature_vanishes():
    for n in (2, 3):
        F = tractor_curvature(MetricField.flat(n))
        assert F.is_zero()
        assert F.nonzero_witness() is None


def test_constant_curvature_metrics_are_tractor_flat():
    for kappa in (Fraction(1), Fraction(-1)):
        F = tractor_curvature(MetricField.stereographic(2, kappa))
        assert F.is_zero(), F.nonzero_witness()


def test_sample_metric_obstruction_sits_in_the_two_form_slot():
    F = tractor_curvature(_sample_metric())
    assert not F.is_zero()
    w = F.nonzero_witness()
    assert w["slot"] == "k"
    assert F.covector_piece_zero()


def test_covector_piece_cancels_for_random_sample_metrics():
    for seed in (1, 2, 3, 4, 5):
        g = _sample_metric(seed=seed)
        assert tractor_curvature(g).covector_piece_zero()


def test_component_form_matches_pair_form_at_valence_one():
    rot = _rotation()
    sec = killing_lift(rot)
    cs = ComponentSection(2, 1, [sec.x_part, sec.k_part])
    outs = flat_component_derivative(cs)
    d = tractor_derivative(sec, MetricField.flat(2))
    assert outs[0] == d.x_part
    assert outs[1] == d.k_part
    assert all(o.is_zero() for o in outs)


def test_component_membership_enforced():
    rot = _rotation()
    sym = PolyTensorField(2, 2, {(1, 1): P.const(2, 1)})
    with pytest.raises(ValueError):
        ComponentSection(2, 1, [rot, sym])
    with pytest.raises(ValueError):
        ComponentSection(2, 1, [rot])  # wrong number of components


def test_parallel_dimension_equals_bundle_dimension():
    for n, ell, want in ((2, 1, 3), (3, 1, 6), (2, 2, 6), (3, 3, 50), (4, 2, 50)):
        assert flat_parallel_dimension(n, ell) == want


def test_parallel_dimension_stable_under_degree_slack():
    assert flat_parallel_dimension(2, 1, 3) == 3
    assert flat_parallel_dimension(2, 2, 3) == 6


def test_parallel_dimension_past_the_ambient_memory_wall():
    # 27440 columns; the system on ambient index tuples wrote 2474325 rows
    # here and took about 1 GB
    assert flat_parallel_dimension(5, 3) == 490


def test_parallel_system_memory_stays_small():
    """The coordinate system at n=3, ell=3 peaks near 1.6 MB of Python
    allocations, realization excluded; its 31290 rows on ambient index
    tuples peaked near 13 MB."""
    build_T(3, 3)
    tracemalloc.start()
    try:
        assert flat_parallel_dimension(3, 3) == 50
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
