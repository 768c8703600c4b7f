"""The check families of the command-line front end.

Each job is (id, inputs, thunk) with thunk() -> (computed, predicted);
the verdict is plain equality of the two values.  The complex, kostant
and graded checks read the cohomology tables their families memoize per
(n, ell) and process, so each complex is ranked once.  Each builder
imports its own family, so a command loads only the modules it runs.
It reads its n and ell ranges one size at a time, n-major, and applies
the family's size cap to each as it builds the list: every cap grows
with n and ell, so a range of any length is refused at its first
oversized size, before its first check runs.
"""

from __future__ import annotations

__all__ = ["FAMILIES"]


def _pairs(n_values, ell_values):
    """The (n, ell) pairs of two ranges, n-major, made as they are read."""
    return ((n, ell) for n in n_values for ell in ell_values)


def key_jobs(n_values):
    from killingcalc.prolong import _guard_key_cap, key_isomorphism_check

    jobs = []
    for n in n_values:
        _guard_key_cap(n, None)

        def thunk(n=n):
            rep = key_isomorphism_check(n)
            return (
                {"dimension": rep["dimension"], "rank": rep["rank"]},
                {"dimension": rep["dimension"], "rank": rep["dimension"]},
            )
        jobs.append((f"key.n{n}", {"n": n}, thunk))
    return jobs


def complex_jobs(n_values, ell_values):
    from killingcalc.prolong import _guard_cap, complex_cohomology

    jobs = []
    for n, ell in _pairs(n_values, ell_values):
        _guard_cap(n, ell, None)
        inputs = {"n": n, "ell": ell}

        def d_squared(n=n, ell=ell):
            # cohomology_dims raises unless every composite map of every
            # dominant weight block vanishes, so a report exists only for
            # a genuine complex
            complex_cohomology(n, ell)
            return True, True

        def cohomology(n=n, ell=ell):
            rep = complex_cohomology(n, ell)
            return list(rep.computed), list(rep.predicted)

        def euler(n=n, ell=ell):
            return complex_cohomology(n, ell).euler, 0

        jobs.append((f"complex.n{n}.ell{ell}.d-squared", inputs, d_squared))
        jobs.append((f"complex.n{n}.ell{ell}.cohomology", inputs, cohomology))
        jobs.append((f"complex.n{n}.ell{ell}.euler", inputs, euler))
    return jobs


def kostant_jobs(n_values, ell_values):
    from killingcalc.kostant import branching_check, lie_algebra_cohomology
    from killingcalc.prolong import _guard_cap

    jobs = []
    for n, ell in _pairs(n_values, ell_values):
        _guard_cap(n, ell, None)
        inputs = {"n": n, "ell": ell}

        def dims(n=n, ell=ell):
            rep = lie_algebra_cohomology(n, ell)
            return list(rep.computed), list(rep.predicted)

        def weyl(n=n, ell=ell):
            rep = lie_algebra_cohomology(n, ell)
            return list(rep.computed), list(rep.weyl)

        def euler(n=n, ell=ell):
            rep = lie_algebra_cohomology(n, ell)
            return sum((-1) ** p * h for p, h in enumerate(rep.computed)), 0

        def branching(n=n, ell=ell):
            rep = branching_check(n, ell)
            return (
                {
                    "dims_match": rep["dims_match"],
                    "action_shifts_grade": rep["action_shifts_grade"],
                },
                {"dims_match": True, "action_shifts_grade": True},
            )

        jobs.append((f"kostant.n{n}.ell{ell}.dims", inputs, dims))
        jobs.append((f"kostant.n{n}.ell{ell}.weyl", inputs, weyl))
        jobs.append((f"kostant.n{n}.ell{ell}.euler", inputs, euler))
        jobs.append((f"kostant.n{n}.ell{ell}.branching", inputs, branching))
    return jobs


def killing_jobs(n_values, ell_values):
    from killingcalc.killing import (
        _guard_killing_cap,
        degree_bound_check,
        killing_kernel,
        killing_kernel_vectors,
    )
    from killingcalc.tractor import flat_parallel_dimension
    from killingcalc.young import YoungDiagram, gl_dimension

    jobs = []
    for n, ell in _pairs(n_values, ell_values):
        _guard_killing_cap(n, ell)
        inputs = {"n": n, "ell": ell}
        # dim T, the hook-content dimension of (ell, ell) over n + 1
        bundle = gl_dimension(YoungDiagram((ell, ell)), n + 1)

        def dim(n=n, ell=ell, bundle=bundle):
            return len(killing_kernel(n, ell, ell)), bundle

        def degree_bound(n=n, ell=ell):
            dim_slack, same = degree_bound_check(n, ell)
            return (
                {"dim_slack": dim_slack, "same_subspace": same},
                {"dim_slack": len(killing_kernel_vectors(n, ell, ell)), "same_subspace": True},
            )

        def parallel(n=n, ell=ell, bundle=bundle):
            return flat_parallel_dimension(n, ell), bundle

        jobs.append((f"killing.n{n}.ell{ell}.dim", inputs, dim))
        jobs.append((f"killing.n{n}.ell{ell}.degree-bound", inputs, degree_bound))
        jobs.append((f"killing.n{n}.ell{ell}.parallel", inputs, parallel))
    return jobs


def range_theorem_jobs(n_values):
    from fractions import Fraction

    from killingcalc.killing import integrability_kernel, integrability_of_killing_matrix
    from killingcalc.poly import PolyScalar, PolyTensorField
    from killingcalc.potential import killing_potential_solve

    jobs = []
    for n in n_values:
        inputs = {"n": n}

        def composite(n=n):
            return integrability_of_killing_matrix(n, 5).is_zero(), True

        def kernel_solves(n=n):
            basis = integrability_kernel(n, 4)
            good = 0
            for f in basis:
                res = killing_potential_solve(f)
                if res.solvable:
                    good += 1
            return (
                {"kernel_dim": len(basis), "solved": good},
                {"kernel_dim": len(basis), "solved": len(basis)},
            )

        jobs.append((f"range.n{n}.composite-zero", inputs, composite))
        jobs.append((f"range.n{n}.kernel-solves", inputs, kernel_solves))

    def witness():
        omega = PolyTensorField(
            2, 2, {(1, 1): PolyScalar(2, {(0, 2): Fraction(1)})}
        )
        res = killing_potential_solve(omega)
        value = None
        if not res.solvable:
            c = res.certificate.at(1, 2, 1, 2)
            value = str(c.terms.get((0, 0), Fraction(0)))
        return {"solvable": res.solvable, "N_1212": value}, {
            "solvable": False,
            "N_1212": "2",
        }

    jobs.append(("range.witness", {"n": 2}, witness))
    return jobs


def _sample_metric(n: int):
    """Deterministic second-order jet with genuine curvature."""
    from fractions import Fraction

    from killingcalc.metric import MetricField
    from killingcalc.tensor import Tensor

    g0 = Tensor(n, 2, {(i, i): Fraction(1) for i in range(1, n + 1)})
    ddg0 = Tensor(n, 4, {(2, 2, 1, 1): Fraction(2)})
    return MetricField.from_jet2(g0, Tensor(n, 3, {}), ddg0)


def tractor_jobs(n_values):
    from killingcalc.metric import MetricField
    from killingcalc.tractor import tractor_curvature

    jobs = []
    for n in n_values:
        def flat(n=n):
            return tractor_curvature(MetricField.flat(n)).is_zero(), True

        jobs.append((f"tractor.flat.n{n}", {"n": n, "mode": "flat"}, flat))

    def stereo():
        return tractor_curvature(MetricField.stereographic(2, 1)).is_zero(), True

    def sample():
        cur = tractor_curvature(_sample_metric(2))
        return (
            {"zero": cur.is_zero(), "covector_piece_zero": cur.covector_piece_zero()},
            {"zero": False, "covector_piece_zero": True},
        )

    jobs.append(
        ("tractor.stereographic.n2", {"n": 2, "mode": "stereographic", "kappa": "1"}, stereo)
    )
    jobs.append(("tractor.sample-negative.n2", {"n": 2, "mode": "sample"}, sample))
    return jobs


def injectivity_jobs(n_values, ell_values):
    from killingcalc.prolong import injectivity_implication_check

    jobs = []
    for n, ell in _pairs(n_values, ell_values):
        def thunk(n=n, ell=ell):
            rep = injectivity_implication_check(n, ell)
            return (
                {
                    "intersection_dim": rep["intersection_dim"],
                    "relaxed_dim": rep["relaxed_dim"],
                },
                {"intersection_dim": 0, "relaxed_dim": rep["relaxed_expected"]},
            )
        jobs.append((f"injectivity.n{n}.ell{ell}", {"n": n, "ell": ell}, thunk))
    return jobs


def graded_jobs(n_values, ell_values):
    from killingcalc.prolong import _guard_cap, graded_diagonal_complex

    jobs = []
    for n, ell in _pairs(n_values, ell_values):
        _guard_cap(n, ell, None)
        for d in range(ell, n + 2 * ell + 1):
            def thunk(n=n, ell=ell, d=d):
                rep = graded_diagonal_complex(n, ell, d)
                return list(rep.cohomology), list(rep.expected)
            jobs.append(
                (f"graded.n{n}.ell{ell}.d{d}", {"n": n, "ell": ell, "grade": d}, thunk)
            )
    return jobs


def _random_symmetric_jet(rng, n: int):
    from fractions import Fraction

    from killingcalc.tensor import Tensor

    entries = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(b, n + 1):
                v = Fraction(rng.randint(-9, 9))
                if v:
                    entries[(a, b, c)] = v
                    entries[(a, c, b)] = v
    return Tensor(n, 3, entries)


def christoffel_jobs(n_values):
    import random

    from killingcalc.fields import (
        christoffel_closed_form,
        christoffel_homogeneous_kernel_dim,
        christoffel_solve,
    )

    jobs = []
    for n in n_values:
        inputs = {"n": n}

        def unique(n=n):
            return christoffel_homogeneous_kernel_dim(n), 0

        def random_jets(n=n):
            rng = random.Random(100 + n)
            agree = 0
            trials = 50
            for _ in range(trials):
                dg = _random_symmetric_jet(rng, n)
                if christoffel_solve(dg) == christoffel_closed_form(dg):
                    agree += 1
            return {"trials": trials, "agree": agree}, {"trials": trials, "agree": trials}

        jobs.append((f"christoffel.n{n}.unique", inputs, unique))
        jobs.append((f"christoffel.n{n}.random-jets", inputs, random_jets))
    return jobs


def suite_jobs(n_values, ell_values):
    """Every family, over the (n, ell) pairs or the n values; the range
    theorem runs at n <= 3 only."""
    return (
        key_jobs(n_values)
        + complex_jobs(n_values, ell_values)
        + kostant_jobs(n_values, ell_values)
        + killing_jobs(n_values, ell_values)
        + range_theorem_jobs([n for n in n_values if n <= 3])
        + tractor_jobs(n_values)
        + injectivity_jobs(n_values, ell_values)
        + graded_jobs(n_values, ell_values)
        + christoffel_jobs(n_values)
    )


# each command's job builder: verify-key over n values, the others over
# n values and ell values
FAMILIES = {
    "verify-key": key_jobs,
    "complex": complex_jobs,
    "kostant": kostant_jobs,
    "killing": killing_jobs,
    "suite": suite_jobs,
}
