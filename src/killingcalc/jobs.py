"""The check families of the command-line front end.

Each job is (id, inputs, thunk) with thunk() -> (computed, predicted);
the verdict is plain equality of the two values.  Each builder imports
its own family, so a command loads only the modules it runs, and hands
``_sized`` its (name, thunk) checks of one size.  ``_sized`` alone names
them ``family.n{n}[.ell{ell}][.name]``, echoes the size as their inputs,
and applies the family's guard from ``cap`` to each size as it reads
the ranges, n-major: every cap grows with n and ell, so a range of any
length is refused at its first oversized size, before its first check
runs.  The graded checks, which add a grade, and the fixed tractor and
witness checks write their own ids.  The cohomology checks read the
tables their families memoize per (n, ell), so each complex is ranked
once.

``_cmd_family`` runs a command's jobs and writes its report (see
docs/report_schema.md); ``cli`` imports it when a family command runs.
"""

from __future__ import annotations

import json
import sys
import time
from functools import partial

from killingcalc.cap import complex_guard, key_guard, killing_guard

SCHEMA_VERSION = 1

__all__ = ["FAMILIES", "SCHEMA_VERSION"]


def _sized(family, guard, checks, n_values, ell_values=None):
    """The jobs of a sized family over the n values, or the (n, ell)
    pairs n-major, each size guarded (unless guard is None) as it is read;
    ``checks(*size)`` gives the size's (name, thunk) pairs, a name of None
    leaving the id at the size."""
    if ell_values is None:
        sizes = ((n,) for n in n_values)
    else:
        sizes = ((n, ell) for n in n_values for ell in ell_values)
    jobs = []
    for size in sizes:
        if guard is not None:
            guard(*size)
        inputs = dict(zip(("n", "ell"), size))
        prefix = family + "".join(f".{k}{v}" for k, v in inputs.items())
        for name, thunk in checks(*size):
            jobs.append((prefix if name is None else f"{prefix}.{name}", inputs, thunk))
    return jobs


def key_jobs(n_values):
    from killingcalc.prolong import key_isomorphism_check

    def checks(n):
        def bijective():
            rep = key_isomorphism_check(n)
            dim = rep["dimension"]
            return {"dimension": dim, "rank": rep["rank"]}, {"dimension": dim, "rank": dim}
        return [(None, bijective)]

    return _sized("key", key_guard, checks, n_values)


def complex_jobs(n_values, ell_values):
    from killingcalc.prolong import complex_cohomology

    def checks(n, ell):
        def d_squared():
            # cohomology_dims raises unless every composite map of every
            # dominant weight block vanishes, so a report exists only for
            # a genuine complex
            complex_cohomology(n, ell)
            return True, True

        def cohomology():
            rep = complex_cohomology(n, ell)
            return list(rep.computed), list(rep.predicted)

        def euler():
            return complex_cohomology(n, ell).euler, 0

        return [("d-squared", d_squared), ("cohomology", cohomology), ("euler", euler)]

    return _sized("complex", complex_guard, checks, n_values, ell_values)


def kostant_jobs(n_values, ell_values):
    from killingcalc.kostant import branching_check, lie_algebra_cohomology

    def checks(n, ell):
        def dims():
            rep = lie_algebra_cohomology(n, ell)
            return list(rep.computed), list(rep.predicted)

        def weyl():
            rep = lie_algebra_cohomology(n, ell)
            return list(rep.computed), list(rep.weyl)

        def euler():
            rep = lie_algebra_cohomology(n, ell)
            return sum((-1) ** p * h for p, h in enumerate(rep.computed)), 0

        def branching():
            rep, keys = branching_check(n, ell), ("dims_match", "action_shifts_grade")
            return {k: rep[k] for k in keys}, dict.fromkeys(keys, True)

        return [("dims", dims), ("weyl", weyl), ("euler", euler), ("branching", branching)]

    return _sized("kostant", complex_guard, checks, n_values, ell_values)


def killing_jobs(n_values, ell_values):
    from killingcalc.killing import degree_bound_check, killing_kernel, killing_kernel_vectors
    from killingcalc.tractor import flat_parallel_dimension
    from killingcalc.young import YoungDiagram, gl_dimension

    def checks(n, ell):
        # dim T, the hook-content dimension of (ell, ell) over n + 1
        bundle = gl_dimension(YoungDiagram((ell, ell)), n + 1)

        def degree_bound():
            dim_slack, same = degree_bound_check(n, ell)
            return (
                {"dim_slack": dim_slack, "same_subspace": same},
                {"dim_slack": len(killing_kernel_vectors(n, ell, ell)), "same_subspace": True},
            )

        return [
            ("dim", lambda: (len(killing_kernel(n, ell, ell)), bundle)),
            ("degree-bound", degree_bound),
            ("parallel", lambda: (flat_parallel_dimension(n, ell), bundle)),
        ]

    return _sized("killing", killing_guard, checks, n_values, ell_values)


def range_theorem_jobs(n_values):
    from fractions import Fraction

    from killingcalc.killing import integrability_kernel, integrability_of_killing_matrix
    from killingcalc.poly import PolyScalar, PolyTensorField
    from killingcalc.potential import killing_potential_solve

    def checks(n):
        def kernel_solves():
            basis = integrability_kernel(n, 4)
            good = sum(killing_potential_solve(f).solvable for f in basis)
            return (
                {"kernel_dim": len(basis), "solved": good},
                {"kernel_dim": len(basis), "solved": len(basis)},
            )

        return [
            ("composite-zero", lambda: (integrability_of_killing_matrix(n, 5).is_zero(), True)),
            ("kernel-solves", kernel_solves),
        ]

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

    return _sized("range", None, checks, n_values) + [("range.witness", {"n": 2}, witness)]


def _sample_metric(n: int):
    """Deterministic second-order jet with genuine curvature."""
    from killingcalc.metric import MetricField

    g0 = {(i, i): 1 for i in range(1, n + 1)}
    return MetricField.from_jet2(n, g0, {}, {(2, 2, 1, 1): 2})


def tractor_jobs(n_values):
    from killingcalc.metric import MetricField
    from killingcalc.tractor import tractor_curvature

    def flat(n):
        return tractor_curvature(MetricField.flat(n)).is_zero(), True

    jobs = [(f"tractor.flat.n{n}", {"n": n, "mode": "flat"}, partial(flat, n)) for n in n_values]

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

    def checks(n, ell):
        def implication():
            rep = injectivity_implication_check(n, ell)
            return (
                {k: rep[k] for k in ("intersection_dim", "relaxed_dim")},
                {"intersection_dim": 0, "relaxed_dim": rep["relaxed_expected"]},
            )
        return [(None, implication)]

    return _sized("injectivity", complex_guard, checks, n_values, ell_values)


def graded_jobs(n_values, ell_values):
    from killingcalc.prolong import graded_diagonal_complex

    def grade(n, ell, d):
        rep = graded_diagonal_complex(n, ell, d)
        return list(rep.cohomology), list(rep.expected)

    jobs = []
    for n in n_values:
        for ell in ell_values:
            complex_guard(n, ell)
            for d in range(ell, n + 2 * ell + 1):
                inputs = {"n": n, "ell": ell, "grade": d}
                jobs.append((f"graded.n{n}.ell{ell}.d{d}", inputs, partial(grade, n, ell, d)))
    return jobs


def _random_symmetric_jet(rng, n: int) -> dict:
    entries = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(b, n + 1):
                v = rng.randint(-9, 9)
                if v:
                    entries[(a, b, c)] = entries[(a, c, b)] = v
    return entries


def christoffel_jobs(n_values):
    import random

    from killingcalc.fields import (
        christoffel_closed_form,
        christoffel_homogeneous_kernel_dim,
        christoffel_solve,
    )

    def checks(n):
        def random_jets():
            rng, trials = random.Random(100 + n), 50
            jets = (_random_symmetric_jet(rng, n) for _ in range(trials))
            agree = sum(christoffel_solve(n, dg) == christoffel_closed_form(n, dg) for dg in jets)
            return {"trials": trials, "agree": agree}, {"trials": trials, "agree": trials}

        return [
            ("unique", lambda: (christoffel_homogeneous_kernel_dim(n), 0)),
            ("random-jets", random_jets),
        ]

    return _sized("christoffel", None, checks, n_values)


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


# ---------------------------------------------------------------------------
# execution and report assembly, for every command but range-check

def _run_jobs(jobs, with_timings: bool):
    checks = []
    for cid, inputs, thunk in jobs:
        t0 = time.perf_counter()
        computed, predicted = thunk()
        seconds = time.perf_counter() - t0
        check = {
            "id": cid,
            "inputs": inputs,
            "computed": computed,
            "predicted": predicted,
            "verdict": "pass" if computed == predicted else "fail",
        }
        if with_timings:
            check["seconds"] = round(seconds, 6)
        checks.append(check)
    return sorted(checks, key=lambda c: c["id"])


def _emit(out, command: str, arguments: dict, checks) -> int:
    """Write the report to the open file ``out``, if any, then print the
    check lines and the summary; returns the exit status."""
    passed = sum(1 for c in checks if c["verdict"] == "pass")
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool": "killingcalc",
        "command": command,
        "arguments": arguments,
        "checks": checks,
        "summary": {
            "total": len(checks),
            "passed": passed,
            "failed": len(checks) - passed,
        },
        "verdict": "pass" if passed == len(checks) else "fail",
    }
    if out is not None:
        try:
            out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
            out.flush()
        except OSError as e:
            print(f"error: cannot write {out.name}: {e.strerror}", file=sys.stderr)
            return 2
    for c in checks:
        print(f"{c['verdict'].upper():<4} {c['id']}")
    print(f"{passed}/{len(checks)} checks passed")
    if passed != len(checks):
        first = next(c for c in checks if c["verdict"] == "fail")
        print(f"failed: {first['id']}", file=sys.stderr)
        return 1
    return 0


def _cmd_family(command: str, opts: dict) -> int:
    """Every command but range-check: the jobs of the command's family,
    over the n values, or the n values and ell values.  ``--output`` is
    opened once the caps have admitted every size and before the first
    check runs, so an unwritable path costs no check and a refused size
    leaves an existing report as it was."""
    ranges = {name: opts[name] for name in ("n", "ell") if name in opts}
    jobs = FAMILIES[command](*ranges.values())
    # the caps admitted every size, so the ranges are short enough to echo
    arguments = {name: list(values) for name, values in ranges.items()}
    try:
        out = open(opts["output"], "w", encoding="utf-8") if opts["output"] else None
    except OSError as e:
        print(f"error: cannot write {opts['output']}: {e.strerror}", file=sys.stderr)
        return 2
    try:
        return _emit(out, command, arguments, _run_jobs(jobs, opts["timings"]))
    finally:
        if out is not None:
            out.close()
