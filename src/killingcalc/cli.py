"""Command-line front end: exact verification suites with JSON reports.

Every subcommand runs a family of checks at the requested sizes,
prints one PASS/FAIL line per check, and optionally writes a versioned
JSON report (see docs/report_schema.md).  Reports are deterministic:
checks are sorted by id, arguments are echoed in normalized form, and
wall times are recorded only when --timings is given.  Checks run one
after another in the calling thread.

Exit status: 0 when every check passes, 1 when any check fails (the
first failing id goes to stderr), 2 for usage and input errors,
including --n below 2, --ell below 1, oversized requests and malformed
JSON documents.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from killingcalc.cap import CapExceeded

SCHEMA_VERSION = 1

__all__ = ["main", "SCHEMA_VERSION"]


def _parse_range(text: str, minimum: int = 1) -> list[int]:
    """'4' -> [4]; '2..5' -> [2, 3, 4, 5]; values below minimum are rejected."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
    else:
        lo = hi = int(text)
    if lo < minimum:
        raise argparse.ArgumentTypeError(f"values must be at least {minimum}, got {text!r}")
    return list(range(lo, hi + 1))


def _n_range(text: str) -> list[int]:
    return _parse_range(text, 2)


# ---------------------------------------------------------------------------
# check families: each job is (id, inputs, thunk) with thunk() -> (computed,
# predicted); the verdict is plain equality of the two values.  Checks that
# read one cohomology report share it through a memo made per job list and
# keyed by (n, ell), so each complex is built and ranked once.  Each builder
# imports its own family, so a command loads only the modules it runs, and
# applies the family's size cap to every size as it builds the list, so an
# oversized range is refused before its first check runs.

def _jobs_key(n_values):
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


def _jobs_complex(pairs):
    from killingcalc.prolong import _guard_cap, complex_cohomology

    report = cache(complex_cohomology)
    jobs = []
    for n, ell in pairs:
        _guard_cap(n, ell, None)
        inputs = {"n": n, "ell": ell}

        def d_squared(n=n, ell=ell):
            # cohomology_dims raises unless every composite map of every
            # dominant weight block vanishes, so a report exists only for
            # a genuine complex
            report(n, ell)
            return True, True

        def cohomology(n=n, ell=ell):
            rep = report(n, ell)
            return list(rep.computed), list(rep.predicted)

        def euler(n=n, ell=ell):
            return report(n, ell).euler, 0

        jobs.append((f"complex.n{n}.ell{ell}.d-squared", inputs, d_squared))
        jobs.append((f"complex.n{n}.ell{ell}.cohomology", inputs, cohomology))
        jobs.append((f"complex.n{n}.ell{ell}.euler", inputs, euler))
    return jobs


def _jobs_kostant(pairs):
    from killingcalc.kostant import branching_check, lie_algebra_cohomology
    from killingcalc.prolong import _guard_cap

    report = cache(lie_algebra_cohomology)
    jobs = []
    for n, ell in pairs:
        _guard_cap(n, ell, None)
        inputs = {"n": n, "ell": ell}

        def dims(n=n, ell=ell):
            rep = report(n, ell)
            return list(rep.computed), list(rep.predicted)

        def weyl(n=n, ell=ell):
            rep = report(n, ell)
            return list(rep.computed), list(rep.weyl)

        def euler(n=n, ell=ell):
            rep = report(n, ell)
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


def _jobs_killing(pairs):
    from killingcalc.killing import (
        _guard_killing_cap,
        killing_kernel,
        killing_kernel_vectors,
        symmetric_coordinates,
    )
    from killingcalc.matrix import ExactMatrix, rref
    from killingcalc.prolong import build_T
    from killingcalc.tractor import flat_parallel_dimension

    jobs = []
    for n, ell in pairs:
        _guard_killing_cap(n, ell)
        inputs = {"n": n, "ell": ell}

        def dim(n=n, ell=ell):
            want = build_T(n, ell).total_dim
            return len(killing_kernel(n, ell, ell)), want

        def degree_bound(n=n, ell=ell):
            tight = killing_kernel_vectors(n, ell, ell)
            slack = killing_kernel_vectors(n, ell, ell + 2)
            # re-index the tight vectors into the slack coordinates
            pos = {c: i for i, c in enumerate(symmetric_coordinates(n, ell, ell + 2))}
            relabel = [pos[c] for c in symmetric_coordinates(n, ell, ell)]
            ncols = len(pos)
            va = [{relabel[i]: v for i, v in vec.items()} for vec in tight]
            spans = [
                rref(ExactMatrix.from_columns(vecs, ncols).transpose())
                for vecs in (va, slack)
            ]
            same = spans[0] == spans[1]
            return (
                {"dim_slack": len(slack), "same_subspace": same},
                {"dim_slack": len(tight), "same_subspace": True},
            )

        def parallel(n=n, ell=ell):
            return flat_parallel_dimension(n, ell), build_T(n, ell).total_dim

        jobs.append((f"killing.n{n}.ell{ell}.dim", inputs, dim))
        jobs.append((f"killing.n{n}.ell{ell}.degree-bound", inputs, degree_bound))
        jobs.append((f"killing.n{n}.ell{ell}.parallel", inputs, parallel))
    return jobs


def _jobs_range_theorem(n_values):
    from fractions import Fraction

    from killingcalc.fields import PolyTensorField
    from killingcalc.killing import (
        integrability_kernel,
        integrability_of_killing_matrix,
        killing_potential_solve,
    )
    from killingcalc.poly import PolyScalar

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


def _jobs_tractor(n_values):
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


def _jobs_injectivity(pairs):
    from killingcalc.prolong import injectivity_implication_check

    jobs = []
    for n, ell in pairs:
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


def _jobs_graded(pairs):
    from killingcalc.prolong import _guard_cap, graded_diagonal_complex

    jobs = []
    for n, ell in pairs:
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


def _jobs_christoffel(n_values):
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


# ---------------------------------------------------------------------------
# execution and report assembly

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


def _emit(args, command: str, arguments: dict, checks) -> int:
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
    if getattr(args, "output", None):
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    for c in checks:
        print(f"{c['verdict'].upper():<4} {c['id']}")
    print(f"{passed}/{len(checks)} checks passed")
    if passed != len(checks):
        first = next(c for c in checks if c["verdict"] == "fail")
        print(f"failed: {first['id']}", file=sys.stderr)
        return 1
    return 0


def _pairs(n_values, ell_values):
    return [(n, ell) for n in n_values for ell in ell_values]


def _cmd_family(args) -> int:
    """verify-key, complex, kostant and killing: the jobs of the family
    ``args.jobs`` builds, over the n values or the (n, ell) pairs."""
    if "ell" in args:
        arguments = {"n": args.n, "ell": args.ell}
        jobs = args.jobs(_pairs(args.n, args.ell))
    else:
        arguments = {"n": args.n}
        jobs = args.jobs(args.n)
    return _emit(args, args.command, arguments, _run_jobs(jobs, args.timings))


def _cmd_range_check(args) -> int:
    from killingcalc.fields import PolyTensorField
    from killingcalc.killing import _guard_potential_cap, killing_potential_solve

    try:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        print(f"error: cannot read {args.input}: {e.strerror}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(
            f"error: malformed JSON in {args.input}: {e.msg} "
            f"at line {e.lineno} column {e.colno}",
            file=sys.stderr,
        )
        return 2
    try:
        field = PolyTensorField.from_json_dict(data)
    except (ValueError, KeyError, TypeError) as e:
        print(f"error: invalid field document: {e}", file=sys.stderr)
        return 2
    if args.n is not None and field.n != args.n:
        print(
            f"error: field dimension {field.n} does not match --n {args.n}",
            file=sys.stderr,
        )
        return 2
    _guard_potential_cap(field)
    try:
        result = killing_potential_solve(field, args.degree_cap)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = result.potential if result.solvable else result.certificate
    print(json.dumps(out.to_json_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_suite(args) -> int:
    pairs = _pairs(args.n, args.ell)
    jobs = []
    jobs += _jobs_key(args.n)
    jobs += _jobs_complex(pairs)
    jobs += _jobs_kostant(pairs)
    jobs += _jobs_killing(pairs)
    jobs += _jobs_range_theorem([n for n in args.n if n <= 3])
    jobs += _jobs_tractor(args.n)
    jobs += _jobs_injectivity(pairs)
    jobs += _jobs_graded(pairs)
    jobs += _jobs_christoffel(args.n)
    checks = _run_jobs(jobs, args.timings)
    return _emit(args, "suite", {"n": args.n, "ell": args.ell}, checks)


def _add_common(sub, with_ell: bool) -> None:
    sub.add_argument(
        "--n", type=_n_range, required=True,
        help="base dimension, a value like 3 or a range like 2..4",
    )
    if with_ell:
        sub.add_argument(
            "--ell", type=_parse_range, required=True,
            help="valence, a value like 2 or a range like 1..3",
        )
    sub.add_argument("--output", help="write the JSON report to this path")
    sub.add_argument(
        "--timings", action="store_true",
        help="record wall times in the report (breaks byte-identity)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="killingcalc",
        description="exact verification of prolongation complexes, their "
        "cohomology, and flat-space Killing operators",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for command, help_text, jobs in (
        ("verify-key", "two-slot skewing bijectivity", _jobs_key),
        ("complex", "differential complex checks", _jobs_complex),
        ("kostant", "Lie algebra cohomology cross-checks", _jobs_kostant),
        ("killing", "Killing kernel dimension checks", _jobs_killing),
    ):
        p = subs.add_parser(command, help=help_text)
        _add_common(p, with_ell=command != "verify-key")
        p.set_defaults(func=_cmd_family, jobs=jobs)

    p = subs.add_parser(
        "range-check",
        help="solve for a potential of a symmetric 2-tensor field, "
        "or print the obstruction certificate",
    )
    p.add_argument("--n", type=int, help="expected base dimension")
    p.add_argument("--input", required=True, help="field document (JSON)")
    p.add_argument(
        "--degree-cap", type=int, default=6,
        help="largest potential degree the solver may attempt",
    )
    p.set_defaults(func=_cmd_range_check)

    p = subs.add_parser("suite", help="run every check family over ranges")
    _add_common(p, with_ell=True)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as e:
        print(f"error: dimension cap exceeded: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
