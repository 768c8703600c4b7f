"""Command-line front end: exact verification suites with JSON reports.

Every subcommand runs a family of checks at the requested sizes,
prints one PASS/FAIL line per check, and optionally writes a versioned
JSON report (see docs/report_schema.md).  Reports are deterministic:
checks are sorted by id, arguments are echoed in normalized form, and
wall times are recorded only when --timings is given.  Checks run one
after another in the calling thread.

Exit status: 0 when every check passes, 1 when any check fails (the
first failing id goes to stderr), 2 for usage and input errors,
including --n below 2, --ell below 1, oversized requests, unreadable,
undecodable or malformed JSON documents and an unwritable --output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from killingcalc.cap import CapExceeded

SCHEMA_VERSION = 1

__all__ = ["main", "SCHEMA_VERSION"]


def _parse_range(text: str, minimum: int = 1) -> range:
    """'4' -> range(4, 5); '2..5' -> range(2, 6); values below minimum are
    rejected.  The range is not expanded: the job builders read it one
    size at a time and refuse an oversized size before reading on."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
    else:
        lo = hi = int(text)
    if lo < minimum:
        raise argparse.ArgumentTypeError(f"values must be at least {minimum}, got {text!r}")
    return range(lo, hi + 1)


def _n_range(text: str) -> range:
    return _parse_range(text, 2)


# ---------------------------------------------------------------------------
# execution and report assembly.  The checks come from ``jobs``, imported
# only when a family command runs: ``python -m killingcalc.cli`` compiles
# this file as ``__main__`` on every run, never from a cached ``.pyc``, so
# it holds no check code, and ``range-check`` compiles no family.

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


def _cmd_family(args) -> int:
    """Every command but range-check: the jobs of the command's family,
    over the n values, or the n values and ell values.  ``--output`` is
    opened once the caps have admitted every size and before the first
    check runs, so an unwritable path costs no check and a refused size
    leaves an existing report as it was."""
    from killingcalc.jobs import FAMILIES

    ranges = {"n": args.n, "ell": args.ell} if "ell" in args else {"n": args.n}
    jobs = FAMILIES[args.command](*ranges.values())
    # the caps admitted every size, so the ranges are short enough to echo
    arguments = {name: list(values) for name, values in ranges.items()}
    try:
        out = open(args.output, "w", encoding="utf-8") if args.output else None
    except OSError as e:
        print(f"error: cannot write {args.output}: {e.strerror}", file=sys.stderr)
        return 2
    try:
        return _emit(out, args.command, arguments, _run_jobs(jobs, args.timings))
    finally:
        if out is not None:
            out.close()


def _cmd_range_check(args) -> int:
    from killingcalc.fields import PolyTensorField
    from killingcalc.potential import _guard_potential_cap, killing_potential_solve

    try:
        with open(args.input, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        print(f"error: cannot read {args.input}: {e.strerror}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(
            f"error: cannot read {args.input}: not UTF-8 at byte {e.start}",
            file=sys.stderr,
        )
        return 2
    except RecursionError:
        print(f"error: malformed JSON in {args.input}: nested too deeply", file=sys.stderr)
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

    for command, help_text in (
        ("verify-key", "two-slot skewing bijectivity"),
        ("complex", "differential complex checks"),
        ("kostant", "Lie algebra cohomology cross-checks"),
        ("killing", "Killing kernel dimension checks"),
    ):
        p = subs.add_parser(command, help=help_text)
        _add_common(p, with_ell=command != "verify-key")
        p.set_defaults(func=_cmd_family)

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
    p.set_defaults(func=_cmd_family)

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
