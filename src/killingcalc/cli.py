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

One table, ``_COMMANDS``, holds the commands and their options, and
drives the parsing, the ``usage:`` line and ``-h``/``--help``.  It takes
what argparse took: ``--opt value`` and ``--opt=value``, a unique prefix
of a long option (``--out`` for ``--output``), and the last of repeated
values.  A usage error prints the usage line and then
``killingcalc[ COMMAND]: error: MESSAGE`` with argparse's message, and
exits 2.  argparse itself is not imported: importing it and building
its parser cost a fresh process more than a ``range-check`` document
computes.
"""

from __future__ import annotations

import json
import sys
import time

from killingcalc.cap import CapExceeded

SCHEMA_VERSION = 1

__all__ = ["main", "SCHEMA_VERSION"]


class UsageError(Exception):
    """A command line the table refuses; reported as a usage error."""


def _parse_range(text: str, minimum: int = 1) -> range:
    """'4' -> range(4, 5); '2..5' -> range(2, 6); values below minimum are
    rejected.  The range is not expanded: the job builders read it one
    size at a time and refuse an oversized size before reading on."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise UsageError(f"empty range {text!r}")
    else:
        lo = hi = int(text)
    if lo < minimum:
        raise UsageError(f"values must be at least {minimum}, got {text!r}")
    return range(lo, hi + 1)


def _n_range(text: str) -> range:
    return _parse_range(text, 2)


# ---------------------------------------------------------------------------
# the command table.  command -> (help, options); an option is
# (name, convert, default, help).  convert None marks a flag, False unless
# given; the default _REQUIRED marks an option that must be given.

_PROG = "killingcalc"
_REQUIRED = object()
_HELP = ("-h", "--help")

_N = ("--n", _n_range, _REQUIRED, "base dimension, a value like 3 or a range like 2..4")
_ELL = ("--ell", _parse_range, _REQUIRED, "valence, a value like 2 or a range like 1..3")
_REPORT = (
    ("--output", str, None, "write the JSON report to this path"),
    ("--timings", None, False, "record wall times in the report (breaks byte-identity)"),
)

_COMMANDS = {
    "verify-key": ("two-slot skewing bijectivity", (_N, *_REPORT)),
    "complex": ("differential complex checks", (_N, _ELL, *_REPORT)),
    "kostant": ("Lie algebra cohomology cross-checks", (_N, _ELL, *_REPORT)),
    "killing": ("Killing kernel dimension checks", (_N, _ELL, *_REPORT)),
    "range-check": (
        "solve for a potential of a symmetric 2-tensor field, "
        "or print the obstruction certificate",
        (
            ("--n", int, None, "expected base dimension"),
            ("--input", str, _REQUIRED, "field document (JSON)"),
            ("--degree-cap", int, 6,
             "largest potential degree the solver may attempt (default 6)"),
        ),
    ),
    "suite": ("run every check family over ranges", (_N, _ELL, *_REPORT)),
}


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _label(name: str, convert) -> str:
    return name if convert is None else f"{name} {_dest(name).upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {_PROG} [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [f"usage: {_PROG} {command} [-h]"]
    for name, convert, default, _ in _COMMANDS[command][1]:
        word = _label(name, convert)
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words)


def _show_help(command: str | None):
    from textwrap import fill

    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        text = (
            "exact verification of prolongation complexes, their cohomology, "
            "and flat-space Killing operators"
        )
        rows += [(c, help_) for c, (help_, _) in _COMMANDS.items()]
    else:
        text, options = _COMMANDS[command]
        rows += [(_label(name, convert), help_) for name, convert, _, help_ in options]
    print(_usage(command), fill(text, 79), sep="\n\n", end="\n\n")
    for label, help_ in rows:
        indent = f"  {label:<25}"
        print(fill(help_, 79, initial_indent=indent, subsequent_indent=" " * 27,
                   break_on_hyphens=False))
    if command is None:
        print(
            "\nOptions take a value as '--opt value' or '--opt=value', a unique\n"
            "prefix names an option, and a repeated option keeps its last value.\n"
            f"Run '{_PROG} COMMAND -h' for the options of a command."
        )
    raise SystemExit(0)


def _flag(name: str, attached: str | None) -> None:
    if attached is not None:
        label = "-h/--help" if name in _HELP else name
        raise UsageError(f"argument {label}: ignored explicit argument {attached!r}")


def _option(token: str, names) -> tuple[str, str | None] | None:
    """The option a token names, with the value attached to it, or None
    when the token is a value; an unknown option names ''.  argparse's
    rules: '--name=value', a unique prefix of a long name, with or without
    '=value', and '-h' with letters attached; a negative number, '-', '--'
    and a token holding a space are values."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token in names:
        return token, None
    name, eq, attached = token.partition("=")
    if eq and name in names:
        return name, attached
    if token[1] == "-":
        found = [n for n in names if n.startswith(name)]
        attached = attached if eq else None
    else:
        found, attached = [n for n in names if n == token[:2]], token[2:]
    if len(found) > 1:
        raise UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
    if found:
        return found[0], attached
    if " " in token or token[-1] != "." and token[1:].replace(".", "", 1).isdecimal():
        return None
    return "", None


def _read_options(command: str, tokens: list[str]) -> tuple[dict, list[str]]:
    """The option values a command's tokens give, and the tokens left
    unread: values out of place, unknown options and all from '--' on."""
    options = {spec[0]: spec for spec in _COMMANDS[command][1]}
    end = tokens.index("--") if "--" in tokens else len(tokens)
    names = (*_HELP, *options)
    hits = [_option(t, names) for t in tokens[:end]]
    values = {_dest(n): d for n, _, d, _ in options.values() if d is not _REQUIRED}
    unread, i = [], 0
    while i < end:
        token, hit = tokens[i], hits[i]
        i += 1
        if not hit or not hit[0]:
            unread.append(token)
            continue
        name, value = hit
        convert = options[name][1] if name in options else None
        if convert is None:
            _flag(name, value)
            if name in _HELP:
                _show_help(command)
            value = True
        else:
            if value is None:
                if i == end or hits[i]:
                    raise UsageError(f"argument {name}: expected one argument")
                value, i = tokens[i], i + 1
            try:
                value = convert(value)
            except UsageError as e:
                raise UsageError(f"argument {name}: {e}") from None
            except ValueError:
                raise UsageError(
                    f"argument {name}: invalid {convert.__name__} value: {value!r}"
                ) from None
        values[_dest(name)] = value
    missing = [n for n in options if _dest(n) not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return values, unread + tokens[end:]


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command and its option values.  A usage error exits 2 and a
    help request exits 0, each once it has printed, as argparse did."""
    where = None  # the command whose usage an error prints, None for the top
    try:
        unread = []
        for i, token in enumerate(argv):
            hit = _option(token, _HELP)
            if hit is None:
                break
            if hit[0]:
                _flag(*hit)
                _show_help(None)
            unread.append(token)
        else:
            raise UsageError("the following arguments are required: command")
        if token not in _COMMANDS:
            choices = ", ".join(map(repr, _COMMANDS))
            raise UsageError(
                f"argument command: invalid choice: {token!r} (choose from {choices})"
            )
        where = token
        values, rest = _read_options(token, argv[i + 1:])
        where = None
        if unread or rest:
            raise UsageError(f"unrecognized arguments: {' '.join(unread + rest)}")
    except UsageError as e:
        print(_usage(where), file=sys.stderr)
        prog = _PROG if where is None else f"{_PROG} {where}"
        print(f"{prog}: error: {e}", file=sys.stderr)
        raise SystemExit(2) from None
    return token, values


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


def _cmd_family(command: str, opts: dict) -> int:
    """Every command but range-check: the jobs of the command's family,
    over the n values, or the n values and ell values.  ``--output`` is
    opened once the caps have admitted every size and before the first
    check runs, so an unwritable path costs no check and a refused size
    leaves an existing report as it was."""
    from killingcalc.jobs import FAMILIES

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


def _cmd_range_check(opts: dict) -> int:
    from killingcalc.poly import PolyTensorField
    from killingcalc.potential import _guard_potential_cap, killing_potential_solve

    path = opts["input"]
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        print(f"error: cannot read {path}: {e.strerror}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(
            f"error: cannot read {path}: not UTF-8 at byte {e.start}",
            file=sys.stderr,
        )
        return 2
    except RecursionError:
        print(f"error: malformed JSON in {path}: nested too deeply", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(
            f"error: malformed JSON in {path}: {e.msg} "
            f"at line {e.lineno} column {e.colno}",
            file=sys.stderr,
        )
        return 2
    try:
        field = PolyTensorField.from_json_dict(data)
    except (ValueError, KeyError, TypeError) as e:
        print(f"error: invalid field document: {e}", file=sys.stderr)
        return 2
    if opts["n"] is not None and field.n != opts["n"]:
        print(
            f"error: field dimension {field.n} does not match --n {opts['n']}",
            file=sys.stderr,
        )
        return 2
    _guard_potential_cap(field)
    try:
        result = killing_potential_solve(field, opts["degree_cap"])
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = result.potential if result.solvable else result.certificate
    print(json.dumps(out.to_json_dict(), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    command, opts = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if command == "range-check":
            return _cmd_range_check(opts)
        return _cmd_family(command, opts)
    except CapExceeded as e:
        print(f"error: dimension cap exceeded: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
