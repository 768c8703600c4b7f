"""Per-layer spans around killingcalc's public functions, installed from outside.

The tracer wraps each target function and rebinds the wrapper at every
place a killingcalc module holds the original, because modules import
``rank``, ``kernel_basis``, ``rref`` and ``solve`` by name: patching only
``killingcalc.matrix`` would miss those calls.  Span names are
``<module>.<function>``, the names an in-library trace should keep.

A span's self time is its duration minus the durations of the spans it
called.  The time the wrappers themselves spend (counting nonzeros,
recording arguments) and the time ``install`` takes are excluded from
both and summed as the document's ``overhead_s``.  The stack of open
spans assumes one thread, which holds for the CLI's default ``--jobs 1``.

Run one CLI command traced; the trace document goes to TRACE_FILE:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE_FILE -- complex --n 3 --ell 1
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (span name, module, attribute path inside the module, recorder kind).
# "span" records calls and times; "elim" adds matrix sizes and coefficient
# bits; "distinct" adds the number of distinct argument tuples; "count"
# counts calls only (object constructions, too frequent for a span).
TARGETS = (
    ("elim.rref_int", "killingcalc.elim", "rref_int", "elim"),
    ("matrix.rank", "killingcalc.matrix", "rank", "span"),
    ("matrix.kernel_basis", "killingcalc.matrix", "kernel_basis", "span"),
    ("matrix.rref", "killingcalc.matrix", "rref", "span"),
    ("matrix.solve", "killingcalc.matrix", "solve", "span"),
    ("matrix.mul", "killingcalc.matrix", "ExactMatrix.__mul__", "span"),
    ("chain.composites_vanish", "killingcalc.chain", "ChainComplex.composites_vanish", "span"),
    ("chain.cohomology_dims", "killingcalc.chain", "cohomology_dims", "span"),
    ("prolong.build_partial", "killingcalc.prolong", "build_partial", "span"),
    ("prolong.graded_diagonal_complex", "killingcalc.prolong", "graded_diagonal_complex", "span"),
    ("kostant.build_V", "killingcalc.kostant", "build_V", "span"),
    ("kostant.koszul_differential", "killingcalc.kostant", "koszul_differential", "span"),
    ("young.realize_irreducible", "killingcalc.young", "realize_irreducible", "distinct"),
    ("killing.killing_kernel", "killingcalc.killing", "killing_kernel", "span"),
    ("killing.integrability_kernel", "killingcalc.killing", "integrability_kernel", "span"),
    ("killing.integrability_of_killing_matrix", "killingcalc.killing", "integrability_of_killing_matrix", "span"),
    ("killing.killing_potential_solve", "killingcalc.killing", "killing_potential_solve", "span"),
    ("tractor.flat_parallel_dimension", "killingcalc.tractor", "flat_parallel_dimension", "span"),
    ("tractor.tractor_curvature", "killingcalc.tractor", "tractor_curvature", "span"),
    ("fields.PolyTensorField", "killingcalc.fields", "PolyTensorField.__init__", "count"),
    ("fields.christoffel_solve", "killingcalc.fields", "christoffel_solve", "span"),
)

clock = time.perf_counter


def _resolve(modname: str, path: str):
    """(owner, attribute name, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *parents, leaf = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    original = vars(owner).get(leaf)
    if not callable(original):
        return None
    return owner, leaf, original


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "killingcalc" or name.startswith("killingcalc."))
    ]


def _rows_stats(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return len(rows) * ncols, sum(len(r) for r in rows)


class Tracer:
    """Spans and counters for one process; ``install`` patches the targets."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.originals: dict[str, object] = {}
        self._distinct: dict[str, set] = {}
        self._stack: list[float] = []  # child time of each open span
        self._overhead = [0.0]  # install time plus the wrappers' bookkeeping

    def install(self) -> None:
        import killingcalc.cli  # noqa: F401  loads every module the CLI uses

        i0 = clock()
        for name, modname, path, kind in self.targets:
            found = _resolve(modname, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, leaf, original = found
            wrapper = self._wrap(name, kind, original)
            self.originals[name] = original
            if isinstance(owner, type):
                setattr(owner, leaf, wrapper)
                continue
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        self._overhead[0] += clock() - i0

    def _wrap(self, name, kind, fn):
        if kind == "count":
            self.counts[name + ".constructions"] = 0
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name + ".constructions"] += 1
                return fn(*args, **kwargs)

            return counted

        self.spans[name] = rec = [0, 0.0, 0.0]
        stack = self._stack
        overhead = self._overhead
        before = after = None
        if kind == "elim":
            self.counts.update({name + ".cells": 0, name + ".nnz_in": 0, name + ".max_coeff_bits": 0})
            before = _rows_stats
            after = self._elim_after
        elif kind == "distinct":
            self._distinct[name] = set()
            seen = self._distinct[name]

            def before(args, kwargs):
                seen.add(repr((args, sorted(kwargs.items()))))

        def spanned(*args, **kwargs):
            w0 = clock()
            dur = 0.0
            try:
                pre = before(args, kwargs) if before else None
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    child = stack.pop()
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - child
                if after:
                    after(name, pre, result)
                return result
            finally:
                spent = clock() - w0
                overhead[0] += spent - dur
                if stack:
                    stack[-1] += spent

        return spanned

    def _elim_after(self, name, pre, result):
        cells, nnz = pre
        self.counts[name + ".cells"] += cells
        self.counts[name + ".nnz_in"] += nnz
        _, rows = result
        bits = max((abs(v).bit_length() for r in rows for v in r.values()), default=0)
        key = name + ".max_coeff_bits"
        self.counts[key] = max(self.counts[key], bits)

    def document(self) -> dict:
        counts = dict(self.counts)
        for name, seen in self._distinct.items():
            counts[name + ".distinct"] = len(seen)
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.spans.items()
            },
            "counts": counts,
            "absent": list(self.absent),
            "overhead_s": self._overhead[0],
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_FILE -- <killingcalc arguments>", file=sys.stderr)
        return 2
    trace_file, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from killingcalc import cli

    try:
        code = cli.main(cli_args)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(tracer.document(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
