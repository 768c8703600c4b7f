"""Self-tests of the benchmark harness.

Run from the repository root (takes a few minutes, because it
makes two traced runs of every workload):

    python3 perfbench/selftest.py

The file name keeps pytest from collecting it with the package's tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import fielddocs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

# Per-layer metrics each workload exists to exercise; each must be > 0.
FIRES = {
    "cohomology": (
        "elim.rref_int.self_s", "matrix.rank.calls", "matrix.mul.calls",
        "chain.composites_vanish.calls", "chain.cohomology_dims.calls",
        "prolong.build_partial.calls", "kostant.build_V.self_s",
        "kostant.koszul_differential.calls", "young.realize_irreducible.calls",
    ),
    "operators": (
        "elim.rref_int.self_s", "matrix.kernel_basis.self_s", "matrix.rref.self_s",
        "killing.killing_kernel.calls", "killing.killing_potential_solve.calls",
        "tractor.flat_parallel_dimension.self_s", "fields.PolyTensorField.constructions",
    ),
    "suite-small": (
        "elim.rref_int.calls", "matrix.rank.calls", "matrix.mul.calls", "matrix.solve.self_s",
        "chain.composites_vanish.calls", "chain.cohomology_dims.calls",
        "prolong.build_partial.calls", "prolong.graded_diagonal_complex.self_s",
        "kostant.build_V.self_s", "kostant.koszul_differential.calls",
        "young.realize_irreducible.calls", "killing.integrability_kernel.self_s",
        "killing.integrability_of_killing_matrix.self_s", "killing.killing_potential_solve.calls",
        "tractor.tractor_curvature.self_s", "fields.christoffel_solve.self_s", "cli.other_s",
    ),
}


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def traced(workload: str) -> tuple[dict, dict]:
    out = bench(workload, 1)
    if out.returncode != 0:
        raise AssertionError(f"traced {workload} run failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def fresh_package() -> None:
    """Forget killingcalc so the next import starts unpatched."""
    for name in [n for n in sys.modules if n == "killingcalc" or n.startswith("killingcalc.")]:
        del sys.modules[name]


class ContractTests(unittest.TestCase):
    def test_benchmark_json_matches_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(m[0], m[1]) for m in run.PER_LAYER])

    def test_fails_without_the_program(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            out = bench("suite-small", 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class TracerTests(unittest.TestCase):
    def setUp(self):
        fresh_package()

    def tearDown(self):
        fresh_package()

    def test_rebinds_every_import_site(self):
        t = tracer.Tracer()
        t.install()
        self.assertEqual(t.absent, [])
        for name, original in t.originals.items():
            for mod in tracer._package_modules():
                for attr, value in vars(mod).items():
                    self.assertIsNot(value, original, f"{mod.__name__}.{attr} bypasses {name}")
        from killingcalc import chain, fields, killing, matrix, prolong, tractor, young

        for mod, attr in ((chain, "rank"), (prolong, "rank"), (killing, "kernel_basis"),
                          (killing, "rref"), (tractor, "kernel_basis"), (fields, "kernel_basis"),
                          (fields, "solve"), (young, "kernel_basis")):
            self.assertIs(getattr(mod, attr), getattr(matrix, attr))
        prolong.complex_cohomology(2, 1)
        self.assertGreater(t.spans["matrix.rank"][0], 0)
        self.assertGreater(t.spans["elim.rref_int"][0], 0)

    def test_absent_target_is_reported_not_zero(self):
        targets = tracer.TARGETS + (
            ("matrix.gone", "killingcalc.matrix", "gone", "span"),
            ("nomodule.fn", "killingcalc.nomodule", "fn", "span"),
        )
        t = tracer.Tracer(targets)
        t.install()
        from killingcalc import prolong

        prolong.complex_cohomology(2, 1)
        doc = t.document()
        self.assertEqual(doc["absent"], ["matrix.gone", "nomodule.fn"])
        del doc["spans"]["matrix.rank"]
        metrics = run.per_layer_metrics(run.aggregate([doc]), 1.0, 1.0, [1.0])
        self.assertIsNone(metrics["matrix.rank.self_s"]["value"])
        self.assertIsNone(metrics["matrix.rank.calls"]["value"])
        self.assertGreater(metrics["elim.rref_int.calls"]["value"], 0)


class CorrectnessGateTests(unittest.TestCase):
    def test_documents_are_seeded(self):
        self.assertEqual(fielddocs.generate(5), fielddocs.generate(5))
        self.assertNotEqual(fielddocs.generate(5), fielddocs.generate(6))

    def test_independent_check_rejects_wrong_answers(self):
        cases = {c["kind"]: c for c in fielddocs.generate(1) if c["n"] == 3}
        solvable, witness = cases["solvable"], cases["witness"]
        self.assertEqual(witness["certificate"][(1, 2, 1, 2)], {(0, 0, 0): 2})
        cert = json.dumps(fielddocs.to_doc(witness["certificate"], 3, 4))
        self.assertIsNone(fielddocs.check_answer(witness, cert))
        self.assertIsNotNone(fielddocs.check_answer(solvable, cert))
        doubled = {k: {e: 2 * c for e, c in p.items()} for k, p in witness["certificate"].items()}
        self.assertIsNotNone(fielddocs.check_answer(witness, json.dumps(fielddocs.to_doc(doubled, 3, 4))))
        wrong = json.dumps(fielddocs.to_doc({(1,): {(1, 0, 0): 1}}, 3, 1))
        self.assertIsNotNone(fielddocs.check_answer(solvable, wrong))

    def test_report_mismatch_counts_as_failure(self):
        op = run.Op(("killing", "--n", "4", "--ell", "2"))
        reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
        rep_dir = ROOT / ".bench_build" / "selftest-report"
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir(parents=True)
        try:
            checks = json.loads(json.dumps(reference[op.key]))
            checks[0]["computed"] = "tampered"
            op.output(rep_dir).write_text(json.dumps({"checks": checks}), encoding="utf-8")
            rep = run.Rep(rep_dir, traced=False)
            rep.procs = [run.Proc(0, 0.0, 1.0, 1.0, 1.0)]
            self.assertEqual(run.verify_rep([op], rep, reference)[:2], (len(checks), 1))
            rep.procs = [run.Proc(1, 0.0, 1.0, 1.0, 1.0)]
            self.assertEqual(run.verify_rep([op], rep, reference)[:2], (len(checks), len(checks)))
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)


class TracedRunTests(unittest.TestCase):
    def test_traced_runs(self):
        names = [m[0] for m in run.PER_LAYER]
        first = {w: traced(w) for w in run.WORKLOADS}
        for w, (details, result) in first.items():
            with self.subTest(workload=w):
                self.assertEqual(details["problems"], [])
                self.assertEqual(details["absent"], [])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), names)
                for metric in FIRES[w]:
                    self.assertGreater(result["metrics"][metric]["value"], 0, metric)

        coh = {k: v["value"] for k, v in first["cohomology"][1]["metrics"].items()
               if k.endswith(".self_s") or k == "cli.other_s"}
        self.assertEqual(max(coh, key=coh.get), "elim.rref_int.self_s")

        # Library layers only: cli.other_s is mostly interpreter start-up,
        # which grows with the number of processes (ten on operators).
        ops = {k: v["value"] for k, v in first["operators"][1]["metrics"].items() if k.endswith(".self_s")}
        self.assertEqual(max(ops, key=ops.get), "elim.rref_int.self_s")
        ops.pop("elim.rref_int.self_s")
        pair = ops.pop("killing.killing_kernel.self_s") + ops.pop("tractor.flat_parallel_dimension.self_s")
        self.assertGreater(pair, max(ops.values()))

        for w in run.WORKLOADS:
            _, again = traced(w)
            counts = {k: v["value"] for k, v in first[w][1]["metrics"].items() if v["unit"] in ("count", "bits")}
            self.assertEqual(counts, {k: again["metrics"][k]["value"] for k in counts}, w)


if __name__ == "__main__":
    unittest.main(verbosity=2)
