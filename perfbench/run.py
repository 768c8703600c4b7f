"""killingcalc benchmark: fixed CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload operators --seed 1 --seconds 36 --trace 0

Every command of a workload runs as a fresh ``python3 -m killingcalc.cli``
process with a pinned environment.  With ``--trace 0`` the workload is
repeated while another repetition still fits in ``--seconds``, next to
``hostspeed.SpeedLoop`` on the same CPU, and the end-to-end metrics are
medians over the repetitions of CPU seconds at the loop's reference
speed (see hostspeed.py).  With ``--trace 1``
the workload runs once untraced and once under ``tracer.py``, and the
per-layer metrics come from the traced repetition.  Every repetition is
checked: reports against ``reference.json``, ``range-check`` answers by
``fielddocs``, and traced outputs byte for byte against untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's details (seed, commit, environment, raw samples).
``--record-reference`` rewrites ``reference.json`` from the current code.
See README.md in this directory for the metrics and why each workload
exists.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import fielddocs
import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
# A run ends within this many seconds even if a child hangs: each child
# is killed when the deadline passes, and counts as failed.
RUN_DEADLINE_S = 170
# setup_s: one fresh interpreter for every SETUP_EVERY_S seconds of the
# run, launched between processes, and at least SETUP_MIN_SAMPLES of them.
SETUP_EVERY_S = 2.0
SETUP_MIN_SAMPLES = 9
CHECK_KEYS = ("id", "computed", "predicted", "verdict")

# workload -> its commands in order; "range-check" stands for the seeded
# batch of range-check documents (see fielddocs.py)
WORKLOADS = {
    "cohomology": (
        ("complex", "--n", "6", "--ell", "2"),
        ("kostant", "--n", "6", "--ell", "2"),
    ),
    "operators": (
        ("killing", "--n", "3", "--ell", "3"),
        ("killing", "--n", "4", "--ell", "2"),
        "range-check",
    ),
    "suite-small": (
        ("suite", "--n", "2..4", "--ell", "1..2"),
    ),
}

END_TO_END = (
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, source, key): source "self", "total" and "calls" read a
# span, "count" reads a counter, "derived" is computed from whole runs.
PER_LAYER = (
    ("elim.rref_int.self_s", "s", "self", "elim.rref_int"),
    ("elim.rref_int.calls", "count", "calls", "elim.rref_int"),
    ("elim.rref_int.cells", "count", "count", "elim.rref_int.cells"),
    ("elim.rref_int.nnz_in", "count", "count", "elim.rref_int.nnz_in"),
    ("elim.rref_int.max_coeff_bits", "bits", "count", "elim.rref_int.max_coeff_bits"),
    ("matrix.rank.self_s", "s", "self", "matrix.rank"),
    ("matrix.rank.calls", "count", "calls", "matrix.rank"),
    ("matrix.kernel_basis.self_s", "s", "self", "matrix.kernel_basis"),
    ("matrix.rref.self_s", "s", "self", "matrix.rref"),
    ("matrix.solve.self_s", "s", "self", "matrix.solve"),
    ("matrix.mul.self_s", "s", "self", "matrix.mul"),
    ("matrix.mul.calls", "count", "calls", "matrix.mul"),
    ("chain.composites_vanish.s", "s", "total", "chain.composites_vanish"),
    ("chain.composites_vanish.calls", "count", "calls", "chain.composites_vanish"),
    ("chain.cohomology_dims.calls", "count", "calls", "chain.cohomology_dims"),
    ("prolong.build_partial.self_s", "s", "self", "prolong.build_partial"),
    ("prolong.build_partial.calls", "count", "calls", "prolong.build_partial"),
    ("prolong.graded_diagonal_complex.self_s", "s", "self", "prolong.graded_diagonal_complex"),
    ("kostant.build_V.self_s", "s", "self", "kostant.build_V"),
    ("kostant.koszul_differential.self_s", "s", "self", "kostant.koszul_differential"),
    ("kostant.koszul_differential.calls", "count", "calls", "kostant.koszul_differential"),
    ("young.realize_irreducible.self_s", "s", "self", "young.realize_irreducible"),
    ("young.realize_irreducible.calls", "count", "calls", "young.realize_irreducible"),
    ("young.realize_irreducible.distinct", "count", "count", "young.realize_irreducible.distinct"),
    ("killing.killing_kernel.self_s", "s", "self", "killing.killing_kernel"),
    ("killing.killing_kernel.calls", "count", "calls", "killing.killing_kernel"),
    ("killing.integrability_kernel.self_s", "s", "self", "killing.integrability_kernel"),
    ("killing.integrability_of_killing_matrix.self_s", "s", "self", "killing.integrability_of_killing_matrix"),
    ("killing.killing_potential_solve.self_s", "s", "self", "killing.killing_potential_solve"),
    ("killing.killing_potential_solve.calls", "count", "calls", "killing.killing_potential_solve"),
    ("tractor.flat_parallel_dimension.self_s", "s", "self", "tractor.flat_parallel_dimension"),
    ("tractor.tractor_curvature.self_s", "s", "self", "tractor.tractor_curvature"),
    ("fields.PolyTensorField.constructions", "count", "count", "fields.PolyTensorField.constructions"),
    ("fields.christoffel_solve.self_s", "s", "self", "fields.christoffel_solve"),
    ("cli.other_s", "s", "derived", None),
    ("trace.overhead_s", "s", "derived", None),
)

clock = time.perf_counter
DEADLINE = clock() + RUN_DEADLINE_S


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, broken reference)."""


def child_env() -> dict:
    """The caller's environment with every killingcalc switch removed."""
    env = dict(os.environ)
    for var in ("KILLINGCALC_CACHE_DIR", "KILLINGCALC_ELIM", "KILLINGCALC_TRACE"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_to_one_cpu() -> int | None:
    """Keep the harness and every child on one CPU.

    The workloads are single-threaded.  On a shared 2-vCPU host, letting
    them migrate between CPUs doubled the spread between repetitions, and
    the speed loop only measures the host a child sees if both share a CPU.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class Proc(NamedTuple):
    """One finished child: exit code, start and end (``clock``), user +
    system CPU seconds and max RSS in MB."""
    code: int
    start: float
    end: float
    cpu: float
    rss: float

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_process(cmd, env, stdout_path: Path) -> Proc:
    """Run one child to completion."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = clock()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(max(DEADLINE - clock(), 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t1 = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, t0, t1, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Op:
    """One process of a workload: a check report or one range-check document."""

    def __init__(self, argv, case=None):
        self.argv = tuple(argv)
        self.case = case
        self.label = case["name"] if case else ".".join(a.lstrip("-") for a in argv)

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def output(self, rep_dir: Path) -> Path:
        """The file whose bytes are the program's answer."""
        return rep_dir / (self.label + (".out" if self.case else ".json"))

    def command(self, rep_dir: Path, trace_file: Path | None):
        args = list(self.argv)
        if not self.case:
            args += ["--output", str(self.output(rep_dir))]
        if trace_file is None:
            return [sys.executable, "-m", "killingcalc.cli", *args]
        return [sys.executable, str(HERE / "tracer.py"), str(trace_file), "--", *args]


def build_ops(workload: str, seed: int, run_dir: Path) -> list[Op]:
    ops = []
    for item in WORKLOADS[workload]:
        if item != "range-check":
            ops.append(Op(item))
            continue
        docs = run_dir / "docs"
        docs.mkdir(parents=True, exist_ok=True)
        for case in fielddocs.generate(seed):
            path = docs / (case["name"] + ".json")
            path.write_text(json.dumps(case["document"], indent=2), encoding="utf-8")
            arg = str(path.relative_to(ROOT))
            ops.append(Op(("range-check", "--n", str(case["n"]), "--input", arg), case))
    return ops


class Rep:
    """One repetition of a workload and what each of its processes did."""

    def __init__(self, rep_dir: Path, traced: bool):
        self.dir = rep_dir
        self.traced = traced
        self.procs: list[Proc] = []
        self.wall = 0.0

    @property
    def codes(self) -> list[int]:
        return [p.code for p in self.procs]

    @property
    def walls(self) -> list[float]:
        return [p.wall for p in self.procs]

    @property
    def cpu(self) -> float:
        return sum(p.cpu for p in self.procs)

    @property
    def rss(self) -> float:
        return max(p.rss for p in self.procs)

    def trace_file(self, i: int) -> Path | None:
        return self.dir / f"trace-{i}.json" if self.traced else None


def run_rep(ops, env, rep_dir: Path, traced: bool, setup=None) -> Rep:
    """Run every op once; ``setup`` samples start-up between processes,
    and its time is left out of the repetition's wall time."""
    rep_dir.mkdir(parents=True)
    rep = Rep(rep_dir, traced)
    paused = 0.0
    t0 = clock()
    for i, op in enumerate(ops):
        if setup is not None and i:
            paused += setup.when_due()
        stdout = rep_dir / f"{op.label}.stdout"
        rep.procs.append(run_process(op.command(rep_dir, rep.trace_file(i)), env, stdout))
        if op.case:
            stdout.replace(op.output(rep_dir))
    rep.wall = clock() - t0 - paused
    return rep


def verify_op(op: Op, rep: Rep, i: int, reference: dict):
    """(attempted, failed, problem or None) for one process of a repetition."""
    if op.case:
        if rep.codes[i] != 0:
            return 1, 1, f"{op.label}: exit {rep.codes[i]}"
        problem = fielddocs.check_answer(op.case, op.output(rep.dir).read_text(encoding="utf-8"))
        return 1, int(problem is not None), problem and f"{op.label}: {problem}"
    want = {c["id"]: c for c in reference[op.key]}
    if rep.codes[i] != 0:
        return len(want), len(want), f"{op.key}: exit {rep.codes[i]}"
    try:
        report = json.loads(op.output(rep.dir).read_text(encoding="utf-8"))
        got = {c["id"]: {k: c[k] for k in CHECK_KEYS} for c in report["checks"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        return len(want), len(want), f"{op.key}: unreadable report ({e})"
    ids = set(want) | set(got)
    bad = sorted(c for c in ids if got.get(c) != want.get(c) or got[c]["verdict"] != "pass")
    return len(ids), len(bad), bad and f"{op.key}: {len(bad)} checks differ, first {bad[0]}"


def _read_bytes(path: Path) -> bytes | None:
    try:
        return path.read_bytes()
    except OSError:
        return None


def verify_rep(ops, rep: Rep, reference: dict, untraced: Rep | None = None):
    """(attempted, failed, problems); with ``untraced``, a traced output
    that differs from the untraced one fails all of its operations."""
    attempted = failed = 0
    problems = []
    for i, op in enumerate(ops):
        a, f, problem = verify_op(op, rep, i, reference)
        if untraced is not None and _read_bytes(op.output(rep.dir)) != _read_bytes(op.output(untraced.dir)):
            f, problem = a, f"{op.label}: output differs with tracing on"
        attempted += a
        failed += f
        if problem:
            problems.append(problem)
    return attempted, failed, problems


class SetupSampler:
    """Fresh interpreters through ``import killingcalc.cli``, launched
    between the workload's processes and spread over the whole run."""

    def __init__(self, env, run_dir: Path):
        self.env = env
        self.out = run_dir / "setup.stdout"
        self.launches: list[Proc] = []
        self.last = clock()

    def launch(self) -> float:
        """One launch; returns the seconds it took the harness."""
        t0 = clock()
        proc = run_process([sys.executable, "-c", "import killingcalc.cli"], self.env, self.out)
        if proc.code != 0:
            err = self.out.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
            raise BenchmarkError(f"cannot import killingcalc.cli:\n{err}")
        self.launches.append(proc)
        self.last = clock()
        return self.last - t0

    def when_due(self) -> float:
        """One launch for every SETUP_EVERY_S passed since the last one
        (at most three in a row); returns the seconds they took."""
        due = min(int((clock() - self.last) // SETUP_EVERY_S), 3)
        return sum(self.launch() for _ in range(due))


def preflight(env, run_dir: Path) -> dict:
    out = run_dir / "preflight.stdout"
    code = run_process([sys.executable, str(HERE / "preflight.py")], env, out).code
    if code != 0:
        return {"elim_backend": None, "preflight": "fail", "mismatches": [f"exit {code}"]}
    return json.loads(out.read_text(encoding="utf-8"))


def read_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def aggregate(trace_docs) -> dict:
    """Sum per-process trace documents (max for the coefficient bits)."""
    spans: dict = {}
    counts: dict = {}
    absent: set = set()
    overhead = 0.0
    for doc in trace_docs:
        overhead += doc["overhead_s"]
        for name, s in doc["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += s[k]
        for name, v in doc["counts"].items():
            counts[name] = max(counts.get(name, 0), v) if name.endswith(".max_coeff_bits") else counts.get(name, 0) + v
        absent.update(doc["absent"])
    return {"spans": spans, "counts": counts, "absent": sorted(absent), "overhead_s": overhead}


def per_layer_metrics(agg: dict, traced_wall: float, untraced_wall: float, process_walls) -> dict:
    """Every PER_LAYER metric; a metric whose target is gone has value None."""
    field = {"self": "self_s", "total": "total_s", "calls": "calls"}
    derived = {
        "cli.other_s": sum(process_walls) - sum(s["self_s"] for s in agg["spans"].values()) - agg["overhead_s"],
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    metrics = {}
    for name, unit, source, key in PER_LAYER:
        if source == "derived":
            value = derived[name]
        elif source == "count":
            value = agg["counts"].get(key)
        else:
            span = agg["spans"].get(key)
            value = span[field[source]] if span else None
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def load_reference(ops) -> dict:
    try:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise BenchmarkError(f"cannot read {REFERENCE.name}: {e}")
    missing = [op.key for op in ops if not op.case and op.key not in reference]
    if missing:
        raise BenchmarkError(f"{REFERENCE.name} has no entry for {missing}")
    return reference


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(details, result line) for one run of the benchmark."""
    if not (ROOT / "src" / "killingcalc" / "cli.py").is_file():
        raise BenchmarkError(f"no killingcalc sources under {ROOT / 'src'}; run from the repository root")
    env = child_env()
    cpu = pin_to_one_cpu()
    run_dir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        ops = build_ops(workload, seed, run_dir)
        reference = load_reference(ops)
        facts = preflight(env, run_dir)
        attempted = failed = 0
        problems = []
        if facts["preflight"] != "skipped":
            attempted += 1
            if facts["preflight"] != "pass":
                failed += 1
                problems.append(f"elimination backends disagree: {facts['mismatches']}")

        # Untraced repetitions run next to the speed loop; the traced run
        # compares its wall time with a repetition made without it.
        with contextlib.nullcontext() if trace else hostspeed.SpeedLoop() as speed:
            setup = SetupSampler(env, run_dir)
            setup.launch()
            reps = []
            start = clock()
            while True:
                rep = run_rep(ops, env, run_dir / f"rep-{len(reps)}", traced=False,
                              setup=None if trace else setup)
                reps.append(rep)
                a, f, p = verify_rep(ops, rep, reference)
                attempted, failed, problems = attempted + a, failed + f, problems + p
                if trace or clock() - start + rep.wall > seconds:
                    break
                setup.when_due()
            while not trace and len(setup.launches) < SETUP_MIN_SAMPLES:
                setup.launch()

        details = {
            "benchmark": "killingcalc",
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "commit": read_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            **facts,
            "commands": [op.key for op in ops],
            "problems": problems[:20],
        }
        if trace:
            traced = run_rep(ops, env, run_dir / "traced", traced=True)
            a, f, p = verify_rep(ops, traced, reference, untraced=reps[0])
            attempted, failed, problems = attempted + a, failed + f, problems + p
            details["problems"] = problems[:20]
            docs = [json.loads(traced.trace_file(i).read_text(encoding="utf-8"))
                    for i in range(len(ops)) if traced.trace_file(i).exists()]
            agg = aggregate(docs)
            metrics = per_layer_metrics(agg, traced.wall, reps[0].wall, traced.walls)
            details.update(agg, untraced_wall_s=reps[0].wall, traced_wall_s=traced.wall)
        else:
            def ref_cpu(p: Proc) -> float:
                return p.cpu * speed.scale(p.start, p.end)

            cpu_s = [sum(ref_cpu(p) for p in r.procs) for r in reps]
            setup_s = [ref_cpu(p) for p in setup.launches]
            chunks = [c for _, c in speed.log]
            details["samples"] = {
                "cpu_s": cpu_s,
                "setup_s": setup_s,
                "raw_wall_s": [r.wall for r in reps],
                "raw_op_wall_s": [r.walls for r in reps],
                "raw_cpu_s": [r.cpu for r in reps],
                "raw_setup_cpu_s": [p.cpu for p in setup.launches],
                "peak_rss_mb": [r.rss for r in reps],
                "speed_chunks": len(chunks),
                "speed_chunk_median_s": statistics.median(chunks),
            }
            values = {
                "cpu_s": statistics.median(cpu_s),
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": max(r.rss for r in reps),
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, result


def record_reference() -> None:
    """Write reference.json from one run of every report command."""
    env = child_env()
    run_dir = WORK_ROOT / f"record-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    reference = {}
    try:
        ops = [Op(item) for items in WORKLOADS.values() for item in items if item != "range-check"]
        rep = run_rep(ops, env, run_dir, traced=False)
        for i, op in enumerate(ops):
            report = json.loads(op.output(run_dir).read_text(encoding="utf-8"))
            if rep.codes[i] != 0 or report["verdict"] != "pass":
                raise BenchmarkError(f"{op.key} does not pass; refusing to record it")
            reference[op.key] = [{k: c[k] for k in CHECK_KEYS} for c in report["checks"]]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from the current code and exit")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    (WORK_ROOT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
