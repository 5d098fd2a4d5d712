"""qdarwin benchmark: CLI workloads end to end, module layers from a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--results FILE]
    python3 bench/run.py --compare OLD.jsonl NEW.jsonl

One client runs the workload's operations in a closed loop, in sequence and
in process: each operation is a ``qdarwin.cli.main([...])`` call whose
``--out`` is a file, so the benchmark times and checks the bytes a user
gets.  A warm-up cycle fills lazy imports and caches and records each
operation's reference output; every later run of the operation must
reproduce it byte for byte and pass the oracle.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics.  With ``--trace 1`` half the time runs untraced and
half traced, and the result holds the per-layer metrics.  ``--results``
appends the result, with the environment record, to a JSON-lines file that
``--compare`` reads.  Metric names, units and bounds come from
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import stats
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Phase:
    latencies: list[float]
    completed: int
    cycles: int

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.busy_s


class Runner:
    """Runs operations through the CLI entry point and checks every output."""

    def __init__(self, cli, ops: list[workloads.Operation], workdir: Path, tol: dict):
        self.cli, self.ops, self.workdir, self.tol = cli, ops, workdir, tol
        self.reference: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[tuple[str, list[str]]] = []
        self.tracer: tracer.Tracer | None = None

    def run(self, op: workloads.Operation) -> tuple[float, bool]:
        out = self.workdir / f"{op.name}.out"
        out.unlink(missing_ok=True)
        argv = op.argv + ["--out", str(out)]
        if self.tracer is not None:
            self.tracer.op = self.attempted
        error = None
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, never an aborted run
            code, error = None, repr(exc)
        latency = time.perf_counter() - start
        self.attempted += 1
        if error is not None:
            problems = [f"raised {error}"]
        elif code != 0:
            problems = [f"exit code {code}"]
        elif not out.is_file():
            problems = ["no output file"]
        else:
            data = out.read_bytes()
            problems = oracle.check(op.kind, op.expect, data,
                                    self.reference.get(op.name), self.tol)
            self.reference.setdefault(op.name, data)
        if problems:
            self.failed += 1
            self.problems.append((op.name, problems))
        return latency, not problems

    def phase(self, seconds: float, min_cycles: int = 1) -> Phase:
        """Whole cycles until the operation time is within half a cycle of
        ``seconds``, and at least ``min_cycles`` of them."""
        latencies: list[float] = []
        completed = cycles = 0
        while True:
            for op in self.ops:
                latency, ok = self.run(op)
                latencies.append(latency)
                completed += ok
            cycles += 1
            busy = sum(latencies)
            if cycles >= min_cycles and busy + busy / cycles / 2 >= seconds:
                return Phase(latencies, completed, cycles)


def load_catalogue() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure_setup(inputs: list[str]) -> dict[str, float]:
    """Median set-up cost over fresh interpreters, after one untimed warm-up."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT / "src"), *inputs]
    samples = []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        if k:
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in samples),
        "setup.import_s": statistics.median(s["import_s"] for s in samples),
        "setup.inputs_s": statistics.median(s["inputs_s"] for s in samples),
    }


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


def _result(runner: Runner, values: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def measure_end_to_end(runner: Runner, workload: workloads.Workload,
                       setup: dict[str, float], args: argparse.Namespace) -> dict[str, float]:
    timed = runner.phase(args.seconds, workload.min_cycles)
    n = len(timed.latencies)
    percentile = stats.tail_percentile(workload.min_cycles * len(workload.ops))
    print(f"# {args.workload} seed {args.seed}: {n} timed operations in {timed.cycles} "
          f"cycles of {len(workload.ops)}, {timed.busy_s:.2f} s of operation time")
    print(f"# latency_p50_s over {n} samples; latency_tail_s is p{percentile} "
          f"({stats.samples_beyond(n, percentile)} samples beyond; "
          f"at least {workload.min_cycles} cycles per run)")
    return {
        "setup_s": setup["setup_s"],
        "ops_per_s": timed.ops_per_s,
        "latency_p50_s": stats.nearest_rank(timed.latencies, "50"),
        "latency_tail_s": stats.nearest_rank(timed.latencies, percentile),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": 1.0 - runner.failed / runner.attempted,
    }


def measure_layers(runner: Runner, setup: dict[str, float], names: list[str],
                   args: argparse.Namespace) -> dict[str, float]:
    """Half the time untraced, as the base of the overhead ratio, half traced."""
    untraced = runner.phase(args.seconds / 2)
    spans = tracer.Tracer()
    spans.install()
    runner.tracer = spans
    try:
        traced = runner.phase(args.seconds / 2)
    finally:
        runner.tracer = None
        spans.uninstall()
    summary = tracer.summarize(spans.spans)
    values = tracer.layer_metrics(summary, len(traced.latencies), names)
    values["setup.import_s"] = setup["setup.import_s"]
    values["setup.inputs_s"] = setup["setup.inputs_s"]
    values["trace.overhead_ratio"] = traced.ops_per_s / untraced.ops_per_s
    print(f"# {args.workload} seed {args.seed}: {len(untraced.latencies)} untraced and "
          f"{len(traced.latencies)} traced operations; absent targets: "
          f"{spans.absent or 'none'}")
    for line in tracer.table(summary, traced.busy_s):
        print("# " + line)
    spans.write(OUT_DIR / f"spans-{args.workload}-s{args.seed}.jsonl.gz")
    return values


def run(args: argparse.Namespace) -> int:
    catalogue = load_catalogue()
    src = ROOT / "src"
    if not (src / "qdarwin" / "cli.py").is_file():
        print(f"error: no qdarwin sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from qdarwin import cli, tolerances

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        def run_cli(argv: list[str]) -> bytes:
            out = workdir / "generate.out"
            code = cli.main(argv + ["--out", str(out)])
            if code != 0:
                raise RuntimeError(f"input generation: qdarwin {' '.join(argv)} exited {code}")
            return out.read_bytes()

        workload = workloads.build(args.workload, args.seed, ROOT, workdir, run_cli)
        setup = measure_setup(workload.inputs)
        runner = Runner(cli, workload.ops, workdir,
                        oracle.tolerances(tolerances.TOL))
        for op in workload.ops:  # warm-up cycle; sets the reference outputs
            runner.run(op)
        env = environment(args.seed)
        print("# env " + json.dumps(env, sort_keys=True))
        group = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in catalogue[group]}
        if args.trace:
            values = measure_layers(runner, setup, list(units), args)
        else:
            values = measure_end_to_end(runner, workload, setup, args)
        print(f"# failed_ratio {runner.failed}/{runner.attempted} "
              f"= {runner.failed / runner.attempted:.4f}")
        for name, problems in runner.problems[:20]:
            print(f"# FAILED {name}: {'; '.join(problems[:3])}", file=sys.stderr)
        result = _result(runner, values, units)
        if args.results:
            record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "env": env, "result": result}
            with open(args.results, "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _load_runs(path: str) -> dict[str, dict[str, list[float]]]:
    runs: dict[str, dict[str, list[float]]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                per_metric = runs.setdefault(record["workload"], {})
                for name, metric in record["result"]["metrics"].items():
                    per_metric.setdefault(name, []).append(metric["value"])
    return runs


def compare(old_path: str, new_path: str) -> int:
    """Each side's median and quartiles, and a verdict per workload and metric."""
    catalogue = load_catalogue()
    specs = {m["name"]: m for m in catalogue["end_to_end"] + catalogue["per_layer"]}
    old, new = _load_runs(old_path), _load_runs(new_path)
    for workload in sorted(set(old) & set(new)):
        print(f"== {workload}")
        print(f"{'metric':38s} {'old q1/median/q3':>34s} {'new q1/median/q3':>34s}  verdict")
        for name in sorted(set(old[workload]) & set(new[workload])):
            spec = specs.get(name, {})
            o, n = old[workload][name], new[workload][name]
            result = stats.verdict(o, n, spec.get("better", "lower"), spec.get("bound"))
            fmt = lambda v: "/".join(f"{x:.4g}" for x in stats.quartiles(v))  # noqa: E731
            print(f"{name:38s} {fmt(o):>34s} {fmt(n):>34s}  {result}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append the result record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two result files written with --results")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
