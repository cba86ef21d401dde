"""Checked, seeded benchmark of the markovjsr command line and library.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  Each operation runs in a fresh single-threaded process,
and its output is checked against reference values computed here with
numpy alone (reference.py).

--trace 0 writes the instance files and reference values, then for S
seconds repeats one set-up process (the CLI given the least work) and
one pass over the workload's operations, and reports the end-to-end
metrics.  --trace 1 alternates untraced passes with passes in which
every operation runs under tracer.py, and reports the per-layer metrics
and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Working files go to
.perfbench_out/<workload>-seed<N>/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

TRACER = BENCH_DIR / "tracer.py"
LAUNCHER = BENCH_DIR / "launch.py"
# Every child is stopped once a run has lasted this long, so the run ends
# well within its three minutes even if the program hangs.
RUN_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OpResult:
    code: int | None      # None when the process was stopped at the run limit
    wall_s: float
    rss_mb: float
    stdout: str
    summary: dict | None = None


@dataclass
class PassResult:
    wall_s: float
    ops: list

    @property
    def rss_mb(self) -> float:
        return max(op.rss_mb for op in self.ops)


class Runner:
    """Runs each operation in a fresh process, spawned through launch.py."""

    def __init__(self, out: Path, deadline: float):
        self.out = out
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        for var in THREAD_VARS:
            env[var] = "1"
        self.launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def run(self, argv: list, tag: str) -> OpResult:
        stdout = self.out / f"{tag}.out"
        request = {
            "argv": [sys.executable, *argv],
            "stdout": str(stdout),
            "stderr": str(self.out / f"{tag}.err"),
            "timeout_s": self.deadline - time.perf_counter(),
        }
        if request["timeout_s"] <= 0:
            return OpResult(None, 0.0, 0.0, "")
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return OpResult(
            reply["code"], reply["wall_s"], reply["maxrss_kb"] / 1024.0,
            stdout.read_text(errors="replace"),
        )

    def run_pass(self, ops: list, traced: bool = False) -> PassResult:
        results = []
        start = time.perf_counter()
        for pos, op in enumerate(ops):
            tag = f"{'traced' if traced else 'pass'}{pos}-{op.name}"
            if traced:
                summary = self.out / f"{tag}.trace.json"
                summary.unlink(missing_ok=True)
                results.append(self.run([str(TRACER), str(summary), *op.args], tag))
                if summary.exists():
                    results[-1].summary = json.loads(summary.read_text())
            else:
                results.append(self.run(op.args, tag))
        return PassResult(time.perf_counter() - start, results)


class Tally:
    """Operations attempted and failed, and the problems found in outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, op, result: OpResult) -> None:
        self.attempted += 1
        if result.code != 0:
            self.failed += 1
            self.report(f"{op.name}: exit code {result.code}")
            return
        for problem in op.check(result.stdout):
            self.report(f"{op.name}: {problem}")

    def check_pass(self, ops: list, result: PassResult) -> None:
        for op, op_result in zip(ops, result.ops):
            self.check(op, op_result)

    def report(self, problem: str) -> None:
        if problem not in self.problems:
            self.problems.append(problem)
            print(f"perfbench: {problem}", file=sys.stderr)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(wl, runner: Runner, seconds: float, tally: Tally) -> dict:
    # Set-up samples are interleaved with the passes, so both see the same
    # spread of machine states over the run.
    setup, passes = [], []
    stop = time.perf_counter() + seconds
    while True:
        result = runner.run(wl.setup.args, f"setup{len(setup)}")
        if result.code != 0:
            raise RuntimeError(f"set-up operation exited with code {result.code}")
        for problem in wl.setup.check(result.stdout):
            tally.report(f"setup: {problem}")
        setup.append(result.wall_s)
        result = runner.run_pass(wl.ops)
        tally.check_pass(wl.ops, result)
        passes.append(result)
        if time.perf_counter() >= stop:
            break
    wall = statistics.median(p.wall_s for p in passes)
    return {
        "wall_s": _metric(wall, "s"),
        "words_per_s": _metric(wl.words / wall, "words/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(statistics.median(p.rss_mb for p in passes), "MB"),
    }


def _layer_metrics(wl, result: PassResult) -> dict:
    """Per-layer figures of one traced pass, summed over its processes."""
    totals: dict = {}
    selfs: dict = {}
    calls: dict = {}
    counters: dict = {}
    derived: dict = {}
    spans = 0
    for op in result.ops:
        summary = op.summary
        spans += summary["spans"]
        for name, entry in summary["names"].items():
            totals[name] = totals.get(name, 0.0) + entry["total_s"]
            selfs[name] = selfs.get(name, 0.0) + entry["self_s"]
            calls[name] = calls.get(name, 0) + entry["calls"]
        for group, target in ((summary["counters"], counters), (summary["derived"], derived)):
            for name, value in group.items():
                target[name] = target.get(name, 0) + value

    def total(*names):
        return sum(totals.get(n, 0.0) for n in names)

    spectral_s = selfs.get("linalg.spectral_radii", 0.0)
    spectral_n = counters.get("linalg.spectral_matrices", 0)
    norm_calls = calls.get("linalg.operator_norm", 0)
    return {
        "cli.import_s": (total("cli.import"), "s"),
        "instancefile.load_s": (total("instancefile.load_instance"), "s"),
        "words.count_s": (total("words.count_words"), "s"),
        "words.enumerate_s": (total("words.enumerate_words"), "s"),
        "words.enumerated": (counters.get("words.enumerate_words.yields", 0), "count"),
        "kstep.recode_s": (total("kstep.recode"), "s"),
        "linalg.spectral_radii_s": (spectral_s, "s"),
        "linalg.spectral_matrices": (spectral_n, "count"),
        "linalg.spectral_us_per_matrix": (1e6 * spectral_s / spectral_n if spectral_n else 0.0, "us"),
        "linalg.operator_norm_s": (total("linalg.operator_norm"), "s"),
        "linalg.operator_norm_calls": (norm_calls, "count"),
        "linalg.block_norm_s": (total("linalg.block_norm"), "s"),
        "radius.sandwich_s": (total("radius.sandwich"), "s"),
        "radius.sandwich_self_s": (derived.get("radius.sandwich_self_s", 0.0), "s"),
        "radius.sweeps_per_word": (norm_calls / wl.chain_words, "ratio"),
        "radius.full_verification_s": (total("radius.full_verification"), "s"),
        "radius.lifted_dense_s": (
            total("radius.rho_n_lifted[dense]", "radius.rho_hat_n_lifted[dense]"), "s"),
        "radius.lifted_words": (counters.get("radius.lifted_words", 0), "count"),
        "radius.alternative_class_chain_s": (total("radius.alternative_class_chain"), "s"),
        "radius.audit_factor_structure_s": (total("radius.audit_factor_structure"), "s"),
        "lift.lift_set_s": (total("lift.lift_set"), "s"),
        "lift.factor_product_dense_calls": (calls.get("lift.factor_product_dense", 0), "count"),
        "kstep.radius_equivalence_check_s": (total("kstep.radius_equivalence_check"), "s"),
        "kstep.direct_self_s": (derived.get("kstep.direct_self_s", 0.0), "s"),
        "trace.spans": (spans, "count"),
    }


def traced_run(wl, runner: Runner, seconds: float, tally: Tally) -> dict:
    plain, traced = [], []
    stop = time.perf_counter() + seconds
    while True:
        result = runner.run_pass(wl.ops)
        tally.check_pass(wl.ops, result)
        plain.append(result.wall_s)
        result = runner.run_pass(wl.ops, traced=True)
        tally.check_pass(wl.ops, result)
        for op in result.ops:
            if op.code == 0 and op.summary is None:
                tally.report(f"{op.name}: traced operation wrote no span summary")
        if all(op.summary is not None for op in result.ops):
            violations = sum(op.summary["nesting_violations"] for op in result.ops)
            if violations:
                tally.report(f"{violations} spans whose children outlast them")
            traced.append(result)
        if time.perf_counter() >= stop:
            break
    if not traced:
        raise RuntimeError("no traced pass completed")
    per_pass = [_layer_metrics(wl, r) for r in traced]
    metrics = {
        name: _metric(statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    overhead = statistics.median(r.wall_s for r in traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (ROOT / "src" / "markovjsr" / "__init__.py").is_file():
        print(f"perfbench: no markovjsr package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out)
    runner = Runner(out, deadline)
    tally = Tally()
    try:
        if args.trace:
            metrics = traced_run(wl, runner, args.seconds, tally)
        else:
            metrics = timed_run(wl, runner, args.seconds, tally)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (out / ("trace.json" if args.trace else "run.json")).write_text(json.dumps(result, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
