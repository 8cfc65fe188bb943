"""qbounds benchmark: run one workload through ``qbounds.cli.main`` and report.

Usage (from the repository root)::

    python3 bench/run.py --workload {sweep,large_n,fine_grid} \\
        [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it measures the end-to-end metrics: passes over the
workload's invocations, in process and untraced, after one warm-up pass,
plus fresh interpreters for set-up time and peak memory. With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics.
Every pass's CSV output is checked (see ``checks.py``). The metric names and
units are the ones ``BENCHMARK.json`` lists. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

# One process with one thread of work; set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

# Fresh interpreters timed for setup_s; the last of them also runs one full
# pass for peak_rss_mb. Interpreter start-up is the noisiest figure, hence
# more samples than for the other metrics.
SETUP_SPAWNS = 9
# wall_s.tail is the highest percentile with at least this many passes beyond
# it, and never below the median: short runs report the upper median.
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 60


def digest(csv: str) -> str:
    return hashlib.sha256(csv.encode()).hexdigest()


class Runner:
    """Runs passes over a workload and tallies failed points against the
    reference output of the first (warm-up) pass."""

    def __init__(self, cli, checks, invocations):
        self.cli, self.invocations = cli, invocations
        self.points = sum(len(inv.points) for inv in invocations)
        self.attempted = self.failed = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, outputs = self.run_pass()
        self.warnings = len(caught)
        # Oracles run once per distinct point, untimed.
        self.oracle_failed = [
            len(inv.points) if code != 0 else checks.check(inv, csv)
            for inv, (code, csv) in zip(invocations, outputs)
        ]
        self.reference = [digest(csv) for _, csv in outputs]
        self.tally(outputs)

    def run_pass(self) -> tuple[float, list]:
        """Wall time of one pass and its (exit code, CSV) per invocation."""
        outputs = []
        start = time.perf_counter()
        for inv in self.invocations:
            out = io.StringIO()
            try:
                with redirect_stdout(out):
                    code = self.cli.main(list(inv.argv))
            except Exception:  # a crash fails the invocation's points
                traceback.print_exc()
                code = -1
            outputs.append((code, out.getvalue()))
        return time.perf_counter() - start, outputs

    def tally(self, outputs, digested: bool = False) -> None:
        """Count one pass's points from its (exit code, CSV) per invocation;
        with ``digested`` the CSVs are given as their SHA-256 digests."""
        for inv, (code, csv), ref, bad in zip(
                self.invocations, outputs, self.reference, self.oracle_failed):
            same = (csv if digested else digest(csv)) == ref
            self.attempted += len(inv.points)
            self.failed += len(inv.points) if code != 0 or not same else bad

    def timed_pass(self) -> float:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wall, outputs = self.run_pass()
        self.tally(outputs)
        return wall


def spawn(mode: str, invocations) -> dict:
    """Run child.py in a fresh interpreter; adds its set-up time ``setup_s``."""
    argvs = [list(inv.argv) for inv in invocations]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(SRC), mode, json.dumps(argvs)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    info = json.loads(proc.stdout.splitlines()[-1])
    info["setup_s"] = info["built_at"] - start
    return info


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, passes beyond) of the wall_s.tail statistic."""
    ordered = sorted(walls)
    beyond = min(TAIL_BEYOND, (len(ordered) - 1) // 2)
    return (ordered[len(ordered) - 1 - beyond],
            100.0 * (len(ordered) - beyond) / len(ordered), beyond)


def spawn_probes(invocations) -> tuple[list[float], dict]:
    """Set-up times of fresh interpreters, and the last one's full pass.

    Call this before the benchmark process imports numpy: Linux carries the
    spawning process's peak RSS into the child's ru_maxrss across exec.
    """
    samples = [spawn("setup", invocations)["setup_s"]
               for _ in range(SETUP_SPAWNS - 1)]
    full = spawn("pass", invocations)
    samples.append(full["setup_s"])
    return samples, full


def measure_end_to_end(runner: Runner, seconds: float, probes) -> tuple[dict, list[str]]:
    samples, full = probes
    runner.tally(full["outputs"], digested=True)

    walls = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(runner.timed_pass())
    wall = statistics.median(walls)
    tail_value, percentile, beyond = tail(walls)
    metrics = {
        "wall_s": wall,
        "wall_s.tail": tail_value,
        "points_per_s": runner.points / wall,
        "peak_rss_mb": full["maxrss_kb"] * 1024 / 1e6,
        "setup_s": statistics.median(samples),
        "fail_ratio": runner.failed / runner.attempted,
    }
    notes = [
        f"wall_s: median of {len(walls)} passes",
        f"wall_s.tail: p{percentile:.1f} of {len(walls)} passes, {beyond} beyond it",
        f"points_per_s: {runner.points} points per pass",
        "peak_rss_mb: ru_maxrss of a fresh interpreter running one pass",
        f"setup_s: median of {len(samples)} fresh interpreters "
        f"(min {min(samples):.3f} s, max {max(samples):.3f} s)",
        f"fail_ratio: {runner.failed} of {runner.attempted} points failed",
    ]
    return metrics, notes


def measure_per_layer(runner: Runner, seconds: float) -> tuple[dict, list[str]]:
    import spans

    recorder = spans.Recorder()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(runner.timed_pass())
        recorder.begin_pass()
        try:
            traced.append(runner.timed_pass())
        finally:
            recorder.end_pass()
    per_pass = [spans.pass_metrics(s, c, wall)
                for (s, c), wall in zip(recorder.passes, traced)]
    metrics = spans.median_metrics(per_pass)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0)

    self_times = {k: v for k, v in metrics.items() if k.endswith("_s")}
    notes = [f"{len(traced)} traced and {len(untraced)} untraced passes, alternating",
             f"largest self time: {max(self_times, key=self_times.get)}"]
    shares = [spans.invocation_render_share(s) for s, _ in recorder.passes]
    for i, inv in enumerate(runner.invocations):
        total = statistics.median(p[i][0] for p in shares)
        render = statistics.median(p[i][1] / p[i][0] for p in shares)
        notes.append(f"{' '.join(inv.argv)}: {total:.4f} s traced, "
                     f"{render:.0%} in cli.render_csv")
    return metrics, notes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "cpu": cpu_model(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qbounds" / "__init__.py").is_file():
        print(f"bench: no qbounds source under {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    try:
        invocations = workloads.invocations(args.workload, args.seed)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    probes = None if args.trace else spawn_probes(invocations)

    sys.path.insert(0, str(SRC))
    import qbounds
    from qbounds import cli

    if Path(qbounds.__file__).resolve().parent != SRC / "qbounds":
        print(f"bench: imported qbounds from {qbounds.__file__}", file=sys.stderr)
        return 2
    import checks

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{args.seconds:g} s")
    for inv in invocations:
        print(f"  qbounds {' '.join(inv.argv)}  ({len(inv.points)} points)")
    runner = Runner(cli, checks, invocations)
    if args.trace:
        values, notes = measure_per_layer(runner, args.seconds)
        declared = spec["per_layer"]
    else:
        values, notes = measure_end_to_end(runner, args.seconds, probes)
        declared = spec["end_to_end"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        values["health.edge_defects"] = checks.edge_defects()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["fail_ratio"] = "1"
    names = [m["name"] for m in declared]
    for name in names + [k for k in values if k not in names]:
        print(f"  {name:32s} {values[name]:<14.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    if runner.warnings:
        print(f"  warm-up pass raised {runner.warnings} warnings")
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
