"""Tests of the benchmark itself: span arithmetic, output contract, workloads.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads
from spans import Span

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_of_nested_spans():
    tree = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.x", 5.0, 7.0, 3),
        Span("b.y", 6.0, 8.0, 3),   # overlaps b.x: the union is counted once
        Span("other", 11.0, 12.0, -1),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0])


def test_pass_metrics_sum_self_times_and_calls():
    tree = [
        Span("cli.main", 0.0, 1.0, -1),
        Span("bounds.solve_optimal_bias", 0.1, 0.6, 0),
        Span("core.validate_problem", 0.1, 0.15, 1),
        Span("numerics.solve_tridiagonal", 0.2, 0.5, 1),
        Span("cli.render_csv", 0.7, 0.9, 0),
    ]
    counts = {"numerics.tridiag.rows": 4001, "cli.rows": 7}
    m = spans.pass_metrics(tree, counts, wall=2.0)
    assert m["bounds.assemble_s"] == pytest.approx(0.15)
    assert m["numerics.tridiag_s"] == pytest.approx(0.3)
    assert m["numerics.tridiag.mflops"] == pytest.approx(8 * 4001 / 0.3 / 1e6)
    assert m["core.validate.calls"] == 1
    assert m["cli.render_s"] == pytest.approx(0.2)
    assert m["cli.self_s"] == pytest.approx(0.3)
    assert m["trace.coverage"] == pytest.approx(0.5)


def test_recorder_traces_imported_names_and_restores_them():
    from qbounds import bounds, models, numerics

    original = numerics.solve_tridiagonal
    problem, _ = models.noon_model(models.NoonParams(10), (0.0, 0.3), 101, 1)
    recorder = spans.Recorder()
    recorder.begin_pass()
    try:
        bounds.obb_variational(problem)
    finally:
        recorder.end_pass()
    assert bounds.solve_tridiagonal is original
    (trace, _), = recorder.passes
    names = [s.name for s in trace]
    assert names[0] == "bounds.obb_variational"
    solve = names.index("numerics.solve_tridiagonal")
    assert trace[trace[solve].parent].name == "bounds.solve_optimal_bias"
    assert names.count("bounds.bias_ode_residual") == 2


def test_seed_zero_reproduces_the_readme_commands():
    argv = {w: [" ".join(i.argv) for i in workloads.invocations(w, 0)]
            for w in workloads.WORKLOADS}
    assert argv["sweep"][3] == ("bounds --example dephasing --n 5 --sweep "
                                "eta=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    assert argv["large_n"] == ["bounds --example noon --n 3000",
                               "bounds --example field --n 2000",
                               "mmse --example dephasing --n 3000"]
    assert argv["fine_grid"][1] == "bias --example noon --n 1 --grid 40001 --stride 1"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_are_deterministic_and_keep_point_counts(workload):
    def shape(invs):
        return [(i.command, i.example, i.grid, len(i.points)) for i in invs]

    base = workloads.invocations(workload, 0)
    assert [len(i.points) for i in base] == {
        "sweep": [30, 30, 30, 10], "large_n": [1, 1, 1], "fine_grid": [4, 1]}[workload]
    argvs = set()
    for seed in range(1, 6):
        first = workloads.invocations(workload, seed)
        assert first == workloads.invocations(workload, seed)
        assert shape(first) == shape(base)
        argvs.add(tuple(i.argv for i in first))
    assert len(argvs) == 5


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fine_grid", "--seed", "1",
         "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    proc = _run(ROOT, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(l.split()[0] == name and l.split()[-1] == unit
                   for l in lines[:-2] if l.strip()), name


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
