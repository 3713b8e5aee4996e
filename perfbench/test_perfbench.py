"""Tests of the benchmark's own code: generators, checks and tracer."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsecut
import sparsecut.solver as solver_mod
from tracer import Tracer
from workloads import (
    WORKLOADS,
    Instance,
    block_tree,
    block_tree_optimum,
    blocks,
    brute_force_maxcut,
    brute_force_qubo,
    objective,
    qubo_field,
    solve,
    spinglass,
)

HERE = Path(__file__).resolve().parent


def _prepare(workload, seed, out):
    subprocess.run([sys.executable, str(HERE / "prepare.py"), workload, str(seed),
                    str(out)], check=True, capture_output=True, timeout=120)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_same_seed_gives_byte_identical_instance_files(tmp_path):
    for name in WORKLOADS:
        first = _prepare(name, 7, tmp_path / f"{name}-a")
        assert first == _prepare(name, 7, tmp_path / f"{name}-b")
        assert len(first) == WORKLOADS[name]
    assert _prepare("spinglass", 8, tmp_path / "other") != _prepare(
        "spinglass", 7, tmp_path / "again")


def _small_instances(seed=4):
    return (spinglass(seed, 4, pm1_L=4, gauss_L=4) + qubo_field(seed, 3, L=4)
            + blocks(seed, 2, n_target=40))


def _solve(inst, racing=False):
    cfg = sparsecut.Config(time_limit_s=60.0)
    if racing:
        return sparsecut.racing_solve(sparsecut.parse_maxcut(inst.text()), cfg,
                                      workers=2)
    return solve(inst.fmt, inst.text(), cfg)


def _result(report):
    return (report.status, report.best_value, report.primal_dual_gap_percent,
            report.bnb_nodes, report.partition)


def test_tracing_passes_results_through_unchanged():
    instances = _small_instances()
    plain = [_result(_solve(inst)) for inst in instances]
    originals = (sparsecut.solve_maxcut, solver_mod.separate_exact,
                 solver_mod.ComponentSolver.solve,
                 sparsecut.graph.ReductionTrace.replay)
    tracer = Tracer()
    with tracer:
        traced = []
        for inst in instances:
            root = tracer.open("bench.instance")
            traced.append(_result(_solve(inst)))
            tracer.close(root)
        raced = _solve(instances[0], racing=True)
    assert traced == plain
    assert raced.best_value == plain[0][1]
    assert originals == (sparsecut.solve_maxcut, solver_mod.separate_exact,
                         solver_mod.ComponentSolver.solve,
                         sparsecut.graph.ReductionTrace.replay)

    rows, main_self = tracer.layer_metrics()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(rows) + [
        "trace.solve_s", "trace.overhead_s", "trace.self_cover_frac"]
    racing_nodes = raced.bnb_nodes
    assert rows["solver.nodes"][0] == sum(r[3] for r in plain) + racing_nodes
    assert rows["lp.solves"][0] > 0 and rows["separation.exact_calls"][0] > 0
    roots = sum(s[2] - s[1] for s in tracer.spans if s[0] == "bench.instance")
    top = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0
              and s[4] == tracer.spans[0][4])
    assert main_self == pytest.approx(top, rel=1e-9)
    assert roots <= top


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1, 1], ["b", 1.0, 4.0, 0, 1],
                    ["c", 2.0, 3.0, 1, 1], ["d", 5.0, 6.0, 0, 1]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_small_instances_match_brute_force():
    for inst in _small_instances(seed=5):
        report = _solve(inst)
        assert report.status == "optimal"
        assert objective(inst, report.partition) == report.best_value
        if inst.blocks:
            assert report.best_value == block_tree_optimum(inst)
        elif inst.fmt == "bq":
            assert report.best_value == brute_force_qubo(inst.n, inst.terms)
        else:
            assert report.best_value == brute_force_maxcut(inst.n, inst.terms)


def test_block_tree_optimum_is_the_sum_over_blocks():
    rng = np.random.default_rng(3)
    n, edges, parts = block_tree(12, rng, lo=3, hi=5)
    assert len(parts) > 2
    inst = Instance("tiny", "mc", n, edges, parts)
    assert block_tree_optimum(inst) == brute_force_maxcut(n, edges)


def test_brute_force_on_known_values():
    triangle = [(1, 2, 1), (2, 3, 1), (1, 3, 1)]
    assert brute_force_maxcut(3, triangle) == 2.0
    # x1 - 2 x1 x2 + x2 >= 0, with 0 at x = (0, 0) and (1, 1)
    assert brute_force_qubo(2, [(1, 1, 1), (1, 2, -2), (2, 2, 1)]) == 0.0
    # -x1 + 2 x1 x2 has its minimum -1 at x = (1, 0)
    assert brute_force_qubo(2, [(1, 1, -1), (1, 2, 2)]) == -1.0
    inst = Instance("t", "bq", 2, [(1, 1, -1), (1, 2, 2)])
    assert objective(inst, {1: 1, 2: 1}) == 1.0


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spinglass", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
