"""sparsecut benchmark: wall time to a proven optimum on generated workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``. Set-up (``prepare.py``) runs a few
times in child processes; its median is ``setup_s``. The run then solves the
workload's whole instance list in passes, in this process, through the public
API (parse_maxcut/parse_qubo -> solve_maxcut/solve_qubo), until
the next pass would end after ``--seconds``; at least one pass always runs.
Every result is checked; a check failure or an exception counts as failed.

Times are reported in reference seconds (see ``clock.py``): each instance's
wall and CPU time is scaled by a machine-speed calibration run right before
and after it, which cancels most of a shared VM's speed swings. The raw
seconds are printed on a comment line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics of the traced ones
(medians over passes) and writes the spans of the last traced pass to
``perfbench/out/``. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

from checkout import HERE, OUT, import_sparsecut

sparsecut = import_sparsecut()

from clock import calibrate, scale  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    block_tree_optimum,
    instances,
    load_reference,
    objective,
    solve,
)

# Generous per-instance limit: instances here solve in seconds. A limit is
# not a bound on the run time, because the solver can overrun it by tens of
# seconds (a long simplex solve does not check the deadline); a run that hits
# it reports status "time_limit", which counts as a failure.
TIME_LIMIT_S = 60.0
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
VALUE_TOL = 1e-6


class Solve(NamedTuple):
    wall: float  # seconds, as measured
    cpu: float  # process CPU seconds, as measured
    scale: float  # factor to reference seconds
    ok: bool


def run_setup(workload, seed, directory):
    """Run prepare.py SETUP_REPEATS times; returns the median set-up time in
    reference seconds and in seconds as measured."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), workload, str(seed),
             str(directory)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(out["setup_s"])
        times.append(out["setup_s"] * scale(out["calibration_s"], out["calibration_s"]))
    return statistics.median(times), statistics.median(raw)


class Checker:
    """Decides whether one solver report is a proven, correct optimum."""

    def __init__(self, workload, seed, insts):
        ref = load_reference(HERE / "reference.json").get(workload, {})
        known = ref.get(str(seed), [])
        self.expected = {}
        for i, inst in enumerate(insts):
            if inst.blocks:
                self.expected[inst.name] = block_tree_optimum(inst)
            elif i < len(known):
                self.expected[inst.name] = known[i]

    def problems(self, inst, report):
        found = []
        if report.status != "optimal":
            found.append(f"status {report.status}")
        if report.primal_dual_gap_percent != 0:
            found.append(f"gap {report.primal_dual_gap_percent}")
        recomputed = objective(inst, report.partition)
        if not _close(report.best_value, recomputed):
            found.append(f"value {report.best_value} != recomputed {recomputed}")
        expected = self.expected.get(inst.name)
        if expected is not None and not _close(report.best_value, expected):
            found.append(f"value {report.best_value} != reference {expected}")
        return found


def _close(a, b):
    return abs(a - b) <= VALUE_TOL * max(1.0, abs(b))


def run_pass(insts, directory, checker, tracer=None):
    """Solve every instance once; returns a Solve per instance."""
    cfg = sparsecut.Config(time_limit_s=TIME_LIMIT_S)
    rows = []
    before = calibrate()
    for inst in insts:
        path = directory / inst.filename()
        span = tracer.open("bench.instance") if tracer else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            report = solve(inst.fmt, path.read_text(), cfg)
            error = None
        except Exception:  # a crash is a failed instance, not a failed run
            report, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer:
            tracer.close(span)
        after = calibrate()
        problems = [error] if error else checker.problems(inst, report)
        for problem in problems:
            print(f"FAILED {inst.name}: {problem}", file=sys.stderr)
        rows.append(Solve(wall, cpu, scale(before, after), not problems))
        before = after
    return rows


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(insts, directory, checker, seconds, trace):
    """Run passes until the next one would overrun.

    Returns the untraced passes and the traced ones as (rows, layer metrics,
    spans); with ``trace`` the two kinds alternate and each occurs at least once.
    """
    untraced, traced = [], []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            tracer.reset()
            with tracer:
                rows = run_pass(insts, directory, checker, tracer)
            traced.append((rows, tracer.layer_metrics(), tracer.spans))
        else:
            rows = run_pass(insts, directory, checker)
            untraced.append(rows)
        elapsed = time.perf_counter() - start
        if elapsed + sum(r.wall for r in rows) > seconds and (traced or not trace):
            return untraced, traced


def _ref(rows, field="wall"):
    """Total of a time field over a pass, in reference seconds."""
    return sum(getattr(r, field) * r.scale for r in rows)


def end_to_end(passes, setup_s):
    times = [r.wall * r.scale for p in passes for r in p]
    return {
        "solve_s": _metric(statistics.median(_ref(p) for p in passes), "s"),
        "instance_s_p50": _metric(statistics.median(times), "s"),
        "cpu_s": _metric(statistics.median(_ref(p, "cpu") for p in passes), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(untraced, traced):
    """Medians over traced passes, plus tracing overhead and coverage.

    Layer seconds are scaled to reference seconds by their pass's factor.
    """
    solve = statistics.median(_ref(rows) for rows, _, _ in traced)
    plain = statistics.median(_ref(rows) for rows in untraced)
    per_pass = []
    for rows, (layers, main_self), _ in traced:
        wall = sum(r.wall for r in rows)
        factor = _ref(rows) / wall
        values = {name: v * factor if unit == "s" else v
                  for name, (v, unit) in layers.items()}
        values["trace.self_cover_frac"] = main_self / wall
        per_pass.append(values)
    units = {name: unit for name, (_, unit) in traced[0][1][0].items()}
    units["trace.self_cover_frac"] = "ratio"
    out = {name: _metric(statistics.median(v[name] for v in per_pass), unit)
           for name, unit in units.items()}
    out["trace.solve_s"] = _metric(solve, "s")
    out["trace.overhead_s"] = _metric(solve - plain, "s")
    return out


def write_spans(spans, path):
    with path.open("w") as fh:
        for name, start, end, parent, tid in spans:
            fh.write(json.dumps([name, start, end, parent, tid]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    directory = OUT / f"{args.workload}-{args.seed}"
    setup_s, setup_raw = run_setup(args.workload, args.seed, directory)
    insts = instances(args.workload, args.seed)
    for inst in insts:
        if (directory / inst.filename()).read_text() != inst.text():
            sys.exit(f"perfbench: {inst.filename()} differs from its generator")
    checker = Checker(args.workload, args.seed, insts)

    passes, traced = measure(insts, directory, checker, args.seconds, args.trace)
    all_rows = [r for p in passes for r in p] + [r for t in traced for r in t[0]]
    failed = sum(1 for r in all_rows if not r.ok)
    checked = sum(1 for inst in insts if inst.name in checker.expected)
    print(f"# {args.workload} seed {args.seed}: {len(insts)} instances, "
          f"{len(passes)} untraced + {len(traced)} traced passes, "
          f"{checked} with a reference optimum")
    if args.trace:
        metrics = per_layer(passes, traced)
        spans_path = OUT / f"{args.workload}-{args.seed}-spans.jsonl"
        write_spans(traced[-1][2], spans_path)
        print(f"# spans of the last traced pass: {spans_path}")
    else:
        metrics = end_to_end(passes, setup_s)
        print(f"# instance_s_p50 over {len(passes) * len(insts)} instance "
              f"solves; as measured: solve "
              f"{statistics.median(sum(r.wall for r in p) for p in passes):.4g} s,"
              f" setup {setup_raw:.4g} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_rows),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
