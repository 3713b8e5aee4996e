#!/usr/bin/env python3
"""Run the solver over a directory of benchmark instances and tabulate results.

Benchmark collections (spin-glass grids, torus graphs, rudy-generated
instances, QUBO libraries) are distributed in the same plain-text formats the
package parses (.mc edge lists and .bq sparse triplets); point this script at
a directory containing them. Expect hours to days of compute at the published
sizes; the test suite runs it only on tiny instances.

Usage:
    python3 scripts/reproduce_benchmarks.py INSTANCE_DIR [--time-limit SEC]
        [--seed N] [--csv FILE] [--pattern GLOB]
"""

import argparse
import csv
import sys
import time
from pathlib import Path

from sparsecut.instances import detect_format, parse_maxcut, parse_qubo
from sparsecut.solver import Config, solve_maxcut, solve_qubo


def run_one(path, cfg):
    text = path.read_text()
    fmt = detect_format(str(path), text)
    start = time.monotonic()
    if fmt == "bq":
        raw = parse_qubo(text)
        report = solve_qubo(raw, cfg)
        size = raw.dimension
        nnz = len(raw.entries)
    else:
        raw = parse_maxcut(text)
        report = solve_maxcut(raw, cfg)
        size, nnz = raw.num_vertices, len(raw.edges)
    return {
        "instance": path.name,
        "format": fmt,
        "size": size,
        "nnz": nnz,
        "status": report.status,
        "best_value": report.best_value,
        "gap_percent": report.primal_dual_gap_percent,
        "bnb_nodes": report.bnb_nodes,
        "wall_time_s": round(time.monotonic() - start, 2),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("directory", help="directory with .mc / .bq instances")
    p.add_argument("--time-limit", type=float, default=3600.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pattern", default="*", help="filename glob filter")
    p.add_argument("--csv", metavar="FILE", help="also write results as CSV")
    args = p.parse_args(argv)
    try:
        cfg = Config(time_limit_s=args.time_limit, seed=args.seed)
    except ValueError as exc:  # a limit that is negative or not finite
        p.error(str(exc))

    paths = sorted(
        q for q in Path(args.directory).glob(args.pattern)
        if q.is_file() and q.suffix in (".mc", ".bq", ".txt", "")
    )
    if not paths:
        print(f"no instances found in {args.directory}", file=sys.stderr)
        return 1

    rows = []
    header = ("instance", "format", "size", "nnz", "status", "best_value",
              "gap_percent", "bnb_nodes", "wall_time_s")
    print("  ".join(f"{h:>12}" for h in header))
    for path in paths:
        try:
            row = run_one(path, cfg)
        except Exception as exc:  # keep going over a long batch
            print(f"{path.name:>12}  error: {exc}", file=sys.stderr)
            continue
        rows.append(row)
        print("  ".join(f"{row[h]:>12}" for h in header))

    if args.csv and rows:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
