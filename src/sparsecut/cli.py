"""Command line front end: parse an instance file, solve it, report results.

Exit codes: 0 solved to the requested gap, 2 stopped at a time/node limit,
1 for input or usage errors. Log verbosity comes from the SOLVER_LOG
environment variable (quiet, info, debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .instances import ParseError, parse_maxcut, parse_qubo, write_report
from .solver import Config, solve_maxcut, solve_qubo

log = logging.getLogger("sparsecut")


def build_arg_parser():
    p = argparse.ArgumentParser(
        prog="sparsecut",
        description="Exact branch-and-cut solver for sparse max-cut and QUBO "
        "instances.",
    )
    p.add_argument("instance", help="input file (.mc max-cut / .bq QUBO)")
    p.add_argument(
        "--format",
        choices=("mc", "bq", "auto"),
        default="auto",
        help="input format; auto uses the file extension, then header sniffing",
    )
    p.add_argument("--time-limit", type=float, default=3600.0, metavar="SEC",
                   help="wall-clock limit in seconds (default 3600)")
    p.add_argument("--gap", type=float, default=0.0, metavar="PCT",
                   help="stop at this relative primal-dual gap in percent")
    p.add_argument("--threads", type=int, default=1,
                   help="racing solver threads (default 1); they share the "
                   "interpreter lock, so they interleave rather than run in "
                   "parallel and are usually slower than one thread")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--enum-threshold", type=int, default=10, metavar="N",
                   help="enumerate components with at most N vertices")
    p.add_argument("--node-limit", type=int, default=0, metavar="N",
                   help="stop after N branch-and-bound nodes (0 = unlimited)")
    p.add_argument("--out", metavar="FILE",
                   help="write the JSON report to FILE instead of stdout")
    p.add_argument("--write-solution", action="store_true",
                   help="include the full partition in the report")
    p.add_argument("--presolve-stats", action="store_true",
                   help="print presolve statistics to stderr")
    p.add_argument("--no-presolve", action="store_true",
                   help="disable the reduction rules")
    p.add_argument("--no-propagation", action="store_true",
                   help="disable reduced-cost and implication fixing")
    p.add_argument("--heur-restarts", type=int, default=8,
                   help="restarts of the angular heuristic (default 8)")
    p.add_argument("--heur-off", action="store_true",
                   help="disable primal heuristics")
    p.add_argument("--sepa-contract-zeros", action="store_true",
                   help="contract zero-weight arcs in the separation graph")
    p.add_argument("--sepa-triangle-budget", type=int, default=50_000,
                   help="triangle inspection budget per separation round")
    p.add_argument("--sepa-max-cuts-per-round", type=int, default=0,
                   help="cut addition cap per round (0 = twice the vertex count)")
    return p


def _configure_logging(force_info=False):
    level_name = os.environ.get("SOLVER_LOG", "info").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(level_name, logging.INFO)
    if force_info:
        level = min(level, logging.INFO)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s")


def _detect_format(path, text):
    if path.endswith(".mc"):
        return "mc"
    if path.endswith(".bq"):
        return "bq"
    # header sniffing: a QUBO file may carry diagonal (i, i) entries, a
    # max-cut file never does; default to max-cut otherwise
    for line in text.splitlines()[1:]:
        stripped = line.strip()
        if not stripped or stripped[0] in "#%":
            continue
        tokens = stripped.split()
        if len(tokens) == 3 and tokens[0] == tokens[1]:
            return "bq"
    return "mc"


def config_from_args(args) -> Config:
    return Config(
        time_limit_s=args.time_limit,
        gap_percent=args.gap,
        threads=args.threads,
        seed=args.seed,
        enum_threshold=args.enum_threshold,
        node_limit=args.node_limit,
        presolve=not args.no_presolve,
        propagation=not args.no_propagation,
        heuristics=not args.heur_off,
        heur_restarts=args.heur_restarts,
        contract_zero_arcs=args.sepa_contract_zeros,
        triangle_budget=args.sepa_triangle_budget,
        max_cuts_per_round=args.sepa_max_cuts_per_round,
    )


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    # presolve statistics are logged at info level during the solve
    _configure_logging(force_info=args.presolve_stats)

    try:
        with open(args.instance) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.instance}: {exc}", file=sys.stderr)
        return 1

    fmt = args.format if args.format != "auto" else _detect_format(args.instance, text)
    cfg = config_from_args(args)
    try:
        if fmt == "bq":
            raw = parse_qubo(text)
            report = solve_qubo(raw, cfg)
        else:
            raw = parse_maxcut(text)
            report = solve_maxcut(raw, cfg)
    except ParseError as exc:
        print(f"error: {args.instance}: {exc}", file=sys.stderr)
        return 1

    if not args.write_solution:
        report.partition = {}
    rendered = write_report(report, format="json")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)

    if report.status in ("optimal", "gap_limit"):
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
