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

from .instances import (
    ParseError,
    detect_format,
    parse_maxcut,
    parse_qubo,
    write_report,
)
from .solver import Config, solve_maxcut, solve_qubo

log = logging.getLogger("sparsecut")


def build_arg_parser():
    defaults = Config()
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
    p.add_argument("--time-limit", type=float, default=defaults.time_limit_s,
                   metavar="SEC",
                   help="wall-clock limit in seconds, 0 for none (default %(default)s)")
    p.add_argument("--gap", type=float, default=defaults.gap_percent, metavar="PCT",
                   help="stop at this relative primal-dual gap in percent "
                   "(default %(default)s)")
    p.add_argument("--threads", type=int, default=defaults.threads,
                   help="accepted for compatibility and ignored: the solver "
                   "is single-threaded")
    p.add_argument("--seed", type=int, default=defaults.seed,
                   help="random seed (default %(default)s)")
    p.add_argument("--enum-threshold", type=int, default=defaults.enum_threshold,
                   metavar="N",
                   help="enumerate components with at most N vertices "
                   "instead of running branch-and-cut (default %(default)s: "
                   "enumeration is the faster of the two up to about 21)")
    p.add_argument("--node-limit", type=int, default=defaults.node_limit,
                   metavar="N",
                   help="stop after N branch-and-bound nodes over all "
                   "components (default %(default)s = unlimited)")
    p.add_argument("--out", metavar="FILE",
                   help="write the JSON report to FILE instead of stdout")
    p.add_argument("--write-solution", action="store_true",
                   help="include the full partition in the report")
    p.add_argument("--no-presolve", action="store_true",
                   help="disable the reduction rules")
    p.add_argument("--heur-off", action="store_true",
                   help="disable primal heuristics")
    return p


def _configure_logging():
    level_name = os.environ.get("SOLVER_LOG", "info").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    level = levels.get(level_name, logging.INFO)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(message)s")


def config_from_args(args) -> Config:
    return Config(
        time_limit_s=args.time_limit,
        gap_percent=args.gap,
        threads=args.threads,
        seed=args.seed,
        enum_threshold=args.enum_threshold,
        node_limit=args.node_limit,
        presolve=not args.no_presolve,
        heuristics=not args.heur_off,
    )


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        try:
            cfg = config_from_args(args)
        except ValueError as exc:  # a number that is negative or not finite
            parser.error(str(exc))
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    _configure_logging()

    try:
        with open(args.instance, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.instance}: {exc}", file=sys.stderr)
        return 1

    fmt = args.format if args.format != "auto" else detect_format(args.instance, text)
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
    rendered = write_report(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(rendered)

    if report.status in ("optimal", "gap_limit"):
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
