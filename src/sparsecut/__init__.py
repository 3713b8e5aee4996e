"""Exact branch-and-cut solver for sparse max-cut and QUBO instances."""

from .graph import CutSolution, WeightedGraph, build_graph, cut_weight
from .instances import (
    ParseError,
    RawMaxCutInstance,
    RawQuboInstance,
    ResultReport,
    detect_format,
    parse_maxcut,
    parse_qubo,
    read_report_json,
    write_maxcut,
    write_qubo,
    write_report,
)
from .solver import Config, racing_solve, solve_graph, solve_maxcut, solve_qubo
from .transform import maxcut_to_qubo, qubo_to_maxcut

__version__ = "0.1.0"

__all__ = [
    "Config",
    "CutSolution",
    "ParseError",
    "RawMaxCutInstance",
    "RawQuboInstance",
    "ResultReport",
    "WeightedGraph",
    "build_graph",
    "cut_weight",
    "detect_format",
    "maxcut_to_qubo",
    "parse_maxcut",
    "parse_qubo",
    "qubo_to_maxcut",
    "racing_solve",
    "read_report_json",
    "solve_graph",
    "solve_maxcut",
    "solve_qubo",
    "write_maxcut",
    "write_qubo",
    "write_report",
]
