"""Parsing and serialization of max-cut / QUBO instances and solver reports.

File formats (plain text, whitespace separated, 1-based indices):

* max-cut: header line ``n m``, followed by ``m`` lines ``u v w``.
* QUBO:    header line ``n nnz``, followed by ``nnz`` lines ``i j q``.

Lines starting with ``#`` or ``%`` are treated as comments. Duplicate
edge/coefficient entries are merged by summation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class ParseError(ValueError):
    """Raised for malformed instance files; carries the offending line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass
class RawMaxCutInstance:
    num_vertices: int
    # (u, v, w) with 1 <= u < v <= num_vertices, no duplicates after parsing
    edges: list[tuple[int, int, float]]
    all_integral: bool = True

    def cut_value(self, partition):
        """Weight of the cut induced by a vertex->{0,1} map (1-based keys)."""
        total = 0.0
        for u, v, w in self.edges:
            if partition[u] != partition[v]:
                total += w
        return total


@dataclass
class RawQuboInstance:
    dimension: int
    # (i, j, q) sparse coefficients, duplicates already summed, 1-based
    entries: list[tuple[int, int, float]]

    def objective(self, x):
        """Value of x^T Q x for a variable->{0,1} map (1-based keys)."""
        total = 0.0
        for i, j, q in self.entries:
            total += q * x[i] * x[j]
        return total


@dataclass
class ResultReport:
    best_value: float
    primal_dual_gap_percent: float
    bnb_nodes: int
    wall_time_s: float
    partition: dict[int, int] = field(default_factory=dict)
    status: str = "optimal"  # optimal | gap_limit | time_limit | node_limit


def _data_lines(text):
    """Yield (line_no, tokens) for non-comment, non-empty lines."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#%":
            continue
        yield line_no, stripped.split()


def _parse_weight(token, line_no):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"cannot parse weight {token!r}", line_no) from None


def parse_maxcut(text) -> RawMaxCutInstance:
    """Parse an edge-list max-cut instance from a string or byte stream."""
    lines = _data_lines(text)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise ParseError("empty input") from None
    if len(header) != 2:
        raise ParseError("expected header 'n m'", header_no)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("expected integer header 'n m'", header_no) from None
    if n <= 0:
        raise ParseError("number of vertices must be positive", header_no)
    if m < 0:
        raise ParseError("number of edges must be nonnegative", header_no)

    merged: dict[tuple[int, int], float] = {}
    order: list[tuple[int, int]] = []
    count = 0
    for line_no, tokens in lines:
        if len(tokens) != 3:
            raise ParseError("expected edge line 'u v w'", line_no)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError("vertex ids must be integers", line_no) from None
        w = _parse_weight(tokens[2], line_no)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line_no)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex id out of range in edge ({u}, {v})", line_no)
        if u > v:
            u, v = v, u
        if (u, v) not in merged:
            order.append((u, v))
            merged[(u, v)] = 0.0
        merged[(u, v)] += w
        count += 1
    if count != m:
        raise ParseError(f"header announced {m} edges but found {count}")

    edges = [(u, v, merged[(u, v)]) for u, v in order]
    all_integral = all(float(w).is_integer() for _, _, w in edges)
    return RawMaxCutInstance(num_vertices=n, edges=edges, all_integral=all_integral)


def parse_qubo(text) -> RawQuboInstance:
    """Parse a sparse-triplet QUBO instance from a string or byte stream."""
    lines = _data_lines(text)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise ParseError("empty input") from None
    if len(header) != 2:
        raise ParseError("expected header 'n nnz'", header_no)
    try:
        n, nnz = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("expected integer header 'n nnz'", header_no) from None
    if n <= 0:
        raise ParseError("dimension must be positive", header_no)

    merged: dict[tuple[int, int], float] = {}
    order: list[tuple[int, int]] = []
    count = 0
    for line_no, tokens in lines:
        if len(tokens) != 3:
            raise ParseError("expected entry line 'i j q'", line_no)
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError("indices must be integers", line_no) from None
        q = _parse_weight(tokens[2], line_no)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"index out of range in entry ({i}, {j})", line_no)
        if (i, j) not in merged:
            order.append((i, j))
            merged[(i, j)] = 0.0
        merged[(i, j)] += q
        count += 1
    if count != nnz:
        raise ParseError(f"header announced {nnz} entries but found {count}")

    entries = [(i, j, merged[(i, j)]) for i, j in order]
    return RawQuboInstance(dimension=n, entries=entries)


def _format_number(x):
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def write_maxcut(instance: RawMaxCutInstance) -> str:
    lines = [f"{instance.num_vertices} {len(instance.edges)}"]
    for u, v, w in instance.edges:
        lines.append(f"{u} {v} {_format_number(w)}")
    return "\n".join(lines) + "\n"


def write_qubo(instance: RawQuboInstance) -> str:
    lines = [f"{instance.dimension} {len(instance.entries)}"]
    for i, j, q in instance.entries:
        lines.append(f"{i} {j} {_format_number(q)}")
    return "\n".join(lines) + "\n"


# Stable key order of the JSON report; documented in the README.
_REPORT_KEYS = (
    "status",
    "best_value",
    "primal_dual_gap_percent",
    "bnb_nodes",
    "wall_time_s",
    "partition",
)


def write_report(report: ResultReport, format: str = "text") -> str:
    """Serialize a result report deterministically as JSON or plain text."""
    if format == "json":
        payload = {
            "status": report.status,
            "best_value": report.best_value,
            "primal_dual_gap_percent": report.primal_dual_gap_percent,
            "bnb_nodes": report.bnb_nodes,
            "wall_time_s": report.wall_time_s,
            "partition": {str(k): report.partition[k] for k in sorted(report.partition)},
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if format == "text":
        value = _format_number(report.best_value)
        lines = [
            f"status: {report.status}",
            f"best_value: {value}",
            f"primal_dual_gap_percent: {report.primal_dual_gap_percent:.6g}",
            f"bnb_nodes: {report.bnb_nodes}",
            f"wall_time_s: {report.wall_time_s:.3f}",
        ]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def read_report_json(text) -> ResultReport:
    payload = json.loads(text)
    return ResultReport(
        best_value=payload["best_value"],
        primal_dual_gap_percent=payload["primal_dual_gap_percent"],
        bnb_nodes=payload["bnb_nodes"],
        wall_time_s=payload["wall_time_s"],
        partition={int(k): v for k, v in payload["partition"].items()},
        status=payload["status"],
    )
