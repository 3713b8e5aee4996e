"""Parsing and serialization of max-cut / QUBO instances and solver reports.

File formats (plain text, whitespace separated, 1-based indices):

* max-cut: header line ``n m``, followed by ``m`` lines ``u v w``.
* QUBO:    header line ``n nnz``, followed by ``nnz`` lines ``i j q``.

Lines starting with ``#`` or ``%`` are treated as comments. Weights must be
finite. Duplicate edge/coefficient entries are merged by summation.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

# Largest total |weight| of an instance. The solver's sums reach a few times
# the total (1.5 times in the QUBO transform) and stay far from overflow.
MAX_TOTAL_WEIGHT = 1e300


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


def detect_format(path, text) -> str:
    """Guess an instance file's format, "mc" or "bq", from path and text."""
    if path.endswith(".mc"):
        return "mc"
    if path.endswith(".bq"):
        return "bq"
    # a QUBO file may carry diagonal (i, i) entries, a max-cut file never
    # does; default to max-cut otherwise
    lines = _data_lines(text)
    next(lines, None)  # the header
    for _, tokens in lines:
        if len(tokens) == 3 and tokens[0] == tokens[1]:
            return "bq"
    return "mc"


def _parse_weight(token, line_no):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"cannot parse weight {token!r}", line_no) from None


# The words a triplet format's error messages use.
_Words = namedtuple("_Words", "header size item items line index indices")
_MAXCUT = _Words("n m", "number of vertices", "edge", "edges", "u v w",
                 "vertex id", "vertex ids")
_QUBO = _Words("n nnz", "dimension", "entry", "entries", "i j q", "index", "indices")


def _read_triplets(text, words, key=lambda i, j, line_no: (i, j)):
    """Read a header ``n k`` and ``k`` lines ``i j value`` with 1-based ids.

    ``key(i, j, line_no)`` maps a line's ids to the pair that entries are
    merged on; it may raise ParseError. Returns (n, [(i, j, value)]), values of
    equal pairs summed in file order, pairs in order of first appearance.
    """
    lines = _data_lines(text)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise ParseError("empty input") from None
    if len(header) != 2:
        raise ParseError(f"expected header '{words.header}'", header_no)
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"expected integer header '{words.header}'",
                         header_no) from None
    if n <= 0:
        raise ParseError(f"{words.size} must be positive", header_no)
    if k < 0:
        raise ParseError(f"number of {words.items} must be nonnegative", header_no)

    merged: dict[tuple[int, int], float] = {}  # insertion order is file order
    count = 0
    for line_no, tokens in lines:
        if len(tokens) != 3:
            raise ParseError(f"expected {words.item} line '{words.line}'", line_no)
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"{words.indices} must be integers", line_no) from None
        value = _parse_weight(tokens[2], line_no)
        pair = key(i, j, line_no)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"{words.index} out of range in {words.item} "
                             f"({i}, {j})", line_no)
        value = merged.get(pair, 0.0) + value
        if not math.isfinite(value):  # nan, inf, or a sum that overflows
            raise ParseError(f"{words.item} ({i}, {j}) weight is not finite", line_no)
        merged[pair] = value
        count += 1
    if count != k:
        raise ParseError(f"header announced {k} {words.items} but found {count}")
    if sum(abs(value) for value in merged.values()) > MAX_TOTAL_WEIGHT:
        raise ParseError(f"total |weight| of the {words.items} exceeds {MAX_TOTAL_WEIGHT:g}")
    return n, [(i, j, value) for (i, j), value in merged.items()]


def _edge_key(u, v, line_no):
    if u == v:
        raise ParseError(f"self-loop at vertex {u}", line_no)
    return (u, v) if u < v else (v, u)


def parse_maxcut(text) -> RawMaxCutInstance:
    """Parse an edge-list max-cut instance from a string or byte stream."""
    n, edges = _read_triplets(text, _MAXCUT, _edge_key)
    return RawMaxCutInstance(num_vertices=n, edges=edges)


def parse_qubo(text) -> RawQuboInstance:
    """Parse a sparse-triplet QUBO instance from a string or byte stream."""
    n, entries = _read_triplets(text, _QUBO)
    return RawQuboInstance(dimension=n, entries=entries)


def _format_number(x):
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def _write_triplets(n, triplets):
    """The inverse of ``_read_triplets``: a header ``n k`` and ``k`` lines."""
    lines = [f"{n} {len(triplets)}"]
    lines += [f"{i} {j} {_format_number(value)}" for i, j, value in triplets]
    return "\n".join(lines) + "\n"


def write_maxcut(instance: RawMaxCutInstance) -> str:
    return _write_triplets(instance.num_vertices, instance.edges)


def write_qubo(instance: RawQuboInstance) -> str:
    return _write_triplets(instance.dimension, instance.entries)


def write_report(report: ResultReport) -> str:
    """Serialize a result report deterministically as strict JSON."""
    # a stable key order, documented in the README
    payload = {
        "status": report.status,
        "best_value": report.best_value,
        "primal_dual_gap_percent": report.primal_dual_gap_percent,
        "bnb_nodes": report.bnb_nodes,
        "wall_time_s": report.wall_time_s,
        "partition": {str(k): report.partition[k] for k in sorted(report.partition)},
    }
    return json.dumps(payload, indent=2, sort_keys=False, allow_nan=False) + "\n"


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
