"""CSR graph representation, signed edge contraction and biconnected components.

Vertex ids are 0-based and stable under contraction: the absorbed endpoint
simply becomes isolated, so reduction records can refer to vertex ids of the
graph they were produced on. Edge ids are only valid for one graph object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Weight sums below this magnitude are treated as cancelled parallel edges.
ZERO_EPS = 1e-12


@dataclass(frozen=True)
class ContractRecord:
    kind: str  # "same" | "opposite"
    keep: int
    gone: int


@dataclass
class ReductionTrace:
    """Ordered contraction log plus the accumulated cut-weight offset.

    For any assignment ``y`` of the reduced graph:
    ``cut_original(replay(y)) == cut_reduced(y) + offset``.
    """

    records: list = field(default_factory=list)
    offset: float = 0.0

    def record_contraction(self, kind, keep, gone, offset_delta=0.0):
        self.records.append(ContractRecord(kind, keep, gone))
        self.offset += offset_delta

    def replay(self, y):
        """Extend an assignment of the reduced graph to the original vertices.

        ``y`` is a sequence indexed by vertex id (entries of absorbed vertices
        are ignored and overwritten). Returns a new integer numpy array.
        """
        out = np.asarray(y, dtype=np.int8).copy()
        for rec in reversed(self.records):
            if rec.kind == "same":
                out[rec.gone] = out[rec.keep]
            else:
                out[rec.gone] = 1 - out[rec.keep]
        return out


class WeightedGraph:
    """Immutable simple undirected graph with weighted edges in CSR form.

    Isolated vertices are allowed (contraction leaves the absorbed vertex
    behind with empty adjacency). Edge ``e`` connects ``edge_u[e] < edge_v[e]``
    with weight ``edge_w[e]``.
    """

    def __init__(self, num_vertices, edges):
        self.n = num_vertices
        edges = sorted(
            (u, v, w) if u <= v else (v, u, w) for u, v, w in edges
        )
        self.m = len(edges)
        self.edge_u = np.empty(self.m, dtype=np.int64)
        self.edge_v = np.empty(self.m, dtype=np.int64)
        self.edge_w = np.empty(self.m, dtype=np.float64)
        self.edge_index = {}
        for e, (u, v, w) in enumerate(edges):
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if (u, v) in self.edge_index:
                raise ValueError(f"parallel edge ({u}, {v})")
            self.edge_u[e] = u
            self.edge_v[e] = v
            self.edge_w[e] = w
            self.edge_index[(u, v)] = e

        deg = np.zeros(self.n, dtype=np.int64)
        for u, v, _ in edges:
            deg[u] += 1
            deg[v] += 1
        self.csr_offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(deg, out=self.csr_offsets[1:])
        self.csr_heads = np.empty(2 * self.m, dtype=np.int64)
        self.csr_eids = np.empty(2 * self.m, dtype=np.int64)
        self.csr_weights = np.empty(2 * self.m, dtype=np.float64)
        cursor = self.csr_offsets[:-1].copy()
        for e, (u, v, w) in enumerate(edges):
            for a, b in ((u, v), (v, u)):
                pos = cursor[a]
                self.csr_heads[pos] = b
                self.csr_eids[pos] = e
                self.csr_weights[pos] = w
                cursor[a] += 1
        # neighbor lists come out sorted because edges are sorted and each
        # vertex's slice is filled in increasing (u, v) order only for the
        # lower endpoint; sort explicitly for both.
        for v in range(self.n):
            lo, hi = self.csr_offsets[v], self.csr_offsets[v + 1]
            order = np.argsort(self.csr_heads[lo:hi], kind="stable")
            self.csr_heads[lo:hi] = self.csr_heads[lo:hi][order]
            self.csr_eids[lo:hi] = self.csr_eids[lo:hi][order]
            self.csr_weights[lo:hi] = self.csr_weights[lo:hi][order]

    # -- queries ----------------------------------------------------------

    def degree(self, v):
        return int(self.csr_offsets[v + 1] - self.csr_offsets[v])

    def neighbors(self, v):
        lo, hi = self.csr_offsets[v], self.csr_offsets[v + 1]
        return self.csr_heads[lo:hi]

    def incident(self, v):
        """(neighbor ids, edge ids, weights) arrays for vertex v."""
        lo, hi = self.csr_offsets[v], self.csr_offsets[v + 1]
        return self.csr_heads[lo:hi], self.csr_eids[lo:hi], self.csr_weights[lo:hi]

    def find_edge(self, u, v):
        if u > v:
            u, v = v, u
        return self.edge_index.get((u, v))

    def edge_endpoints(self, e):
        return int(self.edge_u[e]), int(self.edge_v[e])

    def edge_list(self):
        return [
            (int(self.edge_u[e]), int(self.edge_v[e]), float(self.edge_w[e]))
            for e in range(self.m)
        ]

    def alive_vertices(self):
        return [v for v in range(self.n) if self.degree(v) > 0]


def build_graph(raw) -> WeightedGraph:
    """Build a 0-based CSR graph from a parsed instance; zero edges dropped."""
    edges = [
        (u - 1, v - 1, float(w)) for u, v, w in raw.edges if abs(w) > ZERO_EPS
    ]
    return WeightedGraph(raw.num_vertices, edges)


def cut_weight(g: WeightedGraph, y) -> float:
    """Total weight of edges whose endpoints get different sides under y."""
    y = np.asarray(y)
    if g.m == 0:
        return 0.0
    crossing = y[g.edge_u] != y[g.edge_v]
    return float(g.edge_w[crossing].sum())


@dataclass
class CutSolution:
    """Vertex bipartition with its cut weight on the graph it was built for."""

    y: np.ndarray
    weight: float

    @classmethod
    def from_assignment(cls, g, y):
        y = np.asarray(y, dtype=np.int8)
        return cls(y=y, weight=cut_weight(g, y))


def merge_vertices(g: WeightedGraph, keep, gone, opposite, trace=None):
    """Merge ``gone`` into ``keep`` (same side, or opposite side with sign flip).

    Returns the new graph. For an opposite-side merge all weights incident to
    ``gone`` are negated first; the accumulated constant (sum of the original
    incident weights) goes into the trace offset. Resulting parallel edges are
    summed and cancelled pairs removed.
    """
    if keep == gone:
        raise ValueError("cannot merge a vertex with itself")
    offset_delta = 0.0
    sign = 1.0
    if opposite:
        _, _, wts = g.incident(gone)
        offset_delta = float(wts.sum())
        sign = -1.0

    merged: dict[tuple[int, int], float] = {}
    for e in range(g.m):
        u, v, w = int(g.edge_u[e]), int(g.edge_v[e]), float(g.edge_w[e])
        if u == gone or v == gone:
            w *= sign
            u = keep if u == gone else u
            v = keep if v == gone else v
        if u == v:
            continue  # the merged edge itself: contributes only to the offset
        key = (u, v) if u < v else (v, u)
        merged[key] = merged.get(key, 0.0) + w

    edges = [(u, v, w) for (u, v), w in merged.items() if abs(w) > ZERO_EPS]
    if trace is not None:
        trace.record_contraction("opposite" if opposite else "same", keep, gone, offset_delta)
    return WeightedGraph(g.n, edges)


def contract_edge(g: WeightedGraph, e, mode, trace=None):
    """Contract edge ``e``; mode 'same_side' fixes x(e)=0, 'opposite_side' x(e)=1."""
    if not (0 <= e < g.m):
        raise ValueError(f"edge id {e} does not exist")
    if mode not in ("same_side", "opposite_side"):
        raise ValueError(f"unknown contraction mode {mode!r}")
    u, v = g.edge_endpoints(e)
    keep, gone = (u, v) if u < v else (v, u)  # lower-indexed endpoint survives
    return merge_vertices(g, keep, gone, mode == "opposite_side", trace)


def biconnected_components(g: WeightedGraph):
    """Edge partition into biconnected components plus articulation vertices.

    Returns ``(components, articulation)`` where each component is a sorted
    list of edge ids. Bridges form single-edge components.
    """
    if g.m == 0:
        return [], []
    visited = np.zeros(g.n, dtype=bool)
    disc = np.zeros(g.n, dtype=np.int64)
    low = np.zeros(g.n, dtype=np.int64)
    components = []
    articulation = set()
    timer = 0

    for root in range(g.n):
        if visited[root] or g.degree(root) == 0:
            continue
        # iterative Hopcroft-Tarjan with an explicit edge stack
        stack = [(root, -1, iter(range(g.csr_offsets[root], g.csr_offsets[root + 1])))]
        edge_stack = []
        visited[root] = True
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            v, parent_eid, arcs = stack[-1]
            advanced = False
            for pos in arcs:
                w = int(g.csr_heads[pos])
                eid = int(g.csr_eids[pos])
                if eid == parent_eid:
                    continue
                if not visited[w]:
                    edge_stack.append(eid)
                    visited[w] = True
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append(
                        (w, eid, iter(range(g.csr_offsets[w], g.csr_offsets[w + 1])))
                    )
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    edge_stack.append(eid)
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    # pv separates v's subtree: pop one component
                    comp = []
                    while edge_stack:
                        eid = edge_stack.pop()
                        comp.append(eid)
                        if eid == parent_eid:
                            break
                    components.append(sorted(comp))
                    if pv != root or root_children > 1:
                        articulation.add(pv)
        if edge_stack:
            components.append(sorted(edge_stack))
            edge_stack = []

    return components, sorted(articulation)


def induce_subgraph(g: WeightedGraph, edge_ids):
    """Compact subgraph on the given edges; returns (subgraph, local->parent map)."""
    verts = sorted({int(g.edge_u[e]) for e in edge_ids} | {int(g.edge_v[e]) for e in edge_ids})
    local = {v: i for i, v in enumerate(verts)}
    edges = [
        (local[int(g.edge_u[e])], local[int(g.edge_v[e])], float(g.edge_w[e]))
        for e in edge_ids
    ]
    return WeightedGraph(len(verts), edges), verts
