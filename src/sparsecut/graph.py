"""Weighted graph representation, a mutable adjacency for signed
contraction, and biconnected components.

``WeightedGraph`` alone knows how a graph is laid out. It keeps three views
of its edges: the edge arrays, ``degrees`` and ``abs_degrees`` for numpy
code, ``arcs`` (per-vertex lists) for per-vertex Python loops, and
``edge_keys`` (sorted ``u * n + v``) for lookups by endpoints. It is
immutable: contraction happens on ``Adjacency`` alone.

Vertex ids are 0-based and stable under contraction: the absorbed endpoint
simply becomes isolated, so reduction records can refer to vertex ids of the
graph they were produced on. Edge ids are only valid for one graph object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    """Immutable simple undirected graph with weighted edges.

    Isolated vertices are allowed (contraction leaves the absorbed vertex
    behind with empty adjacency). Edge ``e`` connects ``edge_u[e] < edge_v[e]``
    with weight ``edge_w[e]``; edges are sorted by (u, v), and ``degrees[v]``
    counts the edges at v. ``edges`` are (u, v, w) rows in any orientation
    and order: triples or an (m, 3) array.
    """

    def __init__(self, num_vertices, edges):
        self.n = num_vertices
        rows = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
        ends = np.sort(rows[:, :2].astype(np.int64), axis=1)
        u, v = ends[:, 0], ends[:, 1]
        loops = np.flatnonzero(u == v)
        if len(loops):
            raise ValueError(f"self-loop at vertex {u[loops[0]]}")
        bad = np.flatnonzero((u < 0) | (v >= self.n))
        if len(bad):
            raise ValueError(f"vertex id out of range in edge ({u[bad[0]]}, {v[bad[0]]})")
        keys = u * self.n + v
        order = np.argsort(keys, kind="stable")
        self.m = len(order)
        self.edge_u = u[order]
        self.edge_v = v[order]
        self.edge_w = rows[order, 2]
        self.edge_keys = keys[order]
        parallel = np.flatnonzero(self.edge_keys[1:] == self.edge_keys[:-1])
        if len(parallel):
            e = parallel[0]
            raise ValueError(f"parallel edge ({self.edge_u[e]}, {self.edge_v[e]})")
        self.degrees = np.bincount(np.concatenate([self.edge_u, self.edge_v]),
                                   minlength=self.n)

    @cached_property
    def arcs(self):
        """``arcs[v]``: the (neighbor, edge id, weight) of each arc leaving v,
        in edge-id order, which is neighbour order (each edge (h, v), h < v,
        sorts before any (v, h')). Per-vertex loops over a few neighbors index
        these lists far faster than numpy slices; built on first use, kept."""
        arcs = [[] for _ in range(self.n)]
        for e, (u, v, w) in enumerate(self.edge_list()):
            arcs[u].append((v, e, w))
            arcs[v].append((u, e, w))
        return arcs

    @cached_property
    def abs_degrees(self):
        """``abs_degrees[v]``: the sum of |w| over the edges at v, added up in
        edge-id order as one pass over the edges would add them (every edge
        (h, v), h < v, sorts before any (v, h'))."""
        aw = np.abs(self.edge_w)
        return np.bincount(np.concatenate((self.edge_v, self.edge_u)),
                           np.concatenate((aw, aw)), self.n)

    def find_edge(self, u, v):
        """Id of the edge joining u and v, or None."""
        u, v = min(u, v), max(u, v)
        e = int(np.searchsorted(self.edge_keys, u * self.n + v))
        return e if e < self.m and self.edge_endpoints(e) == (u, v) else None

    def edge_endpoints(self, e):
        return int(self.edge_u[e]), int(self.edge_v[e])

    def edge_list(self):
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist(), self.edge_w.tolist()))

    def alive_vertices(self):
        """Ids of the vertices with at least one edge, ascending."""
        return np.flatnonzero(self.degrees)


def build_graph(raw) -> WeightedGraph:
    """Build a 0-based graph from a parsed instance; zero edges dropped."""
    rows = np.array(raw.edges, dtype=np.float64).reshape(-1, 3) - (1, 1, 0)
    return WeightedGraph(raw.num_vertices, rows[rows[:, 2] != 0])


def cut_weight(g: WeightedGraph, y) -> float:
    """Total weight of edges whose endpoints get different sides under y."""
    y = np.asarray(y)
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


class Adjacency:
    """Mutable form of a graph that contracts in place: ``adj[v]`` maps each
    neighbor of ``v`` to the edge weight and ``abs_sum[v]`` sums their |w|."""

    def __init__(self, g: WeightedGraph):
        adj = self.adj = [{} for _ in range(g.n)]
        for u, v, w in g.edge_list():
            adj[u][v] = adj[v][u] = w
        self.abs_sum = g.abs_degrees.tolist()

    def _link(self, u, v, w):
        self.adj[u][v] = self.adj[v][u] = w
        self.abs_sum[u] += abs(w)
        self.abs_sum[v] += abs(w)

    def _unlink(self, u, v):
        w = self.adj[u].pop(v)
        del self.adj[v][u]
        self.abs_sum[u] -= abs(w)
        self.abs_sum[v] -= abs(w)
        return w

    def merge(self, keep, gone, opposite, trace=None):
        """Merge ``gone`` into ``keep`` in O(deg(gone)); returns the touched
        vertices: ``keep``, ``gone`` and the former neighbors of ``gone``.

        For an opposite-side merge all weights incident to ``gone`` are negated
        first; the accumulated constant (sum of the original incident weights)
        goes into the trace offset. Resulting parallel edges are summed and
        cancelled pairs removed.
        """
        if keep == gone:
            raise ValueError("cannot merge a vertex with itself")
        moved = list(self.adj[gone].items())
        sign = -1.0 if opposite else 1.0
        for z, w in moved:
            self._unlink(gone, z)
            if z == keep:
                continue  # the merged edge itself: contributes only to the offset
            w *= sign
            if z in self.adj[keep]:
                w += self._unlink(keep, z)
            if abs(w) > ZERO_EPS:
                self._link(keep, z, w)
        self.abs_sum[gone] = 0.0  # exactly, whatever the rounding of the updates
        if trace is not None:
            offset_delta = sum(w for _, w in moved) if opposite else 0.0
            trace.record_contraction("opposite" if opposite else "same", keep, gone, offset_delta)
        return [keep, gone] + [z for z, _ in moved]

    def to_graph(self) -> WeightedGraph:
        return WeightedGraph(len(self.adj), [
            (u, v, w) for u, nbrs in enumerate(self.adj) for v, w in nbrs.items() if u < v
        ])


def biconnected_components(g: WeightedGraph):
    """Edge partition into biconnected components plus articulation vertices.

    Returns ``(components, articulation)`` where each component is a sorted
    list of edge ids. Bridges form single-edge components.
    """
    arcs = g.arcs
    visited = [False] * g.n
    disc = [0] * g.n
    low = [0] * g.n
    components = []
    articulation = set()
    timer = 0

    for root in range(g.n):
        if visited[root] or not arcs[root]:
            continue
        # iterative Hopcroft-Tarjan with an explicit edge stack
        stack = [(root, -1, iter(arcs[root]))]
        edge_stack = []
        visited[root] = True
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            v, parent_eid, pending = stack[-1]
            advanced = False
            for w, eid, _ in pending:
                if eid == parent_eid:
                    continue
                if not visited[w]:
                    edge_stack.append(eid)
                    visited[w] = True
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, eid, iter(arcs[w])))
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
    eids = np.asarray(edge_ids, dtype=np.int64)
    verts, local = np.unique(np.concatenate([g.edge_u[eids], g.edge_v[eids]]),
                             return_inverse=True)
    k = len(eids)
    sub = WeightedGraph(len(verts), np.column_stack((local[:k], local[k:], g.edge_w[eids])))
    return sub, verts.tolist()
