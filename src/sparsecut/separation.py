"""Exact and heuristic separation of cycle inequalities.

Exact separation (Barahona and Mahjoub, "On the cut polytope", Math. Prog.
1986) searches a two-copy auxiliary graph: copy arcs carry weight x(e),
crossing arcs 1 - x(e). A path from a vertex to its twin of length < 1
corresponds to a violated cycle inequality; its crossing arcs form the odd
set F. One Dijkstra search serves two forms of that graph: the plain one from
``build_aux_graph`` and the one from ``contract_zero_arcs``, whose nodes are
supernodes of aux vertices joined by zero-weight arcs. Found paths are walked
back through their arcs, with zero-arc segments expanded on the contracted
graph, projected to closed walks in the base graph, split into simple cycles
and decomposed along chords into chordless violated cuts.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .lp import VIOLATION_TOL, CycleCut

EPS_SKIP = 1e-6        # aux arcs with weight >= 1 - EPS_SKIP are never built
SEP_GATE = 1e-6        # pursue twin paths shorter than 1 - SEP_GATE
EMIT_TOL = 1e-9        # emitted cuts must have slack-form value < 1 - EMIT_TOL
ZERO_ARC_EPS = 1e-9    # arcs this light are merged by contract_zero_arcs
TRIANGLE_BUDGET = 50_000
DEGREE_CAP = 512


@dataclass
class ClosedWalk:
    """Projection of an aux-graph twin path: a closed walk in the base graph.

    ``verts[i]`` and ``verts[i+1]`` are joined by edge ``edge_ids[i]``;
    ``in_f[i]`` marks crossing (swap) arcs. ``verts[0] == verts[-1]``.
    """

    verts: list[int]
    edge_ids: list[int]
    in_f: list[bool]


class AuxGraph:
    """CSR over the nodes of a two-copy auxiliary graph.

    Aux vertex v < n is base vertex v in the first copy and v + n is its twin
    in the second. ``node_of`` maps aux vertices to nodes: the identity on the
    plain graph, supernode ids on a contracted one. Arc ``pos`` leaves node
    ``node_of[arc_tail[pos]]`` for node ``heads[pos]``; ``arc_tail`` and
    ``arc_head`` keep its aux endpoints. ``zero_arcs`` lists, per aux vertex,
    the contracted zero-weight arcs as (aux head, edge id).
    """

    def __init__(self, n, tails, heads, weights, edge_ids,
                 node_of=None, twins=None, zero_arcs=None):
        self.n = n
        if node_of is None:
            node_of = np.arange(2 * n)
            twins = np.concatenate([node_of[n:], node_of[:n]])
        self.node_of = node_of
        self.num_vertices = len(twins)
        self.zero_arcs = zero_arcs or {}
        tail_nodes = node_of[tails]
        order = np.argsort(tail_nodes, kind="stable")
        self.arc_tail = tails[order]
        self.arc_head = heads[order]
        self.heads = node_of[self.arc_head]
        self.weights = weights[order]
        self.edge_ids = edge_ids[order]
        self.offsets = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(tail_nodes, minlength=self.num_vertices),
                  out=self.offsets[1:])
        # Python lists for the search and the path walk-back:
        # adjacency[node] = [(head node, weight, arc pos)],
        # arcs[pos] = (tail node, aux tail, aux head, edge id)
        out_arcs = list(zip(self.heads.tolist(), self.weights.tolist(),
                            range(len(order))))
        offs = self.offsets.tolist()
        self.adjacency = [out_arcs[offs[v]:offs[v + 1]]
                          for v in range(self.num_vertices)]
        self.arcs = list(zip(tail_nodes[order].tolist(), self.arc_tail.tolist(),
                             self.arc_head.tolist(), self.edge_ids.tolist()))
        self.twins = twins.tolist()

    def twin(self, v):
        return self.twins[v]


def build_aux_graph(g, x, eps_skip=EPS_SKIP) -> AuxGraph:
    """Two-copy auxiliary graph; arcs of weight >= 1 - eps_skip are omitted.

    Each vertex's arcs are ordered by edge id, copy arc before crossing arc.
    """
    n = g.n
    x = np.asarray(x, dtype=np.float64)
    eids = np.arange(g.m)
    copy = x < 1.0 - eps_skip
    cross = 1.0 - x < 1.0 - eps_skip
    u, v, e, w = g.edge_u[copy], g.edge_v[copy], eids[copy], x[copy]
    cu, cv, ce, cw = g.edge_u[cross], g.edge_v[cross], eids[cross], 1.0 - x[cross]
    tails = np.concatenate([u, v, u + n, v + n, cu, cv + n, cv, cu + n])
    heads = np.concatenate([v, u, v + n, u + n, cv + n, cu, cu + n, cv])
    weights = np.concatenate([w, w, w, w, cw, cw, cw, cw])
    arc_eids = np.concatenate([e, e, e, e, ce, ce, ce, ce])
    kind = np.repeat([0, 1], [4 * len(e), 4 * len(ce)])
    order = np.lexsort((kind, arc_eids, tails))
    return AuxGraph(n, tails[order], heads[order], weights[order], arc_eids[order])


def contract_zero_arcs(aux: AuxGraph) -> AuxGraph:
    """Merge the aux vertices joined by zero-weight arcs into supernodes.

    Zero arcs come in pairs (both directions, both copies), so the twin of a
    supernode -- the supernode of any member's twin -- is well defined and
    all distances between supernodes are those between their members.
    """
    n = aux.n
    zero = aux.weights <= ZERO_ARC_EPS
    parent = list(range(2 * n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    zero_arcs: dict[int, list[tuple[int, int]]] = {}
    for t, h, e in zip(aux.arc_tail[zero].tolist(), aux.arc_head[zero].tolist(),
                       aux.edge_ids[zero].tolist()):
        zero_arcs.setdefault(t, []).append((h, e))
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rt] = rh
    _, node_of = np.unique([find(v) for v in range(2 * n)], return_inverse=True)
    twins = np.empty(node_of.max() + 1, dtype=np.int64)
    twins[node_of] = np.concatenate([node_of[n:], node_of[:n]])
    keep = ~zero & (node_of[aux.arc_tail] != node_of[aux.arc_head])
    return AuxGraph(n, aux.arc_tail[keep], aux.arc_head[keep], aux.weights[keep],
                    aux.edge_ids[keep], node_of, twins, zero_arcs)


@dataclass
class DijkstraResult:
    dist: np.ndarray
    parent_arc: list[int]  # arc position of the incoming arc, -1 if none
    scanned: np.ndarray
    hit_twin: bool


def dijkstra_mod(aux: AuxGraph, source) -> DijkstraResult:
    """Dijkstra from node ``source`` with the stop-at-1 and twin pruning rules.

    Heap entries are (distance, push counter, node), so equal distances pop
    in insertion order; stale entries are skipped on pop.
    """
    size = aux.num_vertices
    dist = [np.inf] * size
    parent_arc = [-1] * size
    scanned = [False] * size
    adjacency, twins = aux.adjacency, aux.twins
    target = twins[source]
    dist[source] = 0.0
    heap = [(0.0, 0, source)]
    pushes = 1
    hit_twin = False
    while heap:
        dv, _, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        if dv >= 1.0:
            break
        scanned[v] = True
        if v == target:
            hit_twin = True
            break
        tw = twins[v]
        if scanned[tw] and dv + dist[tw] >= 1.0:
            continue
        for w, weight, pos in adjacency[v]:
            cand = dv + weight
            if cand < dist[w]:
                dist[w] = cand
                parent_arc[w] = pos
                heapq.heappush(heap, (cand, pushes, w))
                pushes += 1
    return DijkstraResult(np.array(dist), parent_arc, np.array(scanned), hit_twin)


def _zero_segment(aux: AuxGraph, start, goal, verts, eids):
    """Append a path of zero arcs from aux vertex ``start`` to ``goal``."""
    if start == goal:
        return
    prev = {start: None}
    queue = deque([start])
    while goal not in prev:
        v = queue.popleft()
        for h, e in aux.zero_arcs.get(v, ()):
            if h not in prev:
                prev[h] = (v, e)
                queue.append(h)
    segment = []
    v = goal
    while prev[v] is not None:
        segment.append((v, prev[v][1]))
        v = prev[v][0]
    for v, e in reversed(segment):
        verts.append(v)
        eids.append(e)


def _aux_path(aux: AuxGraph, result: DijkstraResult, start, goal):
    """Aux-vertex sequence and edge ids of the found path from aux vertex
    ``start`` (in the search source) to aux vertex ``goal``."""
    hops = []
    pos = result.parent_arc[aux.node_of[goal]]
    while pos >= 0:
        hops.append(aux.arcs[pos])
        pos = result.parent_arc[aux.arcs[pos][0]]
    verts, eids = [start], []
    for _, tail, head, eid in reversed(hops):
        _zero_segment(aux, verts[-1], tail, verts, eids)
        verts.append(head)
        eids.append(eid)
    _zero_segment(aux, verts[-1], goal, verts, eids)
    return verts, eids


def _project_walk(aux: AuxGraph, verts, eids) -> ClosedWalk:
    n = aux.n
    base = [v % n for v in verts]
    in_f = [
        (verts[i] < n) != (verts[i + 1] < n) for i in range(len(verts) - 1)
    ]
    return ClosedWalk(base, list(eids), in_f)


def _split_walk(walk: ClosedWalk):
    """All simple cycles of a closed walk (stack splitting at vertex repeats)."""
    cycles = []
    stack_v = [walk.verts[0]]
    stack_e: list[tuple[int, bool]] = []
    pos = {walk.verts[0]: 0}
    for i, (eid, flag) in enumerate(zip(walk.edge_ids, walk.in_f)):
        v = walk.verts[i + 1]
        stack_e.append((eid, flag))
        if v in pos:
            k = pos[v]
            cyc_v = stack_v[k:]
            cyc_e = stack_e[k:]
            for u in stack_v[k + 1 :]:
                del pos[u]
            del stack_v[k + 1 :]
            del stack_e[k:]
            cycles.append((cyc_v, [e for e, _ in cyc_e], [f for _, f in cyc_e]))
        else:
            stack_v.append(v)
            pos[v] = len(stack_v) - 1
    return cycles


def extract_simple_cycles(walk: ClosedWalk):
    """Simple cycles of the walk that can carry a cycle inequality.

    Degenerate two-edge cycles and cycles with an even number of crossing
    edges are discarded (no odd F can be formed from them).
    """
    out = []
    for verts, eids, in_f in _split_walk(walk):
        if len(eids) < 3:
            continue
        if sum(in_f) % 2 == 0:
            continue
        out.append((verts, eids, in_f))
    return out


def _cycle_lhs(eids, in_f, x):
    return sum((1.0 - x[e]) if f else x[e] for e, f in zip(eids, in_f))


def chordless_decompose(verts, eids, in_f, x, g, queue_tol=EMIT_TOL):
    """Split a violated simple cycle along chords into chordless violated cuts.

    Uses prefix sums of the F-count and of the slack-form value for O(1)
    violation checks per chord; violated sub-cycles are selected greedily by
    size with index marking and re-decomposed until chordless. Returns the
    original cut when no chord yields a violated sub-cycle (then the cycle is
    necessarily chordless, as any chord splits the violation).
    """
    k = len(eids)
    total_lhs = _cycle_lhs(eids, in_f, x)
    if total_lhs >= 1.0 - queue_tol:
        return []

    # prefix data over the cycle's edges
    q = [0.0] * (k + 1)
    f = [0] * (k + 1)
    for t in range(k):
        contrib = (1.0 - x[eids[t]]) if in_f[t] else x[eids[t]]
        q[t + 1] = q[t] + contrib
        f[t + 1] = f[t] + (1 if in_f[t] else 0)
    f_total = f[k]

    pos = {v: i for i, v in enumerate(verts)}
    candidates = []
    for b in range(k):
        vb = verts[b]
        for nb, ceid, _ in zip(*g.incident(vb)):
            a = pos.get(int(nb))
            if a is None or a >= b:
                continue
            if b - a == 1 or (a == 0 and b == k - 1):
                continue  # cycle edge, not a chord
            xc = float(x[ceid])
            qd = q[b] - q[a]
            fd = f[b] - f[a]
            chord_in_inner = fd % 2 == 0
            lhs_in = qd + (1.0 - xc if chord_in_inner else xc)
            lhs_out = (total_lhs - qd) + (xc if chord_in_inner else 1.0 - xc)
            if lhs_in < 1.0 - queue_tol:
                candidates.append((b - a + 1, a, b, "inner", int(ceid), chord_in_inner))
            if lhs_out < 1.0 - queue_tol:
                candidates.append(
                    (k - (b - a) + 1, a, b, "outer", int(ceid), not chord_in_inner)
                )

    if not candidates:
        return [CycleCut(tuple(eids), tuple(in_f))]

    candidates.sort(key=lambda c: (c[0], c[1], c[2], c[3]))
    marked = [False] * k
    cuts = []
    for _, a, b, which, ceid, chord_in in candidates:
        if marked[a] or marked[b]:
            continue
        if which == "inner":
            sub_v = verts[a : b + 1]
            sub_e = eids[a:b] + [ceid]
            sub_f = in_f[a:b] + [chord_in]
            for t in range(a + 1, b):
                marked[t] = True
        else:
            sub_v = verts[b:] + verts[: a + 1]
            sub_e = eids[b:] + eids[:a] + [ceid]
            sub_f = in_f[b:] + in_f[:a] + [chord_in]
            for t in range(b + 1, k):
                marked[t] = True
            for t in range(a):
                marked[t] = True
        cuts.extend(chordless_decompose(sub_v, sub_e, sub_f, x, g, queue_tol))
    return cuts


def symmetric_extra_paths(aux: AuxGraph, result: DijkstraResult, source, path_verts):
    """Extra twin walks from finalized twin pairs off the emitted path.

    A twin pair (u, u+n) with both labels finalized and d(u) + d(u+n) < 1
    yields a source-to-twin walk of that length by reflecting the second path.
    Only valid on the plain aux graph, where nodes are aux vertices.
    """
    n = aux.n
    dist, scanned = result.dist, result.scanned
    pairs = scanned[:n] & scanned[n:] & (dist[:n] + dist[n:] < 1.0 - SEP_GATE)
    pairs[source % n] = False
    on_path = set(path_verts)
    walks = []
    for u in np.flatnonzero(pairs).tolist():
        ut = u + n
        if u in on_path or ut in on_path:
            continue
        verts1, eids1 = _aux_path(aux, result, source, u)
        verts2, eids2 = _aux_path(aux, result, source, ut)
        # reflect the source->u+n path into a twin path and reverse it: u -> twin(source)
        verts2 = [aux.twin(v) for v in reversed(verts2)]
        eids2 = list(reversed(eids2))
        walks.append(_project_walk(aux, verts1 + verts2[1:], eids1 + eids2))
    return walks


def _walk_cuts(walk: ClosedWalk, x, g, seen, out):
    for verts, eids, in_f in extract_simple_cycles(walk):
        if _cycle_lhs(eids, in_f, x) >= 1.0 - EMIT_TOL:
            continue
        for cut in chordless_decompose(verts, eids, in_f, x, g):
            key = cut.key()
            if key not in seen:
                seen.add(key)
                out.append(cut)


def separate_exact(g, x, eps_skip=EPS_SKIP, use_symmetry=True,
                   contract_zeros=False):
    """All-sources exact separation; empty iff no cycle inequality is violated
    beyond tolerance. Returned cuts are deduplicated and chordless.

    One ``dijkstra_mod`` search runs from the source node of every
    non-isolated vertex. With ``contract_zeros`` it runs on the graph from
    ``contract_zero_arcs``: a smaller search that finds the same twin
    distances, run once per supernode that holds a source, and no symmetric
    extra walks are taken. Otherwise, with ``use_symmetry``, every finalized twin
    pair off the source's twin path adds a walk (``symmetric_extra_paths``),
    which yields more cuts per search.
    """
    if g.m == 0:
        return []
    aux = build_aux_graph(g, x, eps_skip)
    if contract_zeros:
        aux = contract_zero_arcs(aux)
    sources = aux.node_of[:g.n].tolist()
    last_use = {source: v for v, source in enumerate(sources)}
    searched = {}  # one search per source node, kept until its last use
    seen = set()
    cuts: list[CycleCut] = []
    for v in range(g.n):
        if g.degree(v) == 0:
            continue
        source = sources[v]
        if source not in searched:
            searched[source] = dijkstra_mod(aux, source)
        result = searched[source] if last_use[source] > v else searched.pop(source)
        path_verts: list[int] = []
        if result.dist[aux.twin(source)] < 1.0 - SEP_GATE:
            path_verts, path_eids = _aux_path(aux, result, v, v + g.n)
            _walk_cuts(_project_walk(aux, path_verts, path_eids), x, g, seen, cuts)
        if use_symmetry and not contract_zeros:
            for walk in symmetric_extra_paths(aux, result, v, path_verts):
                _walk_cuts(walk, x, g, seen, cuts)
    return cuts


def separate_triangles(g, x, budget=TRIANGLE_BUDGET, viol_tol=VIOLATION_TOL):
    """Violated cycle inequalities on enumerated triangles (all four odd F)."""
    cuts = []
    seen = set()
    count = 0
    for e in range(g.m):
        u, v = int(g.edge_u[e]), int(g.edge_v[e])
        if g.degree(u) > DEGREE_CAP or g.degree(v) > DEGREE_CAP:
            continue
        nu = g.neighbors(u)
        nv = g.neighbors(v)
        common = np.intersect1d(nu, nv, assume_unique=True)
        for z in common:
            z = int(z)
            if z <= v:
                continue  # enumerate each triangle once, from its lowest edge
            count += 1
            if count > budget:
                return cuts
            e_uz = g.find_edge(u, z)
            e_vz = g.find_edge(v, z)
            tri = (e, e_uz, e_vz)
            xs = [float(x[t]) for t in tri]
            for mask in ((True, False, False), (False, True, False),
                         (False, False, True), (True, True, True)):
                lhs = sum((1.0 - xs[i]) if mask[i] else xs[i] for i in range(3))
                if lhs < 1.0 - viol_tol:
                    cut = CycleCut(tri, mask)
                    key = cut.key()
                    if key not in seen:
                        seen.add(key)
                        cuts.append(cut)
    return cuts
