"""Exact and heuristic separation of cycle inequalities.

Exact separation (Barahona and Mahjoub, "On the cut polytope", Math. Prog.
1986) searches a two-copy auxiliary graph: copy arcs carry weight x(e),
crossing arcs 1 - x(e). A path from a vertex to its twin of length < 1
corresponds to a violated cycle inequality; its crossing arcs form the odd
set F. The aux arcs are read from the graph's per-vertex lists ``g.arcs``.
One Dijkstra search runs from every vertex. By the symmetry of the two
copies it only searches to half the twin distance: two labels that are
twins of each other close a walk to the twin, and the search stops once the
shortest such walk is at most twice the radius. The walk it finds is
projected to a closed walk in the base graph and split into simple cycles;
each distinct cycle of one separation call is decomposed along chords into
chordless violated cuts once.

Triangle separation scores a table of the graph's triangles, listed once by
``triangle_table``, against each new LP point.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .lp import VIOLATION_TOL, CycleCut

EPS_SKIP = 1e-6        # aux arcs with weight >= 1 - EPS_SKIP are never built
SEP_GATE = 1e-6        # pursue twin paths shorter than 1 - SEP_GATE
EMIT_TOL = 1e-9        # emitted cuts must have slack-form value < 1 - EMIT_TOL
TRIANGLE_BUDGET = 50_000
TRIANGLE_SLAB = 512    # edges whose wedges triangle_table lists at once
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


def build_aux_graph(g, x):
    """Arc lists of the two-copy auxiliary graph, read from ``g.arcs``.

    Entry v < n holds the (head, weight, edge id) arcs leaving base vertex v,
    entry v + n those of its twin. Arcs follow ``g.arcs``, which is edge-id
    order; each edge gives its copy arc before its crossing arc, and arcs of
    weight >= 1 - EPS_SKIP are omitted.
    """
    n = g.n
    xl = np.asarray(x, dtype=np.float64).tolist()
    top = 1.0 - EPS_SKIP
    base, twin = [], []
    for arcs in g.arcs:
        out, out_twin = [], []
        for w, e, _ in arcs:
            copy = xl[e]
            cross = 1.0 - copy
            if copy < top:
                out.append((w, copy, e))
                out_twin.append((w + n, copy, e))
            if cross < top:
                out.append((w + n, cross, e))
                out_twin.append((w, cross, e))
        base.append(out)
        twin.append(out_twin)
    return base + twin


def twin_walk(aux, source):
    """Shortest path from ``source`` to its twin in the arc lists ``aux`` of
    ``build_aux_graph``, if shorter than 1 - SEP_GATE.

    Returns (length, closed walk) or None. The search runs to half that
    length only. The aux graph is symmetric under the copy swap σ and every
    arc has a reverse of equal weight, so d(s, σw) = d(w, σs), and
    dist[w] + dist[σw] is the length of a walk s -> w -> σs. Every improving
    relaxation of a vertex w lowers the bound ``ub`` to that sum, and the
    search stops popping at 2·d >= ub. This is exact: on a shortest s -> σs
    path of length l, the arc (a, b) across l/2 has a and σb within l/2, and
    whichever of b and σb is labelled last closes l.
    """
    n = len(aux) // 2
    dist = [math.inf] * (2 * n)
    pred = [None] * (2 * n)  # (tail, edge id) of the incoming arc
    dist[source] = 0.0
    # entries (distance, push counter, vertex): equal distances pop in
    # insertion order, which spreads the walks of different sources over
    # more distinct cycles than a vertex-id order does
    heap = [(0.0, 0, source)]
    pushes = 1
    ub = 1.0 - SEP_GATE
    meet = -1
    while heap:
        dv, _, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        if dv + dv >= ub:
            break
        for w, weight, eid in aux[v]:
            cand = dv + weight
            if cand < dist[w]:
                dist[w] = cand
                pred[w] = (v, eid)
                # dist[w - n] is σw's label: a negative index wraps to w + n
                closed = cand + dist[w - n]
                if closed < ub:
                    ub = closed
                    meet = w
                if cand + cand < ub:  # else it is never popped before the stop
                    heapq.heappush(heap, (cand, pushes, w))
                    pushes += 1
    if meet < 0:
        return None
    # s -> meet along the search tree, then the σ-mirror of the tree path
    # s -> σmeet walked backwards: σmeet ... s mirrors to meet ... σs
    out_v, out_e = _tree_path(pred, meet)
    back_v, back_e = _tree_path(pred, (meet + n) % (2 * n))
    out_v.reverse()
    out_e.reverse()
    verts = out_v + [(u + n) % (2 * n) for u in back_v[1:]]
    eids = out_e + back_e
    in_f = [(verts[i] < n) != (verts[i + 1] < n) for i in range(len(eids))]
    return ub, ClosedWalk([u % n for u in verts], eids, in_f)


def _tree_path(pred, w):
    """Aux vertices and edge ids of the search-tree path from w back to the
    source."""
    verts, eids = [w], []
    step = pred[w]
    while step is not None:
        tail, eid = step
        verts.append(tail)
        eids.append(eid)
        step = pred[tail]
    return verts, eids


def extract_simple_cycles(walk: ClosedWalk):
    """Simple cycles of the walk that can carry a cycle inequality.

    The walk is split into simple cycles on a stack, at each vertex repeat.
    Degenerate two-edge cycles and cycles with an even number of crossing
    edges are discarded (no odd F can be formed from them).
    """
    out = []
    verts, eids, in_f = [walk.verts[0]], [], []
    pos = {walk.verts[0]: 0}
    for v, eid, flag in zip(walk.verts[1:], walk.edge_ids, walk.in_f):
        eids.append(eid)
        in_f.append(flag)
        k = pos.get(v)
        if k is None:
            pos[v] = len(verts)
            verts.append(v)
            continue
        cycle = (verts[k:], eids[k:], in_f[k:])
        for u in verts[k + 1:]:
            del pos[u]
        del verts[k + 1:], eids[k:], in_f[k:]
        if len(cycle[1]) >= 3 and sum(cycle[2]) % 2 == 1:
            out.append(cycle)
    return out


def chordless_decompose(verts, eids, in_f, x, g, queue_tol=EMIT_TOL):
    """Split a violated simple cycle along chords into chordless violated cuts.

    Uses prefix sums of the F-count and of the slack-form value for O(1)
    violation checks per chord; violated sub-cycles are selected greedily by
    size with index marking and re-decomposed until chordless. Returns the
    original cut when no chord yields a violated sub-cycle (then the cycle is
    necessarily chordless, as any chord splits the violation). Chords are
    read from ``g.arcs``.
    """
    k = len(eids)
    q = list(accumulate(((1.0 - x[e]) if flag else x[e]
                         for e, flag in zip(eids, in_f)), initial=0.0))
    total_lhs = q[k]
    if total_lhs >= 1.0 - queue_tol:
        return []
    f = list(accumulate(in_f, initial=0))
    arcs = g.arcs

    pos = {v: i for i, v in enumerate(verts)}
    candidates = []
    for b in range(k):
        for nb, ceid, _ in arcs[verts[b]]:
            a = pos.get(nb)
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
                candidates.append((b - a + 1, a, b, "inner", ceid, chord_in_inner))
            if lhs_out < 1.0 - queue_tol:
                candidates.append(
                    (k - (b - a) + 1, a, b, "outer", ceid, not chord_in_inner)
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


def separate_exact(g, x, deadline=None):
    """All-sources exact separation; empty iff no cycle inequality is violated
    beyond tolerance. Returned cuts are deduplicated and chordless.

    One ``twin_walk`` search runs from every non-isolated vertex; the
    simple cycles of the walks it finds are decomposed into cuts, each
    distinct cycle (edge set and F) once. Once ``time.monotonic()`` passes
    ``deadline``, no further search starts, so the list may be cut short:
    the caller must check the clock before it reads an empty list as "no
    violated cut".
    """
    aux = build_aux_graph(g, x)
    xl = np.asarray(x, dtype=np.float64).tolist()
    arcs = g.arcs
    decomposed = set()
    seen = set()
    cuts: list[CycleCut] = []
    for v in range(g.n):
        if deadline is not None and time.monotonic() >= deadline:
            break
        if not arcs[v]:
            continue
        found = twin_walk(aux, v)
        if found is None:
            continue
        for verts, eids, in_f in extract_simple_cycles(found[1]):
            cycle = frozenset(~e if flag else e for e, flag in zip(eids, in_f))
            if cycle in decomposed:
                continue
            decomposed.add(cycle)
            for cut in chordless_decompose(verts, eids, in_f, xl, g):
                key = cut.key()
                if key not in seen:
                    seen.add(key)
                    cuts.append(cut)
    return cuts


def triangle_table(g, budget=TRIANGLE_BUDGET):
    """The first ``budget`` triangles of ``g`` as a (t, 3) array of edge ids.

    Row (e, e_uz, e_vz) is the triangle that edge e = (u, v), u < v, closes
    with a common neighbor z > v, so each triangle appears once, from its
    lowest edge. Rows are ordered by e, then z; edges with an endpoint of
    degree above DEGREE_CAP are skipped.

    Edges are sorted by (u, v), so the wedges (u; v, z) of e are the pairs
    (e, e_uz) with e_uz a later edge of the same low end u; edge (v, z) is
    looked up among the sorted edge keys. Wedges are listed for
    TRIANGLE_SLAB edges at a time, which bounds the memory, until the budget
    is met.
    """
    deg = np.diff(g.csr_offsets)
    eids = np.arange(g.m)
    later = np.searchsorted(g.edge_u, g.edge_u, side="right") - eids - 1
    later[(deg[g.edge_u] > DEGREE_CAP) | (deg[g.edge_v] > DEGREE_CAP)] = 0
    rows = [np.empty((0, 3), dtype=np.int64)]
    count = 0
    for lo in range(0, g.m, TRIANGLE_SLAB):
        if count >= budget:
            break
        span = later[lo:lo + TRIANGLE_SLAB]
        e = np.repeat(eids[lo:lo + TRIANGLE_SLAB], span)
        e_uz = e + 1 + np.arange(len(e)) - np.repeat(np.cumsum(span) - span, span)
        key = g.edge_v[e] * g.n + g.edge_v[e_uz]
        e_vz = np.minimum(np.searchsorted(g.edge_keys, key), g.m - 1)
        hit = g.edge_keys[e_vz] == key
        rows.append(np.column_stack((e, e_uz, e_vz))[hit])
        count += int(hit.sum())
    return np.concatenate(rows)[:budget]


# the four odd F sets of a triangle, one row each
_ODD_F = ((True, False, False), (False, True, False),
          (False, False, True), (True, True, True))


def separate_triangles(x, table, viol_tol=VIOLATION_TOL):
    """Violated cycle inequalities on the rows of a ``triangle_table``.

    Scores all four odd F sets of every row; cuts come in (row, F set) order.
    """
    xt = np.asarray(x, dtype=np.float64)[table][:, None, :]
    terms = np.where(np.array(_ODD_F), 1.0 - xt, xt)  # (t, 4, 3) slack-form terms
    lhs = terms[:, :, 0] + terms[:, :, 1] + terms[:, :, 2]
    rows, masks = np.nonzero(lhs < 1.0 - viol_tol)
    return [CycleCut(tuple(table[r].tolist()), _ODD_F[f])
            for r, f in zip(rows.tolist(), masks.tolist())]
