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

Table separation scores every odd F set of the graph's triangles and of
its chordless 4-cycles against each new LP point, and ranks the violated
ones of both tables together in numpy. Both tables are listed once, by
``cycle_tables`` in one numpy pass over the wedges: the lookup of a wedge's
end pair that rules out a 4-cycle's diagonal also finds the triangles. A cycle
inequality defines a facet of the cut polytope exactly when its cycle is
chordless (Barahona and Mahjoub), so these short cycles are the cheap
facets: a torus's 4-cycles are its plaquettes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .lp import VIOLATION_TOL, CycleCut, TimeUp, cycle_key, expired

EPS_SKIP = 1e-6        # aux arcs with weight >= 1 - EPS_SKIP are never built
SEP_GATE = 1e-6        # pursue twin paths shorter than 1 - SEP_GATE
EMIT_TOL = 1e-9        # emitted cuts must have slack-form value < 1 - EMIT_TOL
TRIANGLE_BUDGET = 50_000
TRIANGLE_SLAB = 512    # about this many edges whose wedges cycle_tables lists at once
SQUARE_CHUNK = 1 << 16  # about this many wedge pairs cycle_tables builds at once
# cycle_tables skips the triangles whose lowest edge has an end of degree
# above DEGREE_CAP, and the 4-cycles with any vertex above it
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


def chordless_decompose(verts, eids, in_f, x, g):
    """Split a violated simple cycle along chords into chordless violated cuts.

    A chord (a, b), a < b, closes two sub-cycles: the spans (a, b) and
    (b, a + k) of the doubled cycle ``verts + verts``. Prefix sums of the
    F-count and of the slack-form value check each in O(1); violated spans
    are taken greedily by (size, a, b, start), marking their interiors (mod
    k) against chords that end there, and re-decomposed until chordless.
    Returns the original cut when no chord yields a violated sub-cycle (then
    the cycle is necessarily chordless, as any chord splits the violation).
    Chords are read from ``g.arcs``.
    """
    k = len(eids)
    q = list(accumulate(((1.0 - x[e]) if flag else x[e]
                         for e, flag in zip(eids, in_f)), initial=0.0))
    total_lhs = q[k]
    if total_lhs >= 1.0 - EMIT_TOL:
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
            chord_in_inner = (f[b] - f[a]) % 2 == 0
            lhs_in = qd + (1.0 - xc if chord_in_inner else xc)
            lhs_out = (total_lhs - qd) + (xc if chord_in_inner else 1.0 - xc)
            for start, end, lhs, chord_in in ((a, b, lhs_in, chord_in_inner),
                                              (b, a + k, lhs_out, not chord_in_inner)):
                if lhs < 1.0 - EMIT_TOL:
                    candidates.append((end - start + 1, a, b, start, end, ceid, chord_in))

    if not candidates:
        return [CycleCut(tuple(eids), tuple(in_f))]

    candidates.sort(key=lambda c: c[:4])
    ring_v, ring_e, ring_f = verts + verts, eids + eids, in_f + in_f
    marked = [False] * k
    cuts = []
    for _, a, b, start, end, ceid, chord_in in candidates:
        if marked[a] or marked[b]:
            continue
        for t in range(start + 1, end):
            marked[t % k] = True
        cuts.extend(chordless_decompose(ring_v[start:end + 1],
                                        ring_e[start:end] + [ceid],
                                        ring_f[start:end] + [chord_in], x, g))
    return cuts


def separate_exact(g, x, deadline=None):
    """All-sources exact separation; empty iff no cycle inequality is violated
    beyond tolerance. Returned cuts are deduplicated and chordless.

    One ``twin_walk`` search runs from every non-isolated vertex; the
    simple cycles of the walks it finds are decomposed into cuts, each
    distinct cycle (edge set and F) once. Raises TimeUp instead of starting
    a search once ``time.monotonic()`` has passed ``deadline``.
    """
    aux = build_aux_graph(g, x)
    xl = np.asarray(x, dtype=np.float64).tolist()
    arcs = g.arcs
    decomposed = set()
    seen = set()
    cuts: list[CycleCut] = []
    for v in range(g.n):
        if expired(deadline):
            raise TimeUp
        if not arcs[v]:
            continue
        found = twin_walk(aux, v)
        if found is None:
            continue
        for verts, eids, in_f in extract_simple_cycles(found[1]):
            cycle = cycle_key(eids, in_f)
            if cycle in decomposed:
                continue
            decomposed.add(cycle)
            for cut in chordless_decompose(verts, eids, in_f, xl, g):
                if cut.key not in seen:
                    seen.add(cut.key)
                    cuts.append(cut)
    return cuts


def cycle_tables(g, budget=TRIANGLE_BUDGET, square_budget=TRIANGLE_BUDGET):
    """The first ``budget`` triangles and the first ``square_budget``
    chordless 4-cycles of ``g``, as (t, 3) and (t, 4) arrays of edge ids.

    Triangle row (e_xa, e_xy, e_ay) is the triangle x < a < y, listed once
    from its lowest edge (x, a); rows are ordered by (x, a, y), and triangles
    whose lowest edge has an end of degree above DEGREE_CAP are skipped.
    Square row (e_xa, e_ay, e_yb, e_bx) is the cycle x - a - y - b - x whose
    lowest vertex is x, with a < b and neither diagonal (x, y) nor (a, b) an
    edge, so each chordless 4-cycle appears once. Rows are ordered by (x, y,
    a, b); cycles with a vertex of degree above DEGREE_CAP are skipped.

    Both come from one pass over the wedges x - a - y with x lowest. The
    wedges of an edge e = (x, a), x < a, are the pairs (e, e_ay) with e_ay an
    edge from a to some y > x (y > a when no 4-cycle is asked for): a slice
    of a's sorted arcs. They are listed for whole runs of edges of one low
    end x, about TRIANGLE_SLAB edges at a time, which bounds the wedges held
    at once, until both budgets are met.
    Each wedge's end pair (x, y) is looked up among the sorted edge keys: a
    wedge with adjacent ends and a < y is a triangle row. The other wedges of
    a slab are sorted by (x, y, a), and every two wedges of one end pair
    whose middles are not adjacent close a 4-cycle. An end pair with k
    common neighbors makes k(k - 1)/2 such pairs, so they are built about
    SQUARE_CHUNK at a time, and none after the square budget is met.
    """
    n, m, deg = g.n, g.m, g.degrees
    triangles = [np.empty((0, 3), dtype=np.int64)]
    squares = [np.empty((0, 4), dtype=np.int64)]
    eids = np.arange(m)
    # the arcs of both directions of every edge, sorted by (tail, head)
    arc_key = np.concatenate((g.edge_keys, g.edge_v * n + g.edge_u))
    order = np.argsort(arc_key)
    arc_key, arc_eid = arc_key[order], np.concatenate((eids, eids))[order]
    arc_head = arc_key % n
    # a's arcs to heads y > x start right after its arc to x; without
    # 4-cycles, only the heads y > a, which close triangles, are listed
    low = g.edge_u if square_budget > 0 else g.edge_v
    first = np.searchsorted(arc_key, g.edge_v * n + low, side="right")
    later = np.cumsum(deg)[g.edge_v] - first
    later[(deg[g.edge_u] > DEGREE_CAP) | (deg[g.edge_v] > DEGREE_CAP)] = 0
    n_tri = n_sq = lo = 0
    while lo < m and (n_tri < budget or n_sq < square_budget):
        hi = int(np.searchsorted(g.edge_u, g.edge_u[min(lo + TRIANGLE_SLAB, m) - 1],
                                 side="right"))
        span = later[lo:hi]
        e_xa = np.repeat(eids[lo:hi], span)
        arc = (np.repeat(first[lo:hi] - np.cumsum(span) + span, span)
               + np.arange(len(e_xa)))
        e_ay, y = arc_eid[arc], arc_head[arc]
        x, a = g.edge_u[e_xa], g.edge_v[e_xa]
        ends = x * n + y
        e_xy, closed = _find_edges(g, ends)
        hit = closed & (a < y)
        triangles.append(np.column_stack((e_xa, e_xy, e_ay))[hit])
        n_tri += int(hit.sum())
        lo = hi
        if n_sq >= square_budget:
            continue
        keep = (deg[y] <= DEGREE_CAP) & ~closed
        kept = np.flatnonzero(keep)[np.lexsort((a[keep], ends[keep]))]
        ends = ends[kept]
        # wedge w pairs with the later wedges of its end pair, pairs[w] of them
        pairs = np.searchsorted(ends, ends, side="right") - np.arange(len(kept)) - 1
        first_pair = np.cumsum(pairs) - pairs
        w = 0
        while w < len(kept) and n_sq < square_budget:
            stop = int(np.searchsorted(first_pair, first_pair[w] + SQUARE_CHUNK))
            span = pairs[w:stop]
            i = np.repeat(np.arange(w, stop), span)
            j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(span) - span, span)
            i, j = kept[i], kept[j]
            hit = ~_find_edges(g, a[i] * n + a[j])[1]
            squares.append(np.column_stack((e_xa[i], e_ay[i], e_ay[j], e_xa[j]))[hit])
            n_sq += int(hit.sum())
            w = stop
    return np.concatenate(triangles)[:budget], np.concatenate(squares)[:square_budget]


def _find_edges(g, keys):
    """For keys u * n + v, u < v: edge ids (where found) and whether each is
    an edge of ``g``, which has at least one edge."""
    at = np.minimum(np.searchsorted(g.edge_keys, keys), g.m - 1)
    return at, g.edge_keys[at] == keys


def _odd_sets(width):
    """The odd F sets of a cycle of ``width`` edges, as flag tuples: the
    singletons in edge order, then the triples, and so on."""
    return tuple(tuple(i in s for i in range(width))
                 for k in range(1, width + 1, 2)
                 for s in combinations(range(width), k))


_ODD_F = {3: _odd_sets(3), 4: _odd_sets(4)}


def separate_triangles(x, table, squares=None, limit=None):
    """Violated cycle inequalities on the rows of a triangle table and, if
    one is given, of a 4-cycle table, both as ``cycle_tables`` lists them.

    Scores every odd F set of every row of each nonempty table. Returns all
    the cuts in (table, row, F set) order, or with a ``limit`` the ``limit``
    most violated of both tables: by ``CycleCut.violation``, then table, then
    slack-form value (whose last bits the violation may round away), then in
    that order. For x in [0, 1] a cycle has at most one violated F set, as
    two odd sets differ in at least two edges.
    """
    x = np.asarray(x, dtype=np.float64)
    edges, flags, lhs, table_of = [], [], [], []  # per violated (row, F set)
    for at, t in enumerate((table, squares)):
        if t is not None and len(t):
            odd = _ODD_F[t.shape[1]]
            xt = x[t][:, None, :]
            terms = np.where(np.array(odd), 1.0 - xt, xt)  # (t, F sets, width)
            value = terms[:, :, 0]
            for k in range(1, t.shape[1]):  # in edge order, as CycleCut.slack_form adds
                value = value + terms[:, :, k]
            rows, masks = np.nonzero(value < 1.0 - VIOLATION_TOL)
            edges += t[rows].tolist()
            flags += [odd[f] for f in masks.tolist()]
            lhs.append(value[rows, masks])
            table_of += [at] * len(rows)
    pick = range(len(edges))
    if limit is not None and edges:  # lhs - 1 is exactly -(1 - lhs): most violated first
        lhs = np.concatenate(lhs)
        pick = np.lexsort((lhs, table_of, lhs - 1.0))[:limit].tolist()
    return [CycleCut(tuple(edges[i]), flags[i]) for i in pick]
