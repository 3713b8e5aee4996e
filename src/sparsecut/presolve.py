"""Iterated weight-based reductions: dominating edges, triangle fixings and
symmetric vertex merges, applied to a fixpoint with trace recording.

The rules run as a vertex worklist on one mutable ``Adjacency``. Round 1
visits every vertex in id order, each later round the vertices the previous
round touched (``keep``, ``gone`` and the former neighbors of ``gone``). At a
visited vertex the rules are tried in ``RULE_NAMES`` order on the current
graph and the first site that applies is contracted. Whether a rule applies
at a site depends only on the edges and |w|-degree sums of its vertices, and
a contraction touches every vertex whose edges or sums change, so a round
that contracts nothing leaves no site where a rule applies. The
``WeightedGraph`` is built once, at the end.

One array pass over the input's edges and triangles first flags the vertices
where a site passes a test looser than the exact one (``SCREEN_TOL``). A
vertex is clean until a merge returns it, and a site of clean vertices is
unchanged, so it is checked in Python only at a flagged vertex.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .graph import Adjacency, ReductionTrace, WeightedGraph
from .separation import DEGREE_CAP, TRIANGLE_BUDGET, cycle_tables

REL_TOL = 1e-9  # a >= b passes if a >= b - REL_TOL * max(1, |a|, |b|), a > b if a > b + that
SCREEN_TOL = 1e-6  # relative, and looser than REL_TOL: the screen never clears a site
SCREEN_SLAB = 2048  # triangles that the screen tests at once

RULE_NAMES = ("dominating_edge", "triangle_zero", "triangle_one", "symmetry_merge")


@dataclass
class PresolveStats:
    rounds: int = 0
    edges_contracted: int = 0
    vertices_merged: int = 0
    rule_hits: dict = field(default_factory=lambda: {name: 0 for name in RULE_NAMES})
    elapsed: float = 0.0


# -- dominating edge (singleton cut check) --------------------------------

def _check_dominating(a, u, v):
    """Fix value for edge {u,v} if it dominates one endpoint's cut, else None."""
    w = a.adj[u][v]
    aw = abs(w)
    rest = min(a.abs_sum[u], a.abs_sum[v]) - aw
    if aw > rest + REL_TOL * max(1.0, aw, abs(rest)):
        return 1 if w > 0 else 0
    return None


def rule_dominating_edge(g):
    """Candidates (u, v, fix-to) where |w(e)| strictly dominates a singleton cut."""
    a = Adjacency(g)
    sites = ((u, v, _check_dominating(a, u, v)) for u, v, _ in g.edge_list())
    return [site for site in sites if site[2] is not None]


# -- triangle rules --------------------------------------------------------

def _triangles_at(a, v):
    """Triangles through ``v``, each once as (x, y, z) with x < y < z, whose
    two lowest vertices have degree at most separation's ``DEGREE_CAP``."""
    adj = a.adj
    nv = adj[v]
    for y in nv:
        ny = adj[y]
        for z in (nv if len(nv) <= len(ny) else ny):
            if z > y and z in nv and z in ny:
                x, y2, z2 = sorted((v, y, z))
                if len(adj[x]) <= DEGREE_CAP and len(adj[y2]) <= DEGREE_CAP:
                    yield x, y2, z2


def _triangle_sites(g, site_of):
    a = Adjacency(g)
    sites = (site_of(a, t) for v in range(g.n) for t in _triangles_at(a, v) if t[0] == v)
    return [site for site in sites if site is not None]


def _triangle_zero_site(a, t):
    """The first labeling (v1, v2, v3) of triangle ``t`` that admits
    x(v1 v2) = 0, or None. The check is symmetric in v1 and v2."""
    adj, sums = a.adj, a.abs_sum
    x, y, z = t
    wxy, wxz, wyz = adj[x][y], adj[x][z], adj[y][z]
    axy, axz, ayz = abs(wxy), abs(wxz), abs(wyz)
    sx, sy, sz = sums[x], sums[y], sums[z]
    for v1, v2, v3, w12, w13, w23, a12, a13, a23, s1, s2, s3 in (
            (x, y, z, wxy, wxz, wyz, axy, axz, ayz, sx, sy, sz),
            (x, z, y, wxz, wxy, wyz, axz, axy, ayz, sx, sz, sy),
            (y, z, x, wyz, wxy, wxz, ayz, axy, axz, sy, sz, sx)):
        # flipping a set with {v1,v2}, {v1,v3} in its cut removes w12 + w13
        # from the objective and changes the remaining crossing edges by at
        # most the right-hand side, so the fix is safe when -(w12 + w13)
        # covers that loss; V1 = {v1} or {v2, v3}, V2 = {v2} or {v1, v3}
        lhs1, lhs2 = -(w13 + w12), -(w12 + w23)
        rhs1 = min(s1 - a12 - a13, s2 + s3 - 2 * a23 - a12 - a13)
        rhs2 = min(s2 - a12 - a23, s1 + s3 - 2 * a13 - a12 - a23)
        if (lhs1 >= rhs1 - REL_TOL * max(1.0, abs(lhs1), abs(rhs1))
                and lhs2 >= rhs2 - REL_TOL * max(1.0, abs(lhs2), abs(rhs2))):
            return v1, v2, v3
    return None


def rule_triangle_zero(g):
    """Candidates (v1, v2, v3) whose labeled triangle admits x(v1 v2) = 0."""
    return _triangle_sites(g, _triangle_zero_site)


def _triangle_one_site(a, t):
    """The first labeling (v1, v2, v3) of triangle ``t`` that admits
    x(v1 v2) = 1, or None: requires w12 > 0, w13 > 0 and w23 < 0, so v1 is
    the apex opposite the only negative edge."""
    adj, sums = a.adj, a.abs_sum
    x, y, z = t
    if adj[y][z] < 0:
        v1, p, r = x, y, z
    elif adj[x][z] < 0:
        v1, p, r = y, x, z
    else:
        v1, p, r = z, x, y
    for v2, v3 in ((p, r), (r, p)):
        w12, w13, w23 = adj[v1][v2], adj[v1][v3], adj[v2][v3]
        if not (w12 > 0 and w13 > 0 and w23 < 0):
            return None
        a12, a13, a23 = abs(w12), abs(w13), abs(w23)
        # V1 = {v1} or {v2, v3}, V2 = {v2} or {v1, v3}; only e12, e13 are excluded
        lhs1, lhs2 = w12 + w13, w12 - w23
        rhs1 = min(sums[v1] - a12 - a13, sums[v2] + sums[v3] - 2 * a23 - a12 - a13)
        rhs2 = min(sums[v2] - a12, sums[v1] + sums[v3] - 2 * a13 - a12)
        if (lhs1 >= rhs1 - REL_TOL * max(1.0, abs(lhs1), abs(rhs1))
                and lhs2 >= rhs2 - REL_TOL * max(1.0, abs(lhs2), abs(rhs2))):
            return v1, v2, v3
    return None


def rule_triangle_one(g):
    """Candidates (v1, v2, v3) whose labeled triangle admits x(v1 v2) = 1."""
    return _triangle_sites(g, _triangle_one_site)


# -- symmetric vertex pairs ------------------------------------------------

def _check_symmetry(a, u, v):
    """Merge sign (+1 same side / -1 opposite) for a symmetric pair, or None."""
    nu, nv = a.adj[u], a.adj[v]
    if len(nu) - (v in nu) != len(nv) - (u in nv):
        return None
    common = nu.keys() - {v}
    if not common or common != nv.keys() - {u}:
        return None
    # proportionality factor alpha with w(u,z) = alpha * w(v,z) on the
    # common neighborhood, taken at its lowest vertex
    z0 = min(common)
    alpha = nu[z0] / nv[z0]
    if alpha == 0.0:
        return None
    for z in common:
        wu, wv = nu[z], alpha * nv[z]
        if abs(wu - wv) > REL_TOL * max(1.0, abs(wu), abs(wv)):
            return None
    # a connecting edge must have the sign opposite to alpha
    w_uv = nu.get(v)
    if w_uv is not None and not w_uv * alpha < 0:
        return None
    return 1 if alpha > 0 else -1


def _symmetric_pairs(a, v):
    """Symmetric pairs (lo, hi, sign) containing ``v``.

    A partner u shares every neighbor of v other than u, so for the
    lowest-degree neighbor z of v, u is z or a neighbor of z: a hub vertex
    is searched only when v has no neighbor of lower degree.
    """
    adj = a.adj
    if not adj[v]:
        return
    z = min(adj[v], key=lambda y: len(adj[y]))
    for u in (z, *adj[z]):
        if u != v:
            lo, hi = min(u, v), max(u, v)
            sign = _check_symmetry(a, lo, hi)
            if sign is not None:
                yield lo, hi, sign


def rule_symmetry_merge(g):
    """Candidates (u, v, sign) of vertices with identical punctured neighborhoods
    and proportional weights; sign +1 merges same side, -1 opposite sides."""
    a = Adjacency(g)
    return sorted({pair for v in range(g.n) for pair in _symmetric_pairs(a, v)})


# -- driver ----------------------------------------------------------------

def _screen(g):
    """Per-vertex flags (dominating, triangle), as lists: the vertices of the
    edges and triangles of ``g`` that pass their rules' tests with a slack of
    ``SCREEN_TOL`` times 1 plus the |w| sums involved, which bound both sides.
    A triangle table cut at ``TRIANGLE_BUDGET`` flags every vertex."""
    u, v, w = g.edge_u, g.edge_v, g.edge_w
    aw, sums = np.abs(w), g.abs_degrees
    low = np.minimum(sums[u], sums[v])
    hit = aw - (low - aw) >= -SCREEN_TOL * (1.0 + low)
    dom = (np.bincount(np.concatenate((u[hit], v[hit])), minlength=g.n) > 0).tolist()
    table = cycle_tables(g, TRIANGLE_BUDGET + 1, 0)[0]
    if len(table) == 0 or len(table) > TRIANGLE_BUDGET:
        return dom, [len(table) > 0] * g.n
    # ``ring`` holds the corners x, y, z, x, y and ``w_opp`` the weight of the
    # edge opposite each, so the row slices A, B, C run over the rotations and
    # every labeling (v1, v2, v3) is (A, B, C) or (A, C, B). With |w| moved to
    # the left, neg = |w| - w, pos = |w| + w and m(v) = min(s_v, s_other -
    # 2 |w_opp(v)|), triangle-zero is neg12 + neg13 >= m(v1), neg12 + neg23 >=
    # m(v2), and triangle-one is pos12 + pos13 >= m(v1), pos12 - w23 >= m(v2).
    x, y, z = u[table[:, 0]], v[table[:, 0]], v[table[:, 1]]
    ring, opp = np.stack((x, y, z, x, y)), table[:, [2, 1, 0, 2, 1]].T
    A, B, C = slice(0, 3), slice(1, 4), slice(2, 5)
    passed = np.zeros(len(table), dtype=bool)
    for lo in range(0, len(table), SCREEN_SLAB):
        s, w_opp = sums[ring[:, lo:lo + SCREEN_SLAB]], w[opp[:, lo:lo + SCREEN_SLAB]]
        a_opp, total = np.abs(w_opp), s[0] + s[1] + s[2]
        m = np.minimum(s, total - s - 2 * a_opp) - SCREEN_TOL * (1.0 + total)
        neg, pos = a_opp - w_opp, a_opp + w_opp
        zero = (neg[C] + neg[B] >= m[A]) & (neg[C] + neg[A] >= m[B])
        one = ((w_opp[A] < 0) & (w_opp[B] > 0) & (w_opp[C] > 0) & (pos[B] + pos[C] >= m[A])
               & ((pos[C] - w_opp[A] >= m[B]) | (pos[B] - w_opp[A] >= m[C])))
        passed[lo:lo + SCREEN_SLAB] = (zero | one).any(axis=0)
    return dom, (np.bincount(ring[:3, passed].ravel(), minlength=g.n) > 0).tolist()


def _reduction_at(a, v, dom, tri, dirty):
    """(rule, keep, gone, opposite) for the first site at ``v`` where a rule
    applies, trying the rules in ``RULE_NAMES`` order, or None. The
    lower-indexed vertex survives. A site is skipped when the screen flags
    (``dom``, ``tri``) cleared it and none of its vertices is ``dirty``."""
    for z in a.adj[v]:
        fix = _check_dominating(a, v, z) if dom[v] or v in dirty or z in dirty else None
        if fix is not None:
            return "dominating_edge", min(v, z), max(v, z), fix == 1
    triangles = []
    if tri[v] or v in dirty or not dirty.isdisjoint(a.adj[v]):
        triangles = [t for t in _triangles_at(a, v) if tri[v] or not dirty.isdisjoint(t)]
    for rule, site_of in (("triangle_zero", _triangle_zero_site),
                          ("triangle_one", _triangle_one_site)):
        for t in triangles:
            site = site_of(a, t)
            if site is not None:
                return rule, min(site[:2]), max(site[:2]), rule == "triangle_one"
    pair = next(_symmetric_pairs(a, v), None)
    if pair is not None:
        lo, hi, sign = pair
        return "symmetry_merge", lo, hi, sign < 0
    return None


def presolve_loop(g: WeightedGraph):
    """Apply all rules in worklist rounds until a round contracts nothing.

    Returns (reduced graph, trace, stats); the reduced graph is ``g`` itself
    when nothing was contracted. The trace replay plus its offset reproduce
    original optimal solutions from reduced ones.
    """
    start = time.perf_counter()
    trace = ReductionTrace()
    stats = PresolveStats()
    a = Adjacency(g)
    dom, tri = _screen(g)
    dirty = set()  # the vertices merges have returned since the screen ran

    queue = range(g.n)
    while True:  # ends: every contraction removes a vertex
        stats.rounds += 1
        touched = set()
        for v in queue:
            found = _reduction_at(a, v, dom, tri, dirty)
            if found is None:
                continue
            rule, keep, gone, opposite = found
            merged = a.merge(keep, gone, opposite, trace)
            touched.update(merged)
            dirty.update(merged)
            stats.rule_hits[rule] += 1
            stats.vertices_merged += 1
        if not touched:
            break
        queue = sorted(touched)

    reduced = a.to_graph() if stats.vertices_merged else g
    stats.edges_contracted = g.m - reduced.m
    stats.elapsed = time.perf_counter() - start
    return reduced, trace, stats


def format_stats(stats: PresolveStats) -> str:
    hits = ", ".join(f"{name}={stats.rule_hits[name]}" for name in RULE_NAMES)
    return (
        f"presolve: rounds={stats.rounds} merged={stats.vertices_merged} "
        f"edges_removed={stats.edges_contracted} [{hits}] "
        f"elapsed={stats.elapsed:.4f}s"
    )
