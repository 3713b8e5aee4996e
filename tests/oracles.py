"""Independent brute-force reference implementations used to freeze expected
values. Deliberately simple and slow; nothing here shares code with the
package under test beyond the raw data containers."""

import itertools
import math

import numpy as np


def brute_force_maxcut(n, edges):
    """(best weight, one optimal 0/1 assignment) by enumerating bipartitions.

    ``edges`` are 0-based (u, v, w) triples; vertex 0 is pinned to side 0.
    """
    best_w, best_y = -float("inf"), None
    for mask in range(1 << max(n - 1, 0)):
        y = [0] * n
        for v in range(1, n):
            y[v] = (mask >> (v - 1)) & 1
        w = sum(wt for (u, v, wt) in edges if y[u] != y[v])
        if w > best_w:
            best_w, best_y = w, y
    return best_w, best_y


def exhaustive_maxcut(n, edges):
    """Vectorized variant of brute_force_maxcut for larger n (up to ~20).

    Returns (best weight, optimal assignment as an int8 array, vertex 0 on
    side 0). Enumerates all bipartitions at once with numpy.
    """
    if not edges:
        return 0.0, np.zeros(n, dtype=np.int8)
    u = np.array([e[0] for e in edges])
    v = np.array([e[1] for e in edges])
    w = np.array([e[2] for e in edges])
    masks = np.arange(1 << max(n - 1, 0), dtype=np.int64)
    y = np.zeros((masks.size, n), dtype=np.int8)
    for t in range(1, n):
        y[:, t] = (masks >> (t - 1)) & 1
    values = ((y[:, u] != y[:, v]) * w).sum(axis=1)
    k = int(values.argmax())
    return float(values[k]), y[k]


def all_optimal_cuts(n, edges):
    """Every optimal 0/1 assignment with vertex 0 pinned to side 0."""
    best_w, _ = brute_force_maxcut(n, edges)
    out = []
    for mask in range(1 << max(n - 1, 0)):
        y = [0] * n
        for v in range(1, n):
            y[v] = (mask >> (v - 1)) & 1
        w = sum(wt for (u, v, wt) in edges if y[u] != y[v])
        if abs(w - best_w) < 1e-9:
            out.append(y)
    return best_w, out


def brute_force_qubo(dimension, entries):
    """(min of x^T Q x, one argmin as a 1-based dict) by enumeration."""
    best, best_x = float("inf"), None
    for mask in range(1 << dimension):
        x = {i: (mask >> (i - 1)) & 1 for i in range(1, dimension + 1)}
        val = sum(c * x[i] * x[j] for i, j, c in entries)
        if val < best:
            best, best_x = val, x
    return best, best_x


def enumerate_simple_cycles(n, edges):
    """All simple cycles (>= 3 edges) as lists of edge indices.

    Each cycle is reported once (rooted at its smallest vertex, fixed
    orientation).
    """
    adj = [[] for _ in range(n)]
    for idx, (u, v, _) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    cycles = []

    def extend(start, v, path_v, path_e):
        for w, e in adj[v]:
            if w == start and len(path_e) >= 2:
                # canonical orientation: second vertex smaller than last
                if path_v[1] < v:
                    cycles.append(path_e + [e])
            elif w > start and w not in path_v:
                extend(start, w, path_v + [w], path_e + [e])

    for start in range(n):
        extend(start, start, [start], [])
    return cycles


def most_violated_cycle_inequality(n, edges, x):
    """Exhaustive search over simple cycles and odd F; returns (violation, cut).

    The violation is 1 - (sum_F (1-x) + sum_{C\\F} x); positive means violated.
    ``cut`` is (tuple of edge ids, tuple of F flags) or None if no cycle exists.
    """
    best = (-float("inf"), None)
    for cycle in enumerate_simple_cycles(n, edges):
        k = len(cycle)
        for r in range(1, k + 1, 2):
            for fset in itertools.combinations(range(k), r):
                flags = tuple(i in fset for i in range(k))
                slack = sum(
                    (1.0 - x[e]) if f else x[e] for e, f in zip(cycle, flags)
                )
                viol = 1.0 - slack
                if viol > best[0]:
                    best = (viol, (tuple(cycle), flags))
    return best


def random_graph(rng, n, density, weight_lo=-5, weight_hi=5, integral=True):
    """Random 0-based edge list without zero weights."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                if integral:
                    w = 0
                    while w == 0:
                        w = rng.randint(weight_lo, weight_hi)
                    edges.append((u, v, float(w)))
                else:
                    w = 0.0
                    while abs(w) < 1e-9:
                        w = rng.uniform(weight_lo, weight_hi)
                    edges.append((u, v, w))
    return edges


def torus_edges(rng, L):
    """0-based edges of an L x L toroidal grid with uniform +-1 weights."""
    edges = []
    for i in range(L):
        for j in range(L):
            v = i * L + j
            for nb in (i * L + (j + 1) % L, ((i + 1) % L) * L + j):
                edges.append((min(v, nb), max(v, nb), float(rng.choice((-1, 1)))))
    return edges


def cycle_vertices(g, eids):
    """Vertex sequence of a simple cycle given by its (unordered) edge ids."""
    adj = {}
    for e in eids:
        u, v = g.edge_endpoints(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(adj)
    verts = [start]
    prev = None
    while True:
        nxts = [w for w in adj[verts[-1]] if w != prev]
        prev = verts[-1]
        if nxts[0] == start:
            break
        verts.append(nxts[0])
    return verts


def has_chord(g, verts):
    """True if the cycle given by its vertex sequence has a chord in g."""
    k = len(verts)
    on_cycle = set(verts)
    pos = {v: i for i, v in enumerate(verts)}
    for i, v in enumerate(verts):
        for u in g.neighbors(v):
            u = int(u)
            if u not in on_cycle:
                continue
            d = abs(pos[u] - i)
            if d not in (0, 1, k - 1):
                return True
    return False


# -- reference copies of the numpy per-vertex primal heuristics -------------
# Frozen from the implementation they were rewritten from; the rewrite must
# follow the same search. They read only the CSR arrays of the graph.

def _incident(g, v):
    lo, hi = g.csr_offsets[v], g.csr_offsets[v + 1]
    return g.csr_heads[lo:hi], g.csr_weights[lo:hi]


def _cut_value(g, y):
    return float(np.sum(g.edge_w[y[g.edge_u] != y[g.edge_v]]))


def reference_local_minimize(g, theta, grad_tol=1e-4, max_sweeps=300):
    """Gauss-Seidel angle sweeps with one complex numpy field per vertex."""
    theta = np.array(theta, dtype=float)
    for _ in range(max_sweeps):
        max_move = 0.0
        for v in range(g.n):
            heads, weights = _incident(g, v)
            if len(heads) == 0:
                continue
            field = np.sum(weights * np.exp(1j * theta[heads]))
            if abs(field) < 1e-15:
                continue
            new = (math.pi + np.angle(field)) % (2 * math.pi)
            move = abs(new - theta[v])
            move = min(move, 2 * math.pi - move)
            theta[v] = new
            max_move = max(max_move, move)
        if max_move < grad_tol:
            break
    return theta


def reference_best_diameter_cut(g, theta):
    """0/1 assignment of the best diameter cut through the sorted angles."""
    order = np.argsort(theta, kind="stable")
    alpha = theta[order[0]] - 1e-12
    rel = (theta - alpha) % (2 * math.pi)
    y = (rel < math.pi).astype(np.int8)
    weight = _cut_value(g, y)
    best_w, best_y = weight, y.copy()
    events = []
    for v in range(g.n):
        events.append(((theta[v] - alpha) % (2 * math.pi), v))
        events.append(((theta[v] + math.pi - alpha) % (2 * math.pi), v))
    events.sort()
    for _, v in events:
        heads, weights = _incident(g, v)
        same = weights[y[heads] == y[v]].sum()
        diff = weights[y[heads] != y[v]].sum()
        weight += same - diff
        y[v] ^= 1
        if weight > best_w + 1e-12:
            best_w, best_y = weight, y.copy()
    return best_y


def reference_kernighan_lin(g, y):
    """0/1 assignment after best-prefix locked single-flip passes from y."""
    y = np.array(y, dtype=np.int8)
    best_total = _cut_value(g, y)
    n = g.n
    while True:
        gains = np.zeros(n)
        for v in range(n):
            heads, weights = _incident(g, v)
            if len(heads) == 0:
                gains[v] = -np.inf
                continue
            same = weights[y[heads] == y[v]].sum()
            diff = weights[y[heads] != y[v]].sum()
            gains[v] = same - diff
        locked = np.zeros(n, dtype=bool)
        locked[gains == -np.inf] = True
        trial = y.copy()
        running = best_total
        best_prefix_gain = 0.0
        best_prefix = 0
        flips = []
        while not locked.all():
            v = int(np.argmax(np.where(locked, -np.inf, gains)))
            if not np.isfinite(gains[v]):
                break
            running += gains[v]
            flips.append(v)
            locked[v] = True
            heads, weights = _incident(g, v)
            trial_side = trial[v] ^ 1
            trial[v] = trial_side
            for u, w in zip(heads, weights):
                if locked[u]:
                    continue
                if trial[u] == trial_side:
                    gains[u] += 2 * w
                else:
                    gains[u] -= 2 * w
            gains[v] = -gains[v]
            if running - best_total > best_prefix_gain + 1e-12:
                best_prefix_gain = running - best_total
                best_prefix = len(flips)
        if best_prefix == 0:
            break
        for v in flips[:best_prefix]:
            y[v] ^= 1
        best_total += best_prefix_gain
    return y
