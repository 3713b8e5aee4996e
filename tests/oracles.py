"""Independent brute-force reference implementations used to freeze expected
values. Deliberately simple and slow; nothing here shares code with the
package under test beyond the raw data containers, the LP's status codes,
tolerances, error type and cut type, the cut-solution container, the
triangle separator's degree cap and the arc lists that the exact separator
builds for its two-copy auxiliary graph (``build_aux_graph``)."""

import heapq
import itertools
import math

import numpy as np

from sparsecut.graph import CutSolution
from sparsecut.lp import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    FEAS_TOL,
    OPT_TOL,
    VIOLATION_TOL,
    CycleCut,
    LpError,
)
from sparsecut.separation import DEGREE_CAP


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


def reference_enumerate(g, chunk=1 << 12):
    """Chunked enumerator, frozen from the version that scored every
    bipartition edge by edge: (cut, weight) over the 2^(k-1) bipartitions of
    the alive vertices, the last of them on side 0, first maximum in mask
    order (alive vertex i takes bit i)."""
    alive = np.asarray(g.alive_vertices(), dtype=np.int64)
    k = len(alive)
    y = np.zeros(g.n, dtype=np.int8)
    if k == 0:
        return CutSolution.from_assignment(g, y), 0.0
    pos = np.zeros(g.n, dtype=np.int64)
    pos[alive] = np.arange(k)
    eu, ev = pos[g.edge_u], pos[g.edge_v]
    best_mask, best_w = 0, -math.inf
    for start in range(0, 1 << (k - 1), chunk):
        masks = np.arange(start, min(start + chunk, 1 << (k - 1)))
        sides = (masks[:, None] >> np.arange(k)) & 1
        weights = (sides[:, eu] != sides[:, ev]) @ g.edge_w
        i = int(np.argmax(weights))
        if weights[i] > best_w:
            best_mask, best_w = int(masks[i]), float(weights[i])
    y[alive] = (best_mask >> np.arange(k)) & 1
    return CutSolution.from_assignment(g, y), best_w


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


def reference_triangle_table(g, budget, degree_cap=DEGREE_CAP):
    """Per-edge triangle listing, frozen from the version that intersected
    the two endpoints' neighbor lists edge by edge: the first ``budget``
    rows (e, e_uz, e_vz), ordered by e then z, skipping edges with an
    endpoint of degree above ``degree_cap``."""
    deg = np.diff(g.csr_offsets)
    rows = [np.empty((0, 3), dtype=np.int64)]
    count = 0
    for e in range(g.m):
        u, v = int(g.edge_u[e]), int(g.edge_v[e])
        if deg[u] > degree_cap or deg[v] > degree_cap:
            continue
        su = slice(g.csr_offsets[u], g.csr_offsets[u + 1])
        sv = slice(g.csr_offsets[v], g.csr_offsets[v + 1])
        nu, eu = g.csr_heads[su], g.csr_eids[su]
        nv, ev = g.csr_heads[sv], g.csr_eids[sv]
        common, iu, iv = np.intersect1d(nu, nv, assume_unique=True,
                                        return_indices=True)
        above = common > v
        k = int(above.sum())
        if k:
            rows.append(np.column_stack((np.full(k, e), eu[iu[above]], ev[iv[above]])))
            count += k
            if count >= budget:
                break
    return np.concatenate(rows)[:budget]


def reference_separate_triangles(g, x, budget):
    """Per-edge triangle separation, frozen from the version that listed a
    graph's triangles again on every call: violated cycle inequalities on the
    first ``budget`` triangles, all four odd F sets each."""
    deg = np.diff(g.csr_offsets)
    cuts = []
    seen = set()
    count = 0
    for e in range(g.m):
        u, v = int(g.edge_u[e]), int(g.edge_v[e])
        if deg[u] > DEGREE_CAP or deg[v] > DEGREE_CAP:
            continue
        common = np.intersect1d(_incident(g, u)[0], _incident(g, v)[0], assume_unique=True)
        for z in common:
            z = int(z)
            if z <= v:
                continue  # enumerate each triangle once, from its lowest edge
            count += 1
            if count > budget:
                return cuts
            tri = (e, g.find_edge(u, z), g.find_edge(v, z))
            xs = [float(x[t]) for t in tri]
            for mask in ((True, False, False), (False, True, False),
                         (False, False, True), (True, True, True)):
                lhs = sum((1.0 - xs[i]) if mask[i] else xs[i] for i in range(3))
                if lhs < 1.0 - VIOLATION_TOL:
                    cut = CycleCut(tri, mask)
                    if cut.key() not in seen:
                        seen.add(cut.key())
                        cuts.append(cut)
    return cuts


def reference_twin_distance(aux, source):
    """Full-radius twin search, frozen from the version that searched to the
    twin itself: Dijkstra over the aux arc lists from ``source`` (twin of
    aux vertex v is (v + n) mod 2n) with the stop-at-1 and twin pruning rules.
    Returns the distance to the twin, or inf when the search stops before
    reaching it."""
    n = len(aux) // 2
    dist = [math.inf] * (2 * n)
    scanned = [False] * (2 * n)
    target = (source + n) % (2 * n)
    dist[source] = 0.0
    heap = [(0.0, 0, source)]
    pushes = 1
    while heap:
        dv, _, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        if dv >= 1.0:
            break
        scanned[v] = True
        if v == target:
            return dv
        tw = (v + n) % (2 * n)
        if scanned[tw] and dv + dist[tw] >= 1.0:
            continue
        for w, weight, _ in aux[v]:
            cand = dv + weight
            if cand < dist[w]:
                dist[w] = cand
                heapq.heappush(heap, (cand, pushes, w))
                pushes += 1
    return math.inf


def has_chord(g, verts):
    """True if the cycle given by its vertex sequence has a chord in g."""
    k = len(verts)
    on_cycle = set(verts)
    pos = {v: i for i, v in enumerate(verts)}
    for i, v in enumerate(verts):
        for u, _, _ in g.arcs[v]:
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


def _energy(g, theta):
    return float(np.sum(g.edge_w * np.cos(theta[g.edge_u] - theta[g.edge_v])))


def reference_local_minimize(g, theta, grad_tol=1e-4, rel_tol=1e-5,
                             max_sweeps=300):
    """Gauss-Seidel angle sweeps with one complex numpy field per vertex; the
    energy decrease of each sweep is recomputed from scratch."""
    theta = np.array(theta, dtype=float)
    for _ in range(max_sweeps):
        before = _energy(g, theta)
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
        after = _energy(g, theta)
        if max_move < grad_tol or before - after <= rel_tol * abs(after):
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


# -- reference two-phase primal simplex with per-row loops ------------------
# Frozen from the primal implementation that the dual simplex replaced; the
# dual simplex must reach the same feasibility and optimum, along its own
# pivots. It plugs into ``LpEngine._simplex``, so it shares the status codes,
# tolerances and ``LpError`` of ``sparsecut.lp``.

class ReferenceSimplex:
    """Revised simplex for  max c^T x,  A x <= b,  l <= x <= u (dense)."""

    REFACTOR_EVERY = 64
    BLAND_AFTER = 500
    PIVOT_TOL = 1e-8
    MAX_ITERS = 50_000

    def __init__(self, c, lb, ub):
        self.n = len(c)
        self.c = np.asarray(c, dtype=float)
        self.lb = np.asarray(lb, dtype=float).copy()
        self.ub = np.asarray(ub, dtype=float).copy()
        self.rows: list[np.ndarray] = []
        self.rhs: list[float] = []
        self.basis = None
        self.stat = None
        self.iterations = 0

    # -- model edits ------------------------------------------------------

    def add_row(self, coeffs, rhs):
        """coeffs: iterable of (column, coefficient)."""
        row = np.zeros(self.n)
        for j, a in coeffs:
            row[j] += a
        self.rows.append(row)
        self.rhs.append(float(rhs))
        if self.basis is not None:
            # new slack starts basic; phase 1 repairs any infeasibility
            slack_id = self.n + len(self.rows) - 1
            self.basis = np.append(self.basis, slack_id)
            self.stat = np.append(self.stat, BASIC)

    def add_rows(self, rows, rhs):
        for row, r in zip(rows, rhs):
            self.add_row(enumerate(row), r)

    def remove_rows(self, indices):
        doomed = set(indices)
        self.rows = [r for i, r in enumerate(self.rows) if i not in doomed]
        self.rhs = [r for i, r in enumerate(self.rhs) if i not in doomed]
        self.reset_basis()

    def set_bounds(self, lb, ub):
        self.lb = np.asarray(lb, dtype=float).copy()
        self.ub = np.asarray(ub, dtype=float).copy()

    def reset_basis(self):
        self.basis = None
        self.stat = None

    # -- solve ------------------------------------------------------------

    def solve(self):
        m = len(self.rows)
        ncols = self.n + m
        A = np.vstack(self.rows) if m else np.zeros((0, self.n))
        self._A = np.hstack([A, np.eye(m)]) if m else A
        self._b = np.asarray(self.rhs)
        self._l = np.concatenate([self.lb, np.zeros(m)])
        self._u = np.concatenate([self.ub, np.full(m, np.inf)])
        self._cost = np.concatenate([self.c, np.zeros(m)])
        self._m, self._ncols = m, ncols

        if (
            self.basis is None
            or self.stat is None
            or len(self.basis) != m
            or len(self.stat) != ncols
        ):
            self._cold_basis()
        else:
            # clamp remembered nonbasic statuses to the current bounds
            for j in range(self.n):
                if self.stat[j] == AT_UPPER and not np.isfinite(self._u[j]):
                    self.stat[j] = AT_LOWER

        self._refactor()
        self._compute_x()
        self.iterations = 0

        if not self._phase1():
            return False
        self._phase2()
        return True

    def _cold_basis(self):
        m, ncols = self._m, self._ncols
        stat = np.full(ncols, AT_LOWER, dtype=np.int8)
        for j in range(self.n):
            if self.c[j] > 0 and np.isfinite(self._u[j]):
                stat[j] = AT_UPPER
        basis = np.arange(self.n, ncols)
        stat[basis] = BASIC
        self.basis = basis
        self.stat = stat

    def _refactor(self):
        m = self._m
        if m == 0:
            self._Binv = np.zeros((0, 0))
            return
        B = self._A[:, self.basis]
        try:
            self._Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise LpError("basis matrix singular") from exc
        self._since_refactor = 0

    def _compute_x(self):
        x = np.where(self.stat == AT_UPPER, self._u, self._l)
        x[~np.isfinite(x)] = 0.0
        x[self.basis] = 0.0
        if self._m:
            x[self.basis] = self._Binv @ (self._b - self._A @ x)
        self._x = x

    def _infeasible_rows(self):
        xb = self._x[self.basis]
        low = xb < self._l[self.basis] - FEAS_TOL
        up = xb > self._u[self.basis] + FEAS_TOL
        return low, up

    def _phase1(self):
        stall = 0
        while True:
            low, up = self._infeasible_rows()
            if not (low.any() or up.any()):
                return True
            if self.iterations > self.MAX_ITERS:
                raise LpError("phase-1 iteration limit exceeded")
            g = np.zeros(self._m)
            g[low] = 1.0
            g[up] = -1.0
            yvec = g @ self._Binv
            price = yvec @ self._A  # g . Binv A_j per column
            bland = stall > self.BLAND_AFTER
            j, s = self._choose_entering_phase1(price, bland)
            if j is None:
                return False  # infeasibility cannot be reduced: LP infeasible
            moved = self._step(j, s, phase1=True, bland=bland)
            stall = 0 if moved else stall + 1

    def _choose_entering_phase1(self, price, bland):
        best, best_rate = None, OPT_TOL
        for j in range(self._ncols):
            st = self.stat[j]
            if st == BASIC or self._u[j] - self._l[j] <= FEAS_TOL:
                continue
            if st == AT_LOWER and -price[j] > best_rate:
                cand = (j, 1.0)
            elif st == AT_UPPER and price[j] > best_rate:
                cand = (j, -1.0)
            else:
                continue
            if bland:
                return cand
            best_rate = abs(price[j])
            best = cand
        return best if best else (None, None)

    def _phase2(self):
        stall = 0
        while True:
            if self.iterations > self.MAX_ITERS:
                raise LpError("phase-2 iteration limit exceeded")
            yvec = self._cost[self.basis] @ self._Binv if self._m else np.zeros(0)
            d = self._cost - (yvec @ self._A if self._m else 0.0)
            bland = stall > self.BLAND_AFTER
            j, s = self._choose_entering_phase2(d, bland)
            if j is None:
                self._d = d
                return
            moved = self._step(j, s, phase1=False, bland=bland)
            stall = 0 if moved else stall + 1

    def _choose_entering_phase2(self, d, bland):
        best, best_rate = None, OPT_TOL
        for j in range(self._ncols):
            st = self.stat[j]
            if st == BASIC or self._u[j] - self._l[j] <= FEAS_TOL:
                continue
            if st == AT_LOWER and d[j] > best_rate:
                cand = (j, 1.0)
            elif st == AT_UPPER and d[j] < -best_rate:
                cand = (j, -1.0)
            else:
                continue
            if bland:
                return cand
            best_rate = abs(d[j])
            best = cand
        return best if best else (None, None)

    def _step(self, j, s, phase1, bland):
        """Move entering column j in direction s; returns True if t > 0."""
        alpha = self._Binv @ self._A[:, j] if self._m else np.zeros(0)
        delta = -s * alpha  # change of basic values per unit step
        xb = self._x[self.basis]
        lB, uB = self._l[self.basis], self._u[self.basis]

        t_best = self._u[j] - self._l[j]
        leave_row = None
        leave_bound = None
        for i in range(self._m):
            di = delta[i]
            if abs(di) < self.PIVOT_TOL:
                continue
            if phase1 and xb[i] < lB[i] - FEAS_TOL:
                # infeasible below: blocks only when rising to its lower bound
                if di > 0:
                    ratio, bound = (lB[i] - xb[i]) / di, AT_LOWER
                else:
                    continue
            elif phase1 and xb[i] > uB[i] + FEAS_TOL:
                if di < 0:
                    ratio, bound = (uB[i] - xb[i]) / di, AT_UPPER
                else:
                    continue
            else:
                if di < 0:
                    ratio, bound = (lB[i] - xb[i]) / di, AT_LOWER
                elif di > 0:
                    if not np.isfinite(uB[i]):
                        continue
                    ratio, bound = (uB[i] - xb[i]) / di, AT_UPPER
            ratio = max(ratio, 0.0)
            take = ratio < t_best - 1e-12
            if not take and ratio < t_best + 1e-12 and leave_row is not None:
                # tie-break: prefer the larger pivot (or lowest index under Bland)
                if bland:
                    take = self.basis[i] < self.basis[leave_row]
                else:
                    take = abs(delta[i]) > abs(delta[leave_row])
            if take:
                t_best, leave_row, leave_bound = ratio, i, bound

        if not np.isfinite(t_best):
            raise LpError("unbounded simplex direction")

        self.iterations += 1
        t = t_best
        if t > 0:
            self._x[j] += s * t
            self._x[self.basis] = xb + t * delta

        if leave_row is None:
            # entering variable hits its own opposite bound
            self.stat[j] = AT_UPPER if s > 0 else AT_LOWER
            return t > 1e-12

        leaving = self.basis[leave_row]
        self.stat[leaving] = leave_bound
        self._x[leaving] = self._l[leaving] if leave_bound == AT_LOWER else self._u[leaving]
        self.stat[j] = BASIC
        self.basis[leave_row] = j

        # product-form update of the basis inverse
        piv = alpha[leave_row]
        if abs(piv) < self.PIVOT_TOL:
            self._refactor()
        else:
            self._Binv[leave_row] /= piv
            for i in range(self._m):
                if i != leave_row and abs(alpha[i]) > 1e-14:
                    self._Binv[i] -= alpha[i] * self._Binv[leave_row]
            self._since_refactor += 1
            if self._since_refactor >= self.REFACTOR_EVERY:
                self._refactor()
        self._compute_x()
        return t > 1e-12

    # -- solution access --------------------------------------------------

    def solution(self):
        return self._x[: self.n].copy()

    def objective(self):
        return float(self._cost @ self._x)

    def reduced_costs(self):
        d = self._d[: self.n].copy()
        d[self.stat[: self.n] == BASIC] = 0.0
        return d

    def statuses(self):
        return self.stat[: self.n].copy()

    def row_slacks(self):
        return self._x[self.n :].copy()
