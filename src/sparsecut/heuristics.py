"""Primal heuristics: rank-2 angular local search, Kernighan-Lin improvement
and spanning-tree rounding of LP points."""

from __future__ import annotations

import math

import numpy as np

from .graph import CutSolution, cut_weight
from .lp import expired

GRAD_TOL = 1e-4
REL_TOL = 1e-5
MAX_SWEEPS = 300
PERTURBATION = math.pi / 10
DEFAULT_RESTARTS = 8


def angular_energy(g, theta):
    """sum over edges of w * cos(theta_u - theta_v); low energy = heavy cut."""
    return float(np.sum(g.edge_w * np.cos(theta[g.edge_u] - theta[g.edge_v])))


def _flip_gain(v, y, arcs):
    """Change in cut weight when v moves to the other side under y."""
    same = diff = 0.0
    side = y[v]
    for u, _, w in arcs[v]:
        if y[u] == side:
            same += w
        else:
            diff += w
    return same - diff


def _local_minimize(g, theta, deadline=None):
    """Coordinate-wise angle updates toward a local minimum of the angular
    energy E; stops after a sweep that moves no angle by ``GRAD_TOL`` or
    lowers E by at most ``REL_TOL * |E|``, or in which ``time.monotonic()``
    passes ``deadline``."""
    angle = theta.tolist()
    # refreshed only when an angle moves, so a field needs no trig calls
    cos_a = [math.cos(t) for t in angle]
    sin_a = [math.sin(t) for t in angle]
    two_pi = 2 * math.pi
    energy = angular_energy(g, theta)
    for _ in range(MAX_SWEEPS):
        max_move = 0.0
        drop = 0.0
        for v, nbrs in enumerate(g.arcs):
            if not nbrs:
                continue
            # optimal angle against the complex field of the neighbors
            re = im = 0.0
            for u, _, w in nbrs:
                re += w * cos_a[u]
                im += w * sin_a[u]
            size = math.hypot(re, im)
            if size < 1e-15:
                continue
            new = (math.pi + math.atan2(im, re)) % two_pi
            old = angle[v]
            if new == old:
                continue
            # v's energy terms go from cos(old)re + sin(old)im to -|field|
            drop += cos_a[v] * re + sin_a[v] * im + size
            move = abs(new - old)
            if move > math.pi:
                move = two_pi - move
            angle[v] = new
            cos_a[v] = math.cos(new)
            sin_a[v] = math.sin(new)
            if move > max_move:
                max_move = move
        energy -= drop
        if max_move < GRAD_TOL or drop <= REL_TOL * abs(energy):
            break
        if expired(deadline):
            break
    theta[:] = angle
    return theta


def _best_diameter_cut(g, theta):
    """Best bipartition over the |V| diameters through sorted vertex angles.

    Sweeping the diameter angle flips one vertex per event; the cut weight is
    maintained incrementally.
    """
    order = np.argsort(theta, kind="stable")
    # initial diameter just below the smallest angle: side = angle in [a, a+pi)
    alpha = float(theta[order[0]]) - 1e-12
    rel = (theta - alpha) % (2 * math.pi)
    y = (rel < math.pi).astype(np.int8)
    weight = cut_weight(g, y)
    y = y.tolist()
    best_w, best_y = weight, list(y)

    # events: passing a vertex angle flips that vertex out of the arc,
    # passing angle+pi flips it in; process in increasing angle order
    arcs = g.arcs
    events = []
    for v, t in enumerate(theta.tolist()):
        events.append(((t - alpha) % (2 * math.pi), v))
        events.append(((t + math.pi - alpha) % (2 * math.pi), v))
    events.sort()
    for _, v in events:
        weight += _flip_gain(v, y, arcs)
        y[v] ^= 1
        if weight > best_w + 1e-12:
            best_w, best_y = weight, list(y)
    return CutSolution.from_assignment(g, best_y)


def kernighan_lin(g, solution: CutSolution) -> CutSolution:
    """Best-gain single-flip passes with locking; keeps the best pass prefix.

    Never returns a worse cut than its input.
    """
    arcs = g.arcs
    y = solution.y.tolist()
    best_total = solution.weight
    n = g.n
    while True:
        gains = np.empty(n)
        for v in range(n):
            if not arcs[v]:
                gains[v] = -np.inf  # isolated vertices never help
            else:
                gains[v] = _flip_gain(v, y, arcs)
        # a locked vertex holds gain -inf, which the updates below keep, so
        # argmax (first maximum on ties) only picks unlocked vertices
        trial = list(y)
        running = best_total
        best_prefix_gain = 0.0
        best_prefix = 0
        flips = []
        for _ in range(n):
            v = int(np.argmax(gains))
            gain = float(gains[v])
            if gain == -math.inf:
                break
            running += gain
            flips.append(v)
            gains[v] = -np.inf
            trial_side = trial[v] ^ 1
            trial[v] = trial_side
            for u, _, w in arcs[v]:
                if trial[u] == trial_side:
                    gains[u] += 2 * w
                else:
                    gains[u] -= 2 * w
            if running - best_total > best_prefix_gain + 1e-12:
                best_prefix_gain = running - best_total
                best_prefix = len(flips)
        if best_prefix == 0:
            break
        for v in flips[:best_prefix]:
            y[v] ^= 1
        best_total += best_prefix_gain
    return CutSolution.from_assignment(g, y)


def burer_rank2(g, seed=0, restarts=DEFAULT_RESTARTS,
                deadline=None) -> CutSolution:
    """Angular rank-2 local search with diameter cut extraction and KL polish.

    ``restarts`` is the most descents run: restarts stop at the first one
    whose cut is not strictly heavier than the best so far. Once
    ``time.monotonic()`` passes ``deadline``, no further restart starts and
    a running descent ends after its current sweep; the first restart always
    runs.
    """
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 2 * math.pi, size=g.n)
    best = None
    for attempt in range(max(1, restarts)):
        if attempt > 0 and expired(deadline):
            break
        theta = base.copy()
        if attempt > 0:
            theta = (theta + rng.uniform(-PERTURBATION, PERTURBATION, size=g.n)) % (
                2 * math.pi
            )
        theta = _local_minimize(g, theta, deadline)
        cand = kernighan_lin(g, _best_diameter_cut(g, theta))
        if best is not None and cand.weight <= best.weight:
            break
        best = cand
        base = np.where(cand.y == 0, 0.0, math.pi).astype(float)
    return best


def spanning_tree_rounding(g, x) -> CutSolution:
    """Round an LP point along a max-confidence spanning forest, then KL.

    Edge confidence is |x(e) - 1/2|; tree edges propagate the rounded value
    from the root, so integral LP points reproduce their cut exactly.
    """
    order = np.argsort(-np.abs(x - 0.5), kind="stable").tolist()
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in order:
        u, v = int(g.edge_u[e]), int(g.edge_v[e])
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        parent[ru] = rv
        tree_adj[u].append((v, e))
        tree_adj[v].append((u, e))

    y = np.zeros(g.n, dtype=np.int8)
    seen = np.zeros(g.n, dtype=bool)
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            for u, e in tree_adj[v]:
                if seen[u]:
                    continue
                seen[u] = True
                y[u] = y[v] ^ (1 if x[e] >= 0.5 else 0)
                stack.append(u)
    return kernighan_lin(g, CutSolution.from_assignment(g, y))
