"""Exact branch-and-cut over cycle inequalities, with presolve, biconnected
decomposition and reduced-cost fixing, in a single thread.

Pipeline: presolve contractions -> biconnected components -> per-component
enumeration or branch-and-cut -> block-cut-tree stitching -> replay of the
presolve trace onto the original graph. Every incumbent is re-evaluated on the
original instance before it is reported. The tolerances are absolute, so
weights all below 1 are first scaled up by a power of two.

Branch-and-cut takes open nodes in best-bound order. A node is its bound and
its fixed edges. Every bound in the heap is valid for its node's subtree (the
root's is the trivial bound), so each stop -- gap, node or time limit -- is
read at the heap's top while that node is still queued, and the dual is the
larger of the incumbent and the top's bound; components share one node
budget. Each cutting round solves the LP once; its reduced-cost fixings take
effect at the next round's solve. A node's rounds stop when its LP is
infeasible, its bound is pruned or a round adds no cut, which must come: every
other round adds a cut the pool lacks, and the pool purges only as a node
starts. After a round that adds no cut at a fractional x, the node branches on
the free fractional edge of largest ``max(|w|, 1) * min(x, 1 - x)``. A
component whose weights are all integers has cuts that weigh multiples of the
weights' greatest common divisor, so its LP bounds are rounded down to such a
multiple; no option sets this.
"""

from __future__ import annotations

import heapq
import logging
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .graph import (
    CutSolution,
    ReductionTrace,
    WeightedGraph,
    biconnected_components,
    build_graph,
    induce_subgraph,
)
from .heuristics import burer_rank2, spanning_tree_rounding
from .instances import RawMaxCutInstance, RawQuboInstance, ResultReport
from .lp import LpEngine, TimeUp, expired
from .presolve import format_stats, presolve_loop
from .propagate import effective_bound, propagate
from .separation import cycle_tables, separate_exact, separate_triangles
from .transform import qubo_assignment_from_maxcut, qubo_to_maxcut

log = logging.getLogger("sparsecut")

INT_TOL = 1e-6
PRUNE_TOL = 1e-9
# enumeration beats branch-and-cut up to about k = 21 alive vertices; see the
# README for why the default stops at 15
DEFAULT_ENUM_THRESHOLD = 15
ENUM_CHUNK = 1 << 14     # bipartitions scored at once by enumerate_component


@dataclass
class Config:
    time_limit_s: float = 3600.0
    gap_percent: float = 0.0
    threads: int = 1             # accepted and ignored: the solver is single-threaded
    seed: int = 0
    enum_threshold: int = DEFAULT_ENUM_THRESHOLD
    node_limit: int = 0          # 0 = unlimited
    presolve: bool = True
    heuristics: bool = True

    def __post_init__(self):
        # 0 is no limit; nan is never reached and a negative limit (or count) is past
        for name in ("time_limit_s", "gap_percent", "node_limit", "enum_threshold",
                     "seed", "threads"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("node_limit", "enum_threshold", "seed", "threads"):
            try:
                operator.index(getattr(self, name))  # numpy integers pass too
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None


@dataclass
class SolveStats:
    nodes: int = 0
    lp_solves: int = 0


_STATUS_RANK = {"optimal": 0, "gap_limit": 1, "node_limit": 2, "time_limit": 3}


def _trivial_bound(g) -> float:
    """Sum of the positive edge weights: no cut of ``g`` weighs more."""
    return float(np.clip(g.edge_w, 0.0, None).sum())


def enumerate_component(g, deadline=None) -> tuple[CutSolution, float]:
    """Optimal cut by enumeration over 2^(k-1) bipartitions of the alive vertices.

    Alive vertex i takes bit i of the mask; the last one (bit k - 1) stays on
    side 0, and the first bipartition of largest weight in mask order wins.
    With ``s`` the 0/1 sides, a cut weighs ``d·s - 2 sᵀ U s`` for the weighted
    degrees ``d`` and the edge matrix ``U``. The free bits split into a low
    half A and a high half B, so a mask scores ``f_A(a) + f_B(b) - 2 aᵀ U_AB b``:
    a block of at most ENUM_CHUNK masks is one matrix product and one argmax,
    which bounds the memory whatever k is. Returns the cut and its weight;
    raises TimeUp before a block after the first once ``deadline`` has passed.
    """
    alive = np.asarray(g.alive_vertices(), dtype=np.int64)
    k = len(alive)
    y = np.zeros(g.n, dtype=np.int8)
    pos = np.zeros(g.n, dtype=np.int64)
    pos[alive] = np.arange(k)
    upper = np.zeros((k, k))
    upper[pos[g.edge_u], pos[g.edge_v]] = g.edge_w  # alive order keeps u < v
    deg = upper.sum(axis=0) + upper.sum(axis=1)
    free = max(k - 1, 0)
    na = min(free // 2, ENUM_CHUNK.bit_length() - 1)
    nb = free - na

    def half(masks, lo, hi):  # 0/1 sides and f of masks over the bits lo..hi-1
        s = ((masks[:, None] >> np.arange(hi - lo)) & 1).astype(np.float64)
        return s, s @ deg[lo:hi] - 2.0 * ((s @ upper[lo:hi, lo:hi]) * s).sum(axis=1)

    s_a, f_a = half(np.arange(1 << na), 0, na)
    cross = -2.0 * (s_a @ upper[:na, na:na + nb]).T  # (nb, 2^na)
    rows = ENUM_CHUNK >> na
    best_mask, best_w = 0, -math.inf
    for start in range(0, 1 << nb, rows):
        # the first block always runs: a component of at most ENUM_CHUNK
        # bipartitions reached past the deadline is still solved exactly
        if start and expired(deadline):
            raise TimeUp
        s_b, f_b = half(np.arange(start, min(start + rows, 1 << nb)), na, na + nb)
        scores = s_b @ cross
        scores += f_b[:, None]
        scores += f_a
        i = int(np.argmax(scores))  # row-major: mask order within the block
        if scores.flat[i] > best_w:
            row, col = divmod(i, 1 << na)
            best_mask, best_w = (start + row) << na | col, scores.flat[i]
    y[alive] = (best_mask >> np.arange(k)) & 1
    sol = CutSolution.from_assignment(g, y)
    return sol, sol.weight


class ComponentSolver:
    """Best-bound branch-and-cut on one (biconnected) component graph."""

    def __init__(self, g, cfg: Config, deadline, node_budget=math.inf):
        self.g = g
        self.cfg = cfg
        # integer weights give cuts that weigh multiples of their greatest
        # common divisor: LP bounds are rounded down to one (0: no rounding)
        w = g.edge_w
        self.unit = math.gcd(*map(int, w.tolist())) if np.all(w == np.floor(w)) else 0
        self.deadline = deadline
        self.node_budget = node_budget
        self.engine = LpEngine(g, deadline)
        self.stats = SolveStats()
        self.best: CutSolution | None = None
        # the two tables of cycle_tables(g), built at the first round
        self.triangles = self.squares = None

    # -- incumbent handling ------------------------------------------------

    def _offer(self, sol: CutSolution):
        if self.best is None or sol.weight > self.best.weight + PRUNE_TOL:
            self.best = sol

    # -- main loop ---------------------------------------------------------

    def solve(self, initial: CutSolution | None = None):
        """Returns (best solution, dual bound, status)."""
        g, cfg = self.g, self.cfg
        if initial is not None:
            self._offer(initial)
        if cfg.heuristics:
            self._offer(burer_rank2(g, seed=cfg.seed, deadline=self.deadline))
        else:
            self._offer(CutSolution.from_assignment(g, np.zeros(g.n, dtype=np.int8)))

        self._start = time.monotonic()
        counter = 0
        heap = [(-_trivial_bound(g), 0, {})]  # (-bound, counter, fixed)
        status = "optimal"

        while heap:
            bound = -heap[0][0]  # the best open node stays queued until it runs
            inc = self.best.weight
            if bound <= inc + PRUNE_TOL:
                heapq.heappop(heap)  # dominated by the incumbent
                continue
            if expired(self.deadline):
                status = "time_limit"
                break
            if self.stats.nodes >= self.node_budget:
                status = "node_limit"
                break
            if _gap_percent(inc, bound) <= cfg.gap_percent + 1e-12:
                status = "gap_limit" if cfg.gap_percent > 0 else "optimal"
                break
            _, _, fixed = heapq.heappop(heap)
            self.stats.nodes += 1
            for child_bound, child_fixed in self._process_node(bound, fixed):
                counter += 1
                heapq.heappush(heap, (-child_bound, counter, child_fixed))

        open_bound = -heap[0][0] if heap else -math.inf
        return self.best, max(self.best.weight, open_bound), status

    # -- node processing ---------------------------------------------------

    def _process_node(self, parent_bound, fixed):
        """Cutting-plane loop at one node; returns its children, each a
        (bound, fixings) pair.

        The deadline stops the loop by a TimeUp, raised between rounds, inside
        an LP solve or inside exact separation and caught here only: the only
        child is then the node itself, re-queued at the smaller of
        ``parent_bound`` and its last effective LP bound, and the solve loop
        stops at its deadline check.
        """
        g, cfg = self.g, self.cfg
        lb = np.zeros(g.m)
        ub = np.ones(g.m)
        self.engine.purge_cuts()
        eff = math.inf
        rounds = 0
        try:
            while True:
                if expired(self.deadline):
                    raise TimeUp
                for e, val in fixed.items():
                    lb[e] = ub[e] = float(val)
                state = self.engine.solve(lb, ub)
                self.stats.lp_solves += 1
                if not state.feasible:
                    return []
                bound = state.objective
                inc = self.best.weight
                eff = effective_bound(bound, self.unit)
                if eff <= inc + PRUNE_TOL:
                    return []

                # new fixings hold edges at the nonbasic bound they sit on, so
                # x stays the LP optimum: they take effect at the next solve
                fixed, _ = propagate(g, state, bound, inc, lb, ub, fixed, self.unit)
                x_integral = bool(np.all(np.minimum(state.x, 1.0 - state.x) < INT_TOL))
                if cfg.heuristics or x_integral:  # an integral x is a cut's vector
                    self._offer(spanning_tree_rounding(g, state.x))

                if self.triangles is None:
                    self.triangles, self.squares = cycle_tables(g)
                # the 2n most violated table cuts, or without a triangle among
                # them, of the exact search's cuts and the squares it lacks
                cap = 2 * g.n
                cuts = separate_triangles(state.x, self.triangles, self.squares, cap)
                if all(len(c.edges) == 4 for c in cuts):
                    exact = separate_exact(g, state.x, self.deadline)
                    keys = {c.key for c in exact}
                    cuts = exact + [c for c in cuts if c.key not in keys]
                    cuts.sort(key=lambda c: -c.violation(state.x))
                added = self.engine.add_cuts(cuts[:cap])
                rounds += 1
                if self.stats.nodes == 1:  # the root
                    log.info(
                        "round %d: dual=%.6f, primal=%.6f, cuts=+%d, time=%.2f",
                        rounds, bound, inc, added, time.monotonic() - self._start,
                    )
                # every violated cut found, if any, is already in the pool
                if not added:
                    return [] if x_integral else self._branch(state, fixed, eff)
        except TimeUp:
            return [(min(parent_bound, eff), fixed)]

    def _branch(self, state, fixed, bound):
        """Two children at the node's effective ``bound``, each with one more
        edge fixed (down child first).

        The edge is the free one with the largest ``max(|w|, 1) * min(x, 1 - x)``;
        among scores within a relative 1e-15 of the largest, the lowest edge id.
        """
        frac = np.minimum(state.x, 1.0 - state.x)
        score = np.maximum(np.abs(self.g.edge_w), 1.0) * frac
        score[frac < INT_TOL] = -1.0
        score[list(fixed)] = -1.0
        best = score.max()
        if best < 0:
            raise RuntimeError("no fractional edge available for branching")
        e = int(np.flatnonzero(score >= best - 1e-15 * max(1.0, best))[0])
        return [(bound, {**fixed, e: val}) for val in (0, 1)]


# -- whole-instance orchestration -----------------------------------------

def _solve_component(sub, cfg, deadline, stats: SolveStats):
    """Returns (solution, dual bound, status). A component reached past the
    deadline or with no nodes left stops at its root before any LP, with
    rank-2's cut and the trivial bound; so does one whose enumeration the
    deadline stops."""
    if sub.n <= cfg.enum_threshold:  # induce_subgraph leaves no isolated vertex
        try:
            sol, value = enumerate_component(sub, deadline)
            return sol, value, "optimal"
        except TimeUp:
            pass
    budget = cfg.node_limit - stats.nodes if cfg.node_limit else math.inf
    solver = ComponentSolver(sub, cfg, deadline, node_budget=budget)
    sol, dual, status = solver.solve()
    stats.nodes += solver.stats.nodes
    return sol, dual, status


def _stitch(n, pieces):
    """Combine per-component assignments, aligned at articulation vertices.

    ``pieces`` is a list of (vertex list, local assignment) in the order of
    ``biconnected_components``, which emits a block before the block on its
    root side. Taken in reverse, each block therefore shares at most one
    vertex with the blocks already placed: it is flipped to agree on that
    vertex, and not flipped when it shares none. Returns the combined
    assignment.
    """
    y = np.zeros(n, dtype=np.int8)
    placed = np.zeros(n, dtype=bool)
    for verts, yl in reversed(pieces):
        verts = np.asarray(verts)
        shared = np.flatnonzero(placed[verts])
        flip = y[verts[shared[0]]] ^ yl[shared[0]] if len(shared) else 0
        y[verts] = yl ^ flip
        placed[verts] = True
    return y


def solve_graph(g, cfg: Config):
    """Solve max-cut on a built graph; returns (solution, dual bound, status, stats)."""
    top = float(np.abs(g.edge_w).max(initial=0.0))
    if 0 < top < 1:  # the tolerances are absolute: solve a copy scaled into [1, 2)
        k = 1 - math.frexp(top)[1]
        scaled = WeightedGraph(g.n, np.column_stack((g.edge_u, g.edge_v, np.ldexp(g.edge_w, k))))
        solution, dual, status, stats = solve_graph(scaled, cfg)
        return CutSolution.from_assignment(g, solution.y), math.ldexp(dual, -k), status, stats
    deadline = time.monotonic() + cfg.time_limit_s if cfg.time_limit_s else None
    stats = SolveStats()
    trace = ReductionTrace()
    reduced = g
    if cfg.presolve:
        reduced, trace, pstats = presolve_loop(g)
        log.info("%s", format_stats(pstats))

    components, _ = biconnected_components(reduced)
    log.info(
        "decomposition: %d biconnected components, %d alive vertices",
        len(components), len(reduced.alive_vertices()),
    )
    pieces = []
    dual_total = trace.offset
    status = "optimal"
    for comp_edges in components:
        sub, verts = induce_subgraph(reduced, comp_edges)
        sol, dual, comp_status = _solve_component(sub, cfg, deadline, stats)
        pieces.append((verts, sol.y))
        dual_total += dual
        status = max(status, comp_status, key=_STATUS_RANK.__getitem__)

    y_full = trace.replay(_stitch(reduced.n, pieces))
    solution = CutSolution.from_assignment(g, y_full)  # revalidate on the original
    if status == "optimal":
        dual_total = max(dual_total, solution.weight)
    return solution, dual_total, status, stats


def _gap_percent(primal, dual):
    return abs(dual - primal) / max(1.0, abs(primal)) * 100.0


def _solve_instance(mc: RawMaxCutInstance, cfg: Config | None):
    """Solve a max-cut instance; returns (1-based partition, dual, status, nodes)."""
    g = build_graph(mc)
    solution, dual, status, stats = solve_graph(g, cfg or Config())
    partition = {v + 1: int(solution.y[v]) for v in range(g.n)}
    return partition, dual, status, stats.nodes


def _report(start, value, dual, status, nodes, partition) -> ResultReport:
    gap = 0.0 if status == "optimal" else _gap_percent(value, dual)
    return ResultReport(
        best_value=value,
        primal_dual_gap_percent=gap,
        bnb_nodes=nodes,
        wall_time_s=time.monotonic() - start,
        partition=partition,
        status=status,
    )


def solve_maxcut(raw: RawMaxCutInstance, cfg: Config | None = None) -> ResultReport:
    """Solve a parsed max-cut instance and assemble the result report."""
    start = time.monotonic()
    raw.check()
    partition, dual, status, nodes = _solve_instance(raw, cfg)
    return _report(start, raw.cut_value(partition), dual, status, nodes, partition)


def racing_solve(raw: RawMaxCutInstance, cfg: Config | None = None,
                 workers: int = 2) -> ResultReport:
    """Alias of ``solve_maxcut``, kept for compatibility; ``workers`` is ignored.

    Racing threads share the interpreter lock, so they took turns instead of
    running at once: two workers were 1.7-2.3x slower than one thread.
    """
    return solve_maxcut(raw, cfg)


def solve_qubo(raw: RawQuboInstance, cfg: Config | None = None) -> ResultReport:
    """Solve min x^T Q x through the max-cut reduction; reports the QUBO value."""
    start = time.monotonic()
    raw.check()
    mc = qubo_to_maxcut(raw)
    mc_partition, dual, status, nodes = _solve_instance(mc, cfg)
    x = qubo_assignment_from_maxcut(mc_partition, raw.dimension)
    # x^T Q x == -cut: a max-cut upper bound is a QUBO lower bound, same gap
    return _report(start, raw.objective(x), -dual, status, nodes, x)
