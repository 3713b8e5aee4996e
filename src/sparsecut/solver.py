"""Exact branch-and-cut over cycle inequalities, with presolve, biconnected
decomposition and reduced-cost fixing, in a single thread.

Pipeline: presolve contractions -> biconnected components -> per-component
enumeration or branch-and-cut -> block-cut-tree stitching -> replay of the
presolve trace onto the original graph. Every incumbent is re-evaluated on the
original instance before it is reported.

Branch-and-cut takes open nodes in best-bound order. A node is its bound and
its fixed edges; it branches on the free fractional edge of largest
``max(|w|, 1) * min(x, 1 - x)``.
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .graph import (
    CutSolution,
    ReductionTrace,
    biconnected_components,
    build_graph,
    induce_subgraph,
)
from .heuristics import DEFAULT_RESTARTS, burer_rank2, spanning_tree_rounding
from .instances import RawMaxCutInstance, RawQuboInstance, ResultReport
from .lp import LpEngine
from .presolve import format_stats, presolve_loop
from .propagate import effective_bound, propagate
from .separation import separate_exact, separate_triangles, triangle_table
from .transform import qubo_assignment_from_maxcut, qubo_to_maxcut

log = logging.getLogger("sparsecut")

INT_TOL = 1e-6
PRUNE_TOL = 1e-9
DEFAULT_ENUM_THRESHOLD = 10
ENUM_CHUNK = 1 << 12     # bipartitions scored at once by enumerate_component
TAILING_OFF_TOL = 1e-4   # a round that raises the bound less than this stalls
TAILING_OFF_ROUNDS = 3   # this many stalled rounds in a row end a node


@dataclass
class Config:
    time_limit_s: float = 3600.0
    gap_percent: float = 0.0
    threads: int = 1             # accepted and ignored: the solver is single-threaded
    seed: int = 0
    enum_threshold: int = DEFAULT_ENUM_THRESHOLD
    node_limit: int = 0          # 0 = unlimited
    presolve: bool = True
    propagation: bool = True
    heuristics: bool = True
    heur_restarts: int = DEFAULT_RESTARTS


@dataclass
class SolveStats:
    nodes: int = 0
    lp_solves: int = 0


_STATUS_RANK = {"optimal": 0, "gap_limit": 1, "node_limit": 2, "time_limit": 3}


def _trivial_bound(g) -> float:
    """Sum of the positive edge weights: no cut of ``g`` weighs more."""
    return float(np.clip(g.edge_w, 0.0, None).sum())


def enumerate_component(g) -> tuple[CutSolution, float]:
    """Optimal cut by enumeration over 2^(k-1) bipartitions of the alive vertices.

    The first alive vertex stays on side 0, and the first bipartition of
    largest weight wins. ENUM_CHUNK bipartitions are scored per array
    expression, which bounds the memory for a large ``enum_threshold``.
    """
    alive = np.asarray(g.alive_vertices(), dtype=np.int64)
    k = len(alive)
    y = np.zeros(g.n, dtype=np.int8)
    if k == 0:
        return CutSolution.from_assignment(g, y), 0.0
    pos = np.zeros(g.n, dtype=np.int64)
    pos[alive] = np.arange(k)
    eu, ev = pos[g.edge_u], pos[g.edge_v]
    best_mask, best_w = 0, -math.inf
    for start in range(0, 1 << (k - 1), ENUM_CHUNK):
        masks = np.arange(start, min(start + ENUM_CHUNK, 1 << (k - 1)))
        sides = (masks[:, None] >> np.arange(k)) & 1
        weights = (sides[:, eu] != sides[:, ev]) @ g.edge_w
        i = int(np.argmax(weights))
        if weights[i] > best_w:
            best_mask, best_w = int(masks[i]), float(weights[i])
    y[alive] = (best_mask >> np.arange(k)) & 1
    return CutSolution.from_assignment(g, y), best_w


class ComponentSolver:
    """Best-bound branch-and-cut on one (biconnected) component graph."""

    def __init__(self, g, cfg: Config, all_integral, deadline, node_budget=0):
        self.g = g
        self.cfg = cfg
        self.integral = all_integral
        self.deadline = deadline
        self.node_budget = node_budget
        self.engine = LpEngine(g, deadline)
        self.stats = SolveStats()
        self.best: CutSolution | None = None
        self.triangles = None  # triangle_table(g), built at the first round

    # -- incumbent handling ------------------------------------------------

    def _offer(self, sol: CutSolution):
        if self.best is None or sol.weight > self.best.weight + PRUNE_TOL:
            self.best = sol

    def _incumbent_value(self):
        return -math.inf if self.best is None else self.best.weight

    # -- main loop ---------------------------------------------------------

    def solve(self, initial: CutSolution | None = None):
        """Returns (best solution, dual bound, status)."""
        g, cfg = self.g, self.cfg
        if initial is not None:
            self._offer(initial)
        if cfg.heuristics:
            self._offer(burer_rank2(g, seed=cfg.seed, restarts=cfg.heur_restarts,
                                    deadline=self.deadline))
        else:
            self._offer(CutSolution.from_assignment(g, np.zeros(g.n, dtype=np.int8)))

        self._start = time.monotonic()
        counter = 0
        heap = [(-math.inf, 0, {})]  # (-bound, counter, fixed)
        status = "optimal"

        while heap:
            if self._should_stop():
                status = self._stop_status()
                break
            neg_bound, _, fixed = heapq.heappop(heap)
            inc = self._incumbent_value()
            if -neg_bound <= inc + PRUNE_TOL:
                continue  # bound from the parent already dominated
            if self._gap_closed(-neg_bound, inc):
                status = "gap_limit" if cfg.gap_percent > 0 else "optimal"
                heap = []
                break
            self.stats.nodes += 1
            outcome, children = self._process_node(-neg_bound, fixed)
            for bound, child_fixed in children:
                counter += 1
                heapq.heappush(heap, (-bound, counter, child_fixed))
            if outcome == "abort":
                status = self._stop_status()
                break

        dual = self._incumbent_value()
        if heap:
            # a root stopped before its first LP still carries bound +inf
            open_bound = min(max(-item[0] for item in heap), _trivial_bound(g))
            dual = max(dual, open_bound)
        return self.best, dual, status

    def _past_deadline(self):
        return self.deadline is not None and time.monotonic() >= self.deadline

    def _should_stop(self):
        if self.node_budget and self.stats.nodes >= self.node_budget:
            return True
        return self._past_deadline()

    def _stop_status(self):
        return "time_limit" if self._past_deadline() else "node_limit"

    def _gap_closed(self, dual, primal):
        if primal == -math.inf:
            return False
        return _gap_percent(primal, dual) <= self.cfg.gap_percent + 1e-12

    # -- node processing ---------------------------------------------------

    def _process_node(self, parent_bound, fixed):
        """Cutting-plane loop at one node; returns (outcome, children), each
        child a (bound, fixings) pair.

        On "abort" (the deadline passed, between rounds or inside an LP
        solve) the only child is the node itself, re-queued at the smaller of
        ``parent_bound`` and its last effective LP bound.
        """
        g, cfg = self.g, self.cfg
        lb = np.zeros(g.m)
        ub = np.ones(g.m)
        self.engine.purge_cuts()
        prev_bound = math.inf
        eff = math.inf
        tail = 0
        rounds = 0
        while True:
            if self._past_deadline():
                return "abort", [(min(parent_bound, eff), fixed)]
            for e, val in fixed.items():
                lb[e] = ub[e] = float(val)
            state = self.engine.solve(lb, ub)
            self.stats.lp_solves += 1
            if state.expired:
                return "abort", [(min(parent_bound, eff), fixed)]
            if not state.feasible:
                return "pruned", []
            bound = state.objective
            inc = self._incumbent_value()
            eff = effective_bound(bound, self.integral)
            if eff <= inc + PRUNE_TOL:
                return "pruned", []

            if cfg.propagation and inc > -math.inf:
                new_fixed, _ = propagate(
                    g, state, bound, inc, lb, ub, fixed, self.integral
                )
                if len(new_fixed) > len(fixed):
                    fixed = new_fixed
                    continue

            if cfg.heuristics:
                self._offer(spanning_tree_rounding(g, state.x))

            x_integral = bool(np.all(np.minimum(state.x, 1.0 - state.x) < INT_TOL))
            if self.triangles is None:
                self.triangles = triangle_table(g)
            cuts = separate_triangles(state.x, self.triangles)
            if not cuts:
                cuts = separate_exact(g, state.x)
            cuts.sort(key=lambda c: -c.violation(state.x))
            added = self.engine.add_cuts(cuts[: 2 * g.n])  # the most violated
            rounds += 1
            if self.stats.nodes == 1:  # the root
                log.info(
                    "round %d: dual=%.6f, primal=%.6f, cuts=+%d, time=%.2f",
                    rounds, bound, inc, added, time.monotonic() - self._start,
                )
            tail = tail + 1 if prev_bound - bound < TAILING_OFF_TOL else 0
            prev_bound = bound
            # no progress: nothing new to add (every violated cut, if any, is
            # already in the pool), or the bound has stalled at a fractional x
            if not added or (tail >= TAILING_OFF_ROUNDS and not x_integral):
                if not x_integral:
                    return "branched", self._branch(state, fixed, bound)
                if not cfg.heuristics:
                    # the point is the incidence vector of a cut: certify it
                    self._offer(spanning_tree_rounding(g, state.x))
                return "pruned", []

    def _branch(self, state, fixed, bound):
        """Two children, each with one more edge fixed (down child first).

        The edge is the free one with the largest ``max(|w|, 1) * min(x, 1 - x)``;
        among scores within 1e-15 of the largest, the lowest edge id.
        """
        frac = np.minimum(state.x, 1.0 - state.x)
        score = np.maximum(np.abs(self.g.edge_w), 1.0) * frac
        score[frac < INT_TOL] = -1.0
        score[list(fixed)] = -1.0
        best = score.max()
        if best < 0:
            raise RuntimeError("no fractional edge available for branching")
        e = int(np.flatnonzero(score > best - 1e-15)[0])
        eff = effective_bound(bound, self.integral)
        return [(eff, {**fixed, e: val}) for val in (0, 1)]


# -- whole-instance orchestration -----------------------------------------

def _solve_component(sub, cfg, all_integral, deadline, stats: SolveStats):
    alive = len(sub.alive_vertices())
    if alive <= cfg.enum_threshold:
        sol, value = enumerate_component(sub)
        return sol, value, "optimal"
    budget = max(1, cfg.node_limit - stats.nodes) if cfg.node_limit else 0
    solver = ComponentSolver(sub, cfg, all_integral, deadline, node_budget=budget)
    sol, dual, status = solver.solve()
    stats.nodes += solver.stats.nodes
    stats.lp_solves += solver.stats.lp_solves
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


def solve_graph(g, cfg: Config, all_integral=False):
    """Solve max-cut on a built graph; returns (solution, dual bound, status, stats)."""
    deadline = time.monotonic() + cfg.time_limit_s if cfg.time_limit_s else None
    stats = SolveStats()
    trace = ReductionTrace()
    reduced = g
    if cfg.presolve:
        reduced, trace, pstats = presolve_loop(g, trace=trace)
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
        sol, dual, comp_status = _solve_component(
            sub, cfg, all_integral, deadline, stats
        )
        pieces.append((verts, sol.y))
        dual_total += dual
        status = max(status, comp_status, key=_STATUS_RANK.__getitem__)

    y_full = trace.replay(_stitch(reduced.n, pieces))
    solution = CutSolution.from_assignment(g, y_full)  # revalidate on the original
    if status == "optimal":
        dual_total = max(dual_total, solution.weight)
        if all_integral:
            dual_total = solution.weight
    return solution, dual_total, status, stats


def _gap_percent(primal, dual):
    return abs(dual - primal) / max(1.0, abs(primal)) * 100.0


def _solve_instance(mc: RawMaxCutInstance, cfg: Config | None):
    """Solve a max-cut instance; returns (1-based partition, dual, status, nodes)."""
    g = build_graph(mc)
    solution, dual, status, stats = solve_graph(g, cfg or Config(), mc.all_integral)
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
    mc, cert = qubo_to_maxcut(raw)
    mc_partition, dual, status, nodes = _solve_instance(mc, cfg)
    x = qubo_assignment_from_maxcut(mc_partition, cert, raw.dimension)
    # a max-cut upper bound maps to a QUBO lower bound with the same gap size
    qubo_dual = cert.sign * dual + cert.constant_offset
    return _report(start, raw.objective(x), qubo_dual, status, nodes, x)
