"""Exact branch-and-cut over cycle inequalities, with presolve, biconnected
decomposition and reduced-cost fixing, in a single thread.

Pipeline: presolve contractions -> biconnected components -> per-component
enumeration or branch-and-cut -> block-cut-tree stitching -> replay of the
presolve trace onto the original graph. Every incumbent is re-evaluated on the
original instance before it is reported.
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
from .presolve import PresolveStats, format_stats, presolve_loop
from .propagate import effective_bound, propagate
from .separation import separate_exact, separate_triangles, triangle_table
from .transform import qubo_assignment_from_maxcut, qubo_to_maxcut

log = logging.getLogger("sparsecut")

INT_TOL = 1e-6
PRUNE_TOL = 1e-9
DEFAULT_ENUM_THRESHOLD = 10
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
    cuts_added: int = 0
    lp_solves: int = 0
    presolve: PresolveStats | None = None


_STATUS_RANK = {"optimal": 0, "gap_limit": 1, "node_limit": 2, "time_limit": 3}


def _worse_status(a, b):
    return a if _STATUS_RANK[a] >= _STATUS_RANK[b] else b


def _trivial_bound(g) -> float:
    """Sum of the positive edge weights: no cut of ``g`` weighs more."""
    return float(np.clip(g.edge_w, 0.0, None).sum())


def enumerate_component(g) -> tuple[CutSolution, float]:
    """Optimal cut by enumeration over 2^(k-1) bipartitions of the alive vertices."""
    alive = g.alive_vertices()
    k = len(alive)
    y = np.zeros(g.n, dtype=np.int8)
    if k == 0:
        return CutSolution.from_assignment(g, y), 0.0
    best_mask, best_w = 0, -math.inf
    eu = np.array([alive.index(int(u)) for u in g.edge_u])
    ev = np.array([alive.index(int(v)) for v in g.edge_v])
    for mask in range(1 << (k - 1)):  # first alive vertex pinned to side 0
        bits = (mask >> np.arange(k)) & 1  # bit k-1 is always 0
        w = float(g.edge_w[bits[eu] != bits[ev]].sum())
        if w > best_w:
            best_mask, best_w = mask, w
    bits = (best_mask >> np.arange(k)) & 1
    for i, v in enumerate(alive):
        y[v] = bits[i]
    return CutSolution.from_assignment(g, y), best_w


class ComponentSolver:
    """Best-bound branch-and-cut on one (biconnected) component graph."""

    def __init__(self, g, cfg: Config, all_integral, deadline, node_budget=0):
        self.g = g
        self.cfg = cfg
        self.integral = all_integral
        self.deadline = deadline
        self.node_budget = node_budget
        self.engine = LpEngine(g)
        self.stats = SolveStats()
        self.best: CutSolution | None = None
        # pseudo-costs: average per-unit bound degradation per branch direction
        m = g.m
        self.pc_sum = np.zeros((2, m))
        self.pc_cnt = np.zeros((2, m), dtype=np.int64)
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
        root = (-math.inf, 0, 0, {}, None)  # (-bound, counter, depth, fixed, branch)
        heap = [root]
        status = "optimal"

        while heap:
            if self._should_stop():
                status = self._stop_status()
                break
            neg_bound, _, depth, fixed, branch = heapq.heappop(heap)
            inc = self._incumbent_value()
            if -neg_bound <= inc + PRUNE_TOL:
                continue  # bound from the parent already dominated
            if self._gap_closed(-neg_bound, inc):
                status = "gap_limit" if cfg.gap_percent > 0 else "optimal"
                heap = []
                break
            self.stats.nodes += 1
            outcome, children = self._process_node(
                -neg_bound, depth, fixed, branch
            )
            for child in children:
                counter += 1
                heapq.heappush(
                    heap, (child[0], counter, child[1], child[2], child[3])
                )
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

    def _process_node(self, parent_bound, depth, fixed, branch):
        """Cutting-plane loop at one node; returns (outcome, children).

        On "abort" the only child is the node itself, re-queued at the
        smaller of ``parent_bound`` and its last effective LP bound.
        """
        g, cfg = self.g, self.cfg
        fixed = dict(fixed)
        lb = np.zeros(g.m)
        ub = np.ones(g.m)
        for e, val in fixed.items():
            lb[e] = ub[e] = float(val)

        self.engine.purge_cuts()
        prev_bound = math.inf
        eff = math.inf
        tail = 0
        first_lp = True
        rounds = 0
        while True:
            if self._past_deadline():
                requeued = (-min(parent_bound, eff), depth, fixed, branch)
                return "abort", [requeued]
            state = self.engine.solve(lb, ub)
            self.stats.lp_solves += 1
            if not state.feasible:
                return "pruned", []
            bound = state.objective
            if first_lp and branch is not None:
                self._update_pseudo(branch, bound)
                first_lp = False
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
                    for e, val in fixed.items():
                        lb[e] = ub[e] = float(val)
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
            self.stats.cuts_added += added
            rounds += 1
            if depth == 0:
                log.info(
                    "round %d: dual=%.6f, primal=%.6f, cuts=+%d, time=%.2f",
                    rounds, bound, inc, added, time.monotonic() - self._start,
                )
            if prev_bound - bound < TAILING_OFF_TOL:
                tail += 1
            else:
                tail = 0
            prev_bound = bound
            # no progress: nothing new to add (every violated cut, if any, is
            # already in the pool), or the bound has stalled at a fractional x
            if not added or (tail >= TAILING_OFF_ROUNDS and not x_integral):
                if not x_integral:
                    return "branched", self._branch(state, fixed, depth, bound)
                if not cfg.heuristics:
                    # the point is the incidence vector of a cut: certify it
                    self._offer(spanning_tree_rounding(g, state.x))
                return "pruned", []

    def _branch(self, state, fixed, depth, bound):
        e = self._select_edge(state, fixed)
        frac = float(state.x[e])
        eff = effective_bound(bound, self.integral)
        children = []
        for val in (0, 1):  # down child first
            child_fixed = dict(fixed)
            child_fixed[e] = val
            children.append(
                (-eff, depth + 1, child_fixed, (e, val, bound, frac))
            )
        return children

    def _select_edge(self, state, fixed):
        best_e, best_score = None, -1.0
        for e in range(self.g.m):
            if e in fixed:
                continue
            frac = float(state.x[e])
            if min(frac, 1.0 - frac) < INT_TOL:
                continue
            w = abs(float(self.g.edge_w[e]))
            est = [0.0, 0.0]
            for d, unit in ((0, frac), (1, 1.0 - frac)):
                if self.pc_cnt[d, e] > 0:
                    est[d] = self.pc_sum[d, e] / self.pc_cnt[d, e] * unit
                else:
                    est[d] = max(w, 1.0) * min(frac, 1.0 - frac)
            score = max(est[0], 1e-6) * max(est[1], 1e-6)
            if score > best_score + 1e-15:
                best_e, best_score = e, score
        if best_e is None:
            raise RuntimeError("no fractional edge available for branching")
        return best_e

    def _update_pseudo(self, branch, child_bound):
        e, val, parent_bound, frac = branch
        unit = frac if val == 0 else 1.0 - frac
        degradation = max(parent_bound - child_bound, 0.0)
        self.pc_sum[val, e] += degradation / max(unit, 1e-6)
        self.pc_cnt[val, e] += 1


# -- whole-instance orchestration -----------------------------------------

def _solve_component(sub, cfg, all_integral, deadline, stats: SolveStats):
    alive = len(sub.alive_vertices())
    if alive <= cfg.enum_threshold:
        sol, value = enumerate_component(sub)
        return sol, value, "optimal"
    budget = cfg.node_limit or 0
    if budget:
        budget = max(1, budget - stats.nodes)
    solver = ComponentSolver(sub, cfg, all_integral, deadline, node_budget=budget)
    sol, dual, status = solver.solve()
    stats.nodes += solver.stats.nodes
    stats.cuts_added += solver.stats.cuts_added
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
        stats.presolve = pstats
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
        status = _worse_status(status, comp_status)

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
