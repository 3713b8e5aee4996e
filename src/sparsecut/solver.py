"""Exact branch-and-cut over cycle inequalities, with presolve, biconnected
decomposition, reduced-cost fixing and optional solver racing.

Pipeline: presolve contractions -> biconnected components -> per-component
enumeration or branch-and-cut -> block-cut-tree stitching -> replay of the
presolve trace onto the original graph. Every incumbent is re-evaluated on the
original instance before it is reported.
"""

from __future__ import annotations

import heapq
import logging
import math
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from .graph import (
    CutSolution,
    ReductionTrace,
    biconnected_components,
    build_graph,
    induce_subgraph,
)
from .heuristics import burer_rank2, spanning_tree_rounding
from .instances import RawMaxCutInstance, RawQuboInstance, ResultReport
from .lp import LpEngine
from .presolve import PresolveStats, format_stats, presolve_loop
from .propagate import propagate
from .separation import separate_exact, separate_triangles
from .transform import qubo_assignment_from_maxcut, qubo_to_maxcut

log = logging.getLogger("sparsecut")

INT_TOL = 1e-6
PRUNE_TOL = 1e-9
DEFAULT_ENUM_THRESHOLD = 10


@dataclass
class Config:
    time_limit_s: float = 3600.0
    gap_percent: float = 0.0
    threads: int = 1
    seed: int = 0
    enum_threshold: int = DEFAULT_ENUM_THRESHOLD
    node_limit: int = 0          # 0 = unlimited
    presolve: bool = True
    max_presolve_rounds: int = 10
    propagation: bool = True
    heuristics: bool = True
    heur_restarts: int = 8
    contract_zero_arcs: bool = False
    triangle_budget: int = 50_000
    max_cuts_per_round: int = 0  # 0 = twice the vertex count
    tailing_off_tol: float = 1e-4
    tailing_off_rounds: int = 3


@dataclass
class SolveStats:
    nodes: int = 0
    cuts_added: int = 0
    lp_solves: int = 0
    presolve: PresolveStats | None = None


_STATUS_RANK = {"optimal": 0, "gap_limit": 1, "node_limit": 2, "time_limit": 3}


def _worse_status(a, b):
    return a if _STATUS_RANK[a] >= _STATUS_RANK[b] else b


class _Shared:
    """Incumbent and stop flag shared between racing workers on one component."""

    def __init__(self):
        self.lock = threading.Lock()
        self.best: CutSolution | None = None
        self.stop = threading.Event()

    def offer(self, sol: CutSolution) -> bool:
        with self.lock:
            if self.best is None or sol.weight > self.best.weight + PRUNE_TOL:
                self.best = CutSolution(sol.y.copy(), sol.weight)
                return True
        return False

    def value(self) -> float:
        with self.lock:
            return -math.inf if self.best is None else self.best.weight

    def solution(self) -> CutSolution | None:
        with self.lock:
            if self.best is None:
                return None
            return CutSolution(self.best.y.copy(), self.best.weight)


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

    def __init__(self, g, cfg: Config, all_integral, deadline,
                 shared: _Shared | None = None, node_budget=0):
        self.g = g
        self.cfg = cfg
        self.integral = all_integral
        self.deadline = deadline
        self.shared = shared
        self.node_budget = node_budget
        self.engine = LpEngine(g)
        self.stats = SolveStats()
        self.best: CutSolution | None = None
        # pseudo-costs: average per-unit bound degradation per branch direction
        m = g.m
        self.pc_sum = np.zeros((2, m))
        self.pc_cnt = np.zeros((2, m), dtype=np.int64)
        self.max_cuts = cfg.max_cuts_per_round or 2 * g.n

    # -- incumbent handling ------------------------------------------------

    def _offer(self, sol: CutSolution):
        if self.best is None or sol.weight > self.best.weight + PRUNE_TOL:
            self.best = sol
        if self.shared is not None:
            self.shared.offer(sol)

    def _incumbent_value(self):
        local = -math.inf if self.best is None else self.best.weight
        if self.shared is not None:
            return max(local, self.shared.value())
        return local

    def _sync_shared(self):
        if self.shared is None:
            return
        sol = self.shared.solution()
        if sol is not None and (self.best is None or sol.weight > self.best.weight):
            self.best = sol

    # -- main loop ---------------------------------------------------------

    def solve(self, initial: CutSolution | None = None):
        """Returns (best solution, dual bound, status)."""
        g, cfg = self.g, self.cfg
        if initial is not None:
            self._offer(initial)
        if cfg.heuristics:
            self._offer(burer_rank2(g, seed=cfg.seed, restarts=cfg.heur_restarts))
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
            outcome, children = self._process_node(depth, fixed, branch)
            if outcome == "abort":
                heapq.heappush(heap, (neg_bound, counter, depth, fixed, branch))
                status = self._stop_status()
                break
            for child in children:
                counter += 1
                heapq.heappush(
                    heap, (child[0], counter, child[1], child[2], child[3])
                )
            self._sync_shared()

        dual = self._incumbent_value()
        if heap:
            dual = max(dual, max(-item[0] for item in heap))
        if status == "optimal" and self.shared is not None:
            self.shared.stop.set()
        self._sync_shared()
        return self.best, dual, status

    def _should_stop(self):
        if self.shared is not None and self.shared.stop.is_set():
            return True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            return True
        if self.node_budget and self.stats.nodes >= self.node_budget:
            return True
        return False

    def _stop_status(self):
        if self.shared is not None and self.shared.stop.is_set():
            return "optimal"  # another racer proved optimality
        if self.deadline is not None and time.monotonic() >= self.deadline:
            return "time_limit"
        return "node_limit"

    def _gap_closed(self, dual, primal):
        if primal == -math.inf:
            return False
        gap = abs(dual - primal) / max(1.0, abs(primal)) * 100.0
        return gap <= self.cfg.gap_percent + 1e-12

    def _effective(self, bound):
        if self.integral:
            return math.floor(bound + INT_TOL)
        return bound

    # -- node processing ---------------------------------------------------

    def _process_node(self, depth, fixed, branch):
        """Cutting-plane loop at one node; returns (outcome, children)."""
        g, cfg = self.g, self.cfg
        fixed = dict(fixed)
        lb = np.zeros(g.m)
        ub = np.ones(g.m)
        for e, val in fixed.items():
            lb[e] = ub[e] = float(val)

        self.engine.purge_cuts()
        prev_bound = math.inf
        tail = 0
        first_lp = True
        rounds = 0
        while True:
            if self._should_stop():
                return "abort", []
            state = self.engine.solve(lb, ub)
            self.stats.lp_solves += 1
            if not state.feasible:
                return "pruned", []
            bound = state.objective
            if first_lp and branch is not None:
                self._update_pseudo(branch, bound)
                first_lp = False
            inc = self._incumbent_value()
            eff = self._effective(bound)
            if eff <= inc + PRUNE_TOL:
                return "pruned", []

            if cfg.propagation and inc > -math.inf:
                new_fixed, dead = propagate(
                    g, state, bound, inc, lb, ub, fixed, self.integral
                )
                if dead:
                    return "pruned", []
                if len(new_fixed) > len(fixed):
                    fixed = new_fixed
                    for e, val in fixed.items():
                        lb[e] = ub[e] = float(val)
                    continue

            if cfg.heuristics:
                self._offer(spanning_tree_rounding(g, state.x))

            x_integral = bool(np.all(np.minimum(state.x, 1.0 - state.x) < INT_TOL))
            cuts = separate_triangles(g, state.x, budget=cfg.triangle_budget)
            if not cuts:
                cuts = separate_exact(
                    g, state.x, contract_zeros=cfg.contract_zero_arcs
                )
            if not cuts:
                if x_integral:
                    # the point is the incidence vector of a cut: certify it
                    self._offer(spanning_tree_rounding(g, state.x))
                    return "pruned", []
                return "branched", self._branch(state, fixed, depth, bound)

            cuts.sort(key=lambda c: -c.violation(state.x))
            added = self.engine.add_cuts(cuts[: self.max_cuts])
            self.stats.cuts_added += added
            rounds += 1
            if depth == 0:
                log.info(
                    "round %d: dual=%.6f, primal=%.6f, cuts=+%d, time=%.2f",
                    rounds, bound, inc, added,
                    time.monotonic() - getattr(self, "_start", time.monotonic()),
                )
            if prev_bound - bound < cfg.tailing_off_tol:
                tail += 1
            else:
                tail = 0
            prev_bound = bound
            if tail >= cfg.tailing_off_rounds and not x_integral:
                return "branched", self._branch(state, fixed, depth, bound)
            if added == 0:
                # every remaining violated cut is already in the pool
                if x_integral:
                    self._offer(spanning_tree_rounding(g, state.x))
                    return "pruned", []
                return "branched", self._branch(state, fixed, depth, bound)

    def _branch(self, state, fixed, depth, bound):
        e = self._select_edge(state, fixed)
        frac = float(state.x[e])
        eff = self._effective(bound)
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


# -- racing ---------------------------------------------------------------

def _worker_presets(cfg: Config, k):
    """Parameter variations for racing workers (seeds and cut aggressiveness)."""
    presets = []
    for i in range(k):
        presets.append(
            replace(
                cfg,
                seed=cfg.seed + i,
                tailing_off_rounds=cfg.tailing_off_rounds + (i % 3),
                heur_restarts=max(2, cfg.heur_restarts - i),
                threads=1,
            )
        )
    return presets


def _race_component(g, cfg, all_integral, deadline):
    """Run cfg.threads workers on one component; first optimal finish wins.

    One worker only runs primal heuristics and feeds the shared incumbent.
    """
    shared = _Shared()
    n_solvers = max(1, cfg.threads - 1)
    solvers = [
        ComponentSolver(g, preset, all_integral, deadline, shared=shared)
        for preset in _worker_presets(cfg, n_solvers)
    ]
    results: list = [None] * n_solvers
    errors: list = [None] * n_solvers

    def run(i):
        try:
            results[i] = solvers[i].solve()
        except Exception as exc:  # a crashed racer must not kill the race
            errors[i] = exc
            log.warning("racing worker %d failed: %s", i, exc)

    def run_heuristics():
        rng_seed = cfg.seed + 1000
        while not shared.stop.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                return
            shared.offer(
                burer_rank2(g, seed=rng_seed, init=shared.solution(), restarts=2)
            )
            rng_seed += 1

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n_solvers)]
    threads.append(threading.Thread(target=run_heuristics, daemon=True))
    for t in threads:
        t.start()
    for t in threads[:-1]:
        t.join()
    shared.stop.set()
    threads[-1].join(timeout=5.0)

    done = [r for r in results if r is not None]
    if not done:
        raise errors[0] if errors[0] else RuntimeError("all racing workers failed")
    best = None
    dual = math.inf
    status = "time_limit"
    for sol, d, st in done:
        if sol is not None and (best is None or sol.weight > best.weight):
            best = sol
        dual = min(dual, d)
        if st == "optimal":
            status = "optimal"
    if status != "optimal":
        status = min((st for _, _, st in done), key=lambda s: _STATUS_RANK[s])
    stats_nodes = sum(s.stats.nodes for s in solvers)
    return best, dual, status, stats_nodes


# -- whole-instance orchestration -----------------------------------------

def _solve_component(sub, cfg, all_integral, deadline, stats: SolveStats):
    alive = len(sub.alive_vertices())
    if alive <= cfg.enum_threshold:
        sol, value = enumerate_component(sub)
        return sol, value, "optimal"
    budget = cfg.node_limit or 0
    if budget:
        budget = max(1, budget - stats.nodes)
    if cfg.threads > 1:
        sol, dual, status, nodes = _race_component(sub, cfg, all_integral, deadline)
        stats.nodes += nodes
        return sol, dual, status
    solver = ComponentSolver(sub, cfg, all_integral, deadline, node_budget=budget)
    sol, dual, status = solver.solve()
    stats.nodes += solver.stats.nodes
    stats.cuts_added += solver.stats.cuts_added
    stats.lp_solves += solver.stats.lp_solves
    return sol, dual, status


def _stitch(n, pieces):
    """Align per-component assignments at shared (articulation) vertices.

    ``pieces`` is a list of (vertex list, local assignment); components of the
    block-cut tree touching an already placed vertex are flipped to agree on
    it. Returns the combined assignment.
    """
    y = np.zeros(n, dtype=np.int8)
    assigned = np.zeros(n, dtype=bool)
    vert2comps: dict[int, list[int]] = {}
    for i, (verts, _) in enumerate(pieces):
        for v in verts:
            vert2comps.setdefault(v, []).append(i)
    placed = [False] * len(pieces)

    def place(i, flip):
        verts, yl = pieces[i]
        for idx, v in enumerate(verts):
            y[v] = yl[idx] ^ flip
            assigned[v] = True
        placed[i] = True

    for root in range(len(pieces)):
        if placed[root]:
            continue
        place(root, 0)
        queue = [root]
        while queue:
            c = queue.pop()
            verts, _ = pieces[c]
            for v in verts:
                for c2 in vert2comps[v]:
                    if placed[c2]:
                        continue
                    verts2, yl2 = pieces[c2]
                    flip = int(y[v]) ^ int(yl2[verts2.index(v)])
                    place(c2, flip)
                    queue.append(c2)
    return y


def solve_graph(g, cfg: Config, all_integral=False):
    """Solve max-cut on a built graph; returns (solution, dual bound, status, stats)."""
    deadline = time.monotonic() + cfg.time_limit_s if cfg.time_limit_s else None
    stats = SolveStats()
    trace = ReductionTrace()
    reduced = g
    if cfg.presolve:
        reduced, trace, pstats = presolve_loop(g, cfg.max_presolve_rounds, trace)
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
        if deadline is not None and time.monotonic() >= deadline:
            comp_status = "time_limit"
            sol = burer_rank2(sub, seed=cfg.seed, restarts=2)
            dual = float(np.clip(sub.edge_w, 0.0, None).sum())  # trivial bound
        else:
            sol, dual, comp_status = _solve_component(
                sub, cfg, all_integral, deadline, stats
            )
        pieces.append((verts, sol.y))
        dual_total += dual
        status = _worse_status(status, comp_status)

    y_reduced = _stitch(reduced.n, pieces) if pieces else np.zeros(
        reduced.n, dtype=np.int8
    )
    y_full = trace.replay(y_reduced)
    solution = CutSolution.from_assignment(g, y_full)  # revalidate on the original
    if status == "optimal":
        dual_total = max(dual_total, solution.weight)
        if all_integral:
            dual_total = solution.weight
    return solution, dual_total, status, stats


def _gap_percent(primal, dual):
    if primal == -math.inf:
        return math.inf
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
    """Solve with several diversified workers per component (first finisher wins)."""
    cfg = replace(cfg or Config(), threads=max(2, workers))
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
