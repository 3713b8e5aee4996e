"""Spans and counters recorded by wrapping sparsecut's module entry points.

Nothing in sparsecut is edited. ``Tracer.install`` replaces each traced name
where its caller looks it up -- ``sparsecut.solver`` imports its helpers with
``from .x import f``, so those are patched on ``sparsecut.solver`` -- and
methods of ``LpEngine``, ``ComponentSolver`` and ``ReductionTrace`` on the
class. Every wrapper returns the wrapped call's result unchanged.

A span is ``[name, start, end, parent, thread id]`` kept in memory; the parent
is the innermost open span of the same thread, so self time (duration minus
the part covered by child spans) is per thread.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict

import sparsecut
import sparsecut.solver as solver_mod
from sparsecut.graph import ReductionTrace
from sparsecut.lp import LpEngine

IMPROVE_TOL = 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._best: dict[int, tuple[object, float]] = {}  # id(graph) -> (graph, best)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter(), None, parent, threading.get_ident()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._local.stack.pop()

    def count(self, key, value=1):
        with self._lock:
            self.counts[key] += value

    def peak(self, key, value):
        with self._lock:
            self.peaks[key] = max(self.peaks.get(key, value), value)

    def reset(self):
        """Forget spans and counters (between passes)."""
        with self._lock:
            self.spans = []
            self.counts = Counter()
            self.peaks = {}
            self._best = {}

    def _heuristic_result(self, g, sol):
        """Record a heuristic cut on ``g``; True if it beats the best so far."""
        with self._lock:
            prev = self._best.get(id(g))
            improved = prev is not None and sol.weight > prev[1] + IMPROVE_TOL
            if prev is None or sol.weight > prev[1]:
                self._best[id(g)] = (g, sol.weight)
        return improved

    # -- patching ------------------------------------------------------------

    def _wrap(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        w = self._wrap
        for owner in (sparsecut, solver_mod):
            # racing_solve looks up solve_maxcut in sparsecut.solver
            w(owner, "solve_maxcut", "solver.api")
        w(sparsecut, "solve_qubo", "solver.api")
        w(sparsecut, "parse_maxcut", "instances.parse")
        w(sparsecut, "parse_qubo", "instances.parse")
        w(solver_mod, "solve_graph", "solver.graph")
        w(solver_mod, "build_graph", "graph.build")
        w(solver_mod, "qubo_to_maxcut", "transform.to_maxcut")
        w(solver_mod, "qubo_assignment_from_maxcut", "transform.assignment")
        w(solver_mod, "presolve_loop", "presolve.loop", self._after_presolve)
        w(solver_mod, "biconnected_components", "graph.decompose",
          lambda a, r: self.count("graph.components", len(r[0])))
        w(solver_mod, "induce_subgraph", "graph.decompose")
        w(solver_mod, "enumerate_component", "solver.enum")
        w(solver_mod, "burer_rank2", "heuristics.rank2", self._after_rank2)
        w(solver_mod, "spanning_tree_rounding", "heuristics.rounding",
          self._after_rounding)
        w(solver_mod, "separate_triangles", "separation.triangle",
          lambda a, r: self.count("separation.triangle_cuts", len(r)))
        w(solver_mod, "separate_exact", "separation.exact",
          lambda a, r: self.count("separation.exact_cuts", len(r)))
        w(solver_mod, "propagate", "propagate.pass", self._after_propagate)
        w(LpEngine, "solve", "lp.solve", self._after_lp_solve)
        w(LpEngine, "add_cuts", "lp.add_cuts", self._after_add_cuts)
        w(LpEngine, "purge_cuts", "lp.purge",
          lambda a, r: self.count("lp.cuts_purged", r))
        w(solver_mod.ComponentSolver, "solve", "solver.component",
          self._after_component)
        w(ReductionTrace, "replay", "graph.replay")

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- counters taken from arguments and results ----------------------------

    def _after_presolve(self, args, result):
        g = args[0]
        stats = result[2]
        self.count("presolve.rounds", stats.rounds)
        self.count("presolve.merged", stats.vertices_merged)
        self.count("presolve.vertices", g.n)

    def _after_rank2(self, args, result):
        self._heuristic_result(args[0], result)

    def _after_rounding(self, args, result):
        if self._heuristic_result(args[0], result):
            self.count("heuristics.rounding_improved")

    def _after_propagate(self, args, result):
        new_fixed, dead = result
        if dead:
            self.count("propagate.prunes")
        else:
            self.count("propagate.fixed", len(new_fixed) - len(args[6]))

    def _after_lp_solve(self, args, result):
        self.count("lp.pivots", result.iterations)
        self.peak("lp.rows_peak", len(args[0].pool.entries))

    def _after_add_cuts(self, args, result):
        self.count("lp.cuts_offered", len(args[1]))
        self.count("lp.cuts_added", result)

    def _after_component(self, args, result):
        self.count("solver.nodes", args[0].stats.nodes)
        self.count("solver.workers")

    # -- summary -------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self):
        """Per-layer seconds, call counts and ratios for the recorded spans."""
        total = defaultdict(float)
        calls = Counter()
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
        solver_self = 0.0
        main = threading.main_thread().ident
        main_self = 0.0
        for span, own in zip(self.spans, self.self_times()):
            if span[0] in ("solver.api", "solver.graph", "solver.component"):
                solver_self += own
            if span[4] == main:
                main_self += own
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        rows = {
            "instances.parse_s": (total["instances.parse"], "s"),
            "transform.s": (total["transform.to_maxcut"]
                            + total["transform.assignment"], "s"),
            "graph.build_s": (total["graph.build"], "s"),
            "graph.decompose_s": (total["graph.decompose"], "s"),
            "graph.components": (c["graph.components"], "count"),
            "graph.replay_s": (total["graph.replay"], "s"),
            "presolve.s": (total["presolve.loop"], "s"),
            "presolve.rounds": (c["presolve.rounds"], "count"),
            "presolve.removed_frac": (ratio(c["presolve.merged"],
                                            c["presolve.vertices"]), "ratio"),
            "heuristics.rank2_s": (total["heuristics.rank2"], "s"),
            "heuristics.rank2_calls": (calls["heuristics.rank2"], "count"),
            "heuristics.rounding_s": (total["heuristics.rounding"], "s"),
            "heuristics.rounding_calls": (calls["heuristics.rounding"], "count"),
            "heuristics.rounding_improve_frac": (
                ratio(c["heuristics.rounding_improved"],
                      calls["heuristics.rounding"]), "ratio"),
            "lp.solve_s": (total["lp.solve"], "s"),
            "lp.solves": (calls["lp.solve"], "count"),
            "lp.pivots": (c["lp.pivots"], "count"),
            "lp.pivots_per_solve": (ratio(c["lp.pivots"], calls["lp.solve"]),
                                    "count"),
            "lp.add_cuts_s": (total["lp.add_cuts"], "s"),
            "lp.cuts_added": (c["lp.cuts_added"], "count"),
            "lp.cuts_purged": (c["lp.cuts_purged"], "count"),
            "lp.rows_peak": (self.peaks.get("lp.rows_peak", 0), "count"),
            "lp.accept_frac": (ratio(c["lp.cuts_added"], c["lp.cuts_offered"]),
                               "ratio"),
            "separation.triangle_s": (total["separation.triangle"], "s"),
            "separation.triangle_calls": (calls["separation.triangle"], "count"),
            "separation.triangle_cuts": (c["separation.triangle_cuts"], "count"),
            "separation.exact_s": (total["separation.exact"], "s"),
            "separation.exact_calls": (calls["separation.exact"], "count"),
            "separation.exact_cuts": (c["separation.exact_cuts"], "count"),
            "propagate.s": (total["propagate.pass"], "s"),
            "propagate.calls": (calls["propagate.pass"], "count"),
            "propagate.fixed": (c["propagate.fixed"], "count"),
            "propagate.prunes": (c["propagate.prunes"], "count"),
            "solver.nodes": (c["solver.nodes"], "count"),
            "solver.enum_s": (total["solver.enum"], "s"),
            "solver.nodes_per_worker": (ratio(c["solver.nodes"],
                                              c["solver.workers"]), "count"),
            "solver.self_s": (solver_self, "s"),
        }
        return rows, main_self
