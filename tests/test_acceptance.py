"""End-to-end acceptance checks for the solver.

Each test freezes one external guarantee: exactness against brute force,
exact separation, presolve safety and power, the QUBO transform identity,
chordless cut post-processing, dual bound validity, heuristic quality,
racing consistency, and a single-threaded performance budget.

Benchmark-scale runs on published instance collections are driven by
scripts/reproduce_benchmarks.py and are deliberately not part of the suite.
"""

import math
import random
import time

import numpy as np
import pytest

from sparsecut.graph import CutSolution, WeightedGraph
from sparsecut.heuristics import burer_rank2
from sparsecut.instances import RawMaxCutInstance, RawQuboInstance
from sparsecut.lp import LpEngine
from sparsecut.presolve import presolve_loop
from sparsecut.separation import chordless_decompose, separate_exact
from sparsecut.solver import (
    ComponentSolver,
    Config,
    racing_solve,
    solve_maxcut,
    solve_qubo,
)
from sparsecut.transform import maxcut_to_qubo, qubo_to_maxcut

from oracles import (
    brute_force_qubo,
    cycle_vertices,
    exhaustive_maxcut,
    has_chord,
    most_violated_cycle_inequality,
    random_graph,
)

N_INSTANCES = 500


def _raw(n, edges):
    return RawMaxCutInstance(n, [(u + 1, v + 1, w) for u, v, w in edges])


@pytest.fixture(scope="module")
def corpus():
    """Fixed schedule of random instances plus their brute-force optima.

    |V| in [6, 14], density in [0.2, 0.8], integer weights in [-5, 5].
    """
    instances = []
    for i in range(N_INSTANCES):
        rng = random.Random(10_000 + i)
        n = rng.randint(6, 14)
        density = rng.uniform(0.2, 0.8)
        edges = random_graph(rng, n, density)
        instances.append((n, edges, exhaustive_maxcut(n, edges)[0]))
    return instances


def test_oracle_equivalence_on_500_instances(corpus):
    start = time.monotonic()
    cfg = Config()
    for n, edges, best in corpus:
        report = solve_maxcut(_raw(n, edges), cfg)
        assert report.status == "optimal"
        assert report.best_value == best, (n, edges)
    assert time.monotonic() - start < 120.0


def _count_branch_and_cut(monkeypatch):
    """Record the vertex count of every component that branch-and-cut solves."""
    calls = []
    real = ComponentSolver.solve

    def counting(self, initial=None):
        calls.append(self.g.n)
        return real(self, initial)

    monkeypatch.setattr(ComponentSolver, "solve", counting)
    return calls


def test_oracle_equivalence_on_500_instances_by_branch_and_cut(corpus, monkeypatch):
    """The corpus again, with components above 10 vertices left to
    branch-and-cut instead of enumeration."""
    calls = _count_branch_and_cut(monkeypatch)
    start = time.monotonic()
    cfg = Config(enum_threshold=10)
    for n, edges, best in corpus:
        report = solve_maxcut(_raw(n, edges), cfg)
        assert report.status == "optimal"
        assert report.best_value == best, (n, edges)
    assert calls
    assert time.monotonic() - start < 120.0


def test_separation_exactness_against_enumeration():
    start = time.monotonic()
    rng = random.Random(20_000)
    checked = 0
    while checked < 200:
        n = rng.randint(4, 10)
        density = rng.uniform(0.3, 0.7) if n <= 7 else rng.uniform(0.2, 0.4)
        edges = random_graph(rng, n, density)
        if len(edges) < 3:
            continue
        g = WeightedGraph(n, edges)
        x = np.array([rng.random() for _ in range(g.m)])
        cuts = separate_exact(g, x)
        viol, _ = most_violated_cycle_inequality(n, edges, x)
        # empty return exactly when no cycle inequality is violated by > 1e-6
        assert bool(cuts) == (viol > 1e-6), (edges, list(x), viol)
        checked += 1
    assert time.monotonic() - start < 60.0


def test_presolve_safety_on_the_oracle_corpus(corpus):
    for n, edges, best in corpus:
        raw = _raw(n, edges)
        on = solve_maxcut(raw, Config())
        off = solve_maxcut(raw, Config(presolve=False))
        assert on.best_value == off.best_value == best


def test_presolve_safety_on_the_oracle_corpus_by_branch_and_cut(corpus, monkeypatch):
    calls = _count_branch_and_cut(monkeypatch)
    for n, edges, best in corpus:
        raw = _raw(n, edges)
        on = solve_maxcut(raw, Config(enum_threshold=10))
        off = solve_maxcut(raw, Config(enum_threshold=10, presolve=False))
        assert on.best_value == off.best_value == best
    assert calls


def test_presolve_power_solves_flagship_triangles():
    # (2, 1, -1): fully reduced by the triangle rules, nothing left to solve
    raw = _raw(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, -1.0)])
    report = solve_maxcut(raw)
    assert report.best_value == 3.0
    assert report.bnb_nodes == 0
    reduced, trace, _ = presolve_loop(
        WeightedGraph(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, -1.0)])
    )
    assert reduced.m == 0 and trace.offset == 3.0

    # all-ones triangle: no reduction applies soundly, but the instance is
    # still finished without branching
    report = solve_maxcut(_raw(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]))
    assert report.best_value == 2.0
    assert report.bnb_nodes == 0


@pytest.mark.parametrize("alpha", [1.0, -1.0])
def test_presolve_contracts_unit_twin_vertices(alpha):
    # vertices 0 and 1 see {2, 3} with weights proportional by exactly alpha;
    # equal magnitudes keep the single-edge reductions out of the way
    edges = [(0, 2, 2.0), (0, 3, 2.0),
             (1, 2, 2.0 * alpha), (1, 3, 2.0 * alpha)]
    g = WeightedGraph(4, edges)
    reduced, trace, stats = presolve_loop(g)
    assert stats.rule_hits["symmetry_merge"] >= 1
    kinds = [rec.kind for rec in trace.records if hasattr(rec, "kind")]
    assert ("same" if alpha > 0 else "opposite") in kinds
    best, _ = exhaustive_maxcut(4, edges)
    red_best, _ = exhaustive_maxcut(reduced.n, reduced.edge_list())
    assert red_best + trace.offset == pytest.approx(best)


def test_qubo_maxcut_certificates_roundtrip():
    start = time.monotonic()
    rng = random.Random(30_000)
    done = 0
    while done < 100:
        n = rng.randint(2, 10)
        entries = []
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if rng.random() < 0.5:
                    c = rng.randint(-5, 5)
                    if c:
                        entries.append((i, j, float(c)))
        if not entries:
            continue
        qubo = RawQuboInstance(n, entries)
        q_best, _ = brute_force_qubo(n, entries)

        # QUBO -> max-cut: the solver's minimum matches enumeration
        report = solve_qubo(qubo, Config())
        assert report.status == "optimal"
        assert report.best_value == pytest.approx(q_best)
        assert qubo.objective(report.partition) == pytest.approx(q_best)

        # the identity itself: cut weight of the image equals -objective
        mc = qubo_to_maxcut(qubo)
        mc_best, _ = exhaustive_maxcut(
            mc.num_vertices, [(u - 1, v - 1, w) for u, v, w in mc.edges]
        )
        assert -1.0 * mc_best + 0.0 == pytest.approx(q_best)

        # max-cut -> QUBO on a derived graph instance
        c_edges = random_graph(rng, max(n, 2), 0.5)
        raw_mc = _raw(max(n, 2), c_edges)
        back = maxcut_to_qubo(raw_mc)
        b_best, _ = brute_force_qubo(back.dimension, back.entries)
        mc_opt, _ = exhaustive_maxcut(max(n, 2), c_edges)
        assert -1.0 * b_best + 0.0 == pytest.approx(mc_opt)
        done += 1
    assert time.monotonic() - start < 30.0


def test_chordless_postprocessing():
    start = time.monotonic()

    # pinned fixture: 4-cycle 0-1-2-3 with chord {0,2}; the fractional point
    # is violated only on the triangle (2, 3, 0) with F = {e23}
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
                          (1, 2, 1.0), (2, 3, 1.0)])
    e01, e02, e03, e12, e23 = (g.find_edge(*p) for p in
                               [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    x = np.zeros(g.m)
    x[[e01, e12, e23]] = 0.95
    x[[e02, e03]] = 0.05
    cuts = chordless_decompose(
        [0, 1, 2, 3], [e01, e12, e23, e03], [True, True, True, False], x, g
    )
    assert len(cuts) == 1
    assert sorted(cuts[0].edges) == sorted([e23, e03, e02])
    assert {e for e, f in zip(cuts[0].edges, cuts[0].in_f) if f} == {e23}

    # 1000 random violated cycles with random chords
    rng = random.Random(40_000)
    for _ in range(1000):
        k = rng.randint(3, 8)
        n = k + rng.randint(0, 3)
        cycle_pairs = {(min(i, (i + 1) % k), max(i, (i + 1) % k))
                       for i in range(k)}
        edges = [(u, v, 1.0) for u, v in sorted(cycle_pairs)]
        for u in range(n):
            for v in range(u + 1, n):
                if (u, v) not in cycle_pairs and rng.random() < 0.3:
                    edges.append((u, v, 1.0))
        g = WeightedGraph(n, edges)
        eids = [g.find_edge(i, (i + 1) % k) for i in range(k)]
        f_size = rng.choice(range(1, k + 1, 2))
        in_f = [i < f_size for i in range(k)]
        rng.shuffle(in_f)
        x = np.array([rng.random() for _ in range(g.m)])
        for e, flag in zip(eids, in_f):
            x[e] = 1.0 - 0.05 * rng.random() if flag else 0.05 * rng.random()
        cuts = chordless_decompose(list(range(k)), eids, in_f, x, g)
        assert cuts
        for cut in cuts:
            assert cut.violation(x) > 0
            assert not has_chord(g, cycle_vertices(g, cut.edges))
    assert time.monotonic() - start < 10.0


def test_lp_bounds_always_dominate_subproblem_optima(corpus, monkeypatch):
    """Every LP bound produced while solving the corpus is a valid upper
    bound on the best cut consistent with the node's fixings."""
    original = LpEngine.solve
    tables = {}
    violations = []
    solves = [0]

    def lookup(graph):
        key = (graph.n, graph.edge_u.tobytes(), graph.edge_v.tobytes(),
               graph.edge_w.tobytes())
        if key not in tables:
            masks = np.arange(1 << max(graph.n - 1, 0), dtype=np.int64)
            y = np.zeros((masks.size, graph.n), dtype=np.int8)
            for t in range(1, graph.n):
                y[:, t] = (masks >> (t - 1)) & 1
            incidence = y[:, graph.edge_u] != y[:, graph.edge_v]
            values = (incidence * graph.edge_w).sum(axis=1)
            tables[key] = (incidence, values)
        return tables[key]

    def spy(self, lb=None, ub=None):
        state = original(self, lb, ub)
        solves[0] += 1
        if not state.feasible:
            return state
        g = self.graph
        incidence, values = lookup(g)
        keep = np.ones(values.size, dtype=bool)
        if lb is not None:
            for e in np.flatnonzero(lb > 0.5):
                keep &= incidence[:, e]
        if ub is not None:
            for e in np.flatnonzero(ub < 0.5):
                keep &= ~incidence[:, e]
        if not keep.any():
            return state  # no integral point satisfies the fixings
        target = float(values[keep].max())
        bound = state.objective
        if np.all(g.edge_w == np.round(g.edge_w)):
            bound = math.floor(bound + 1e-6)
        if bound < target - 1e-9:
            violations.append((g.edge_list(), bound, target))
        return state

    monkeypatch.setattr(LpEngine, "solve", spy)
    cfg = Config(enum_threshold=0)
    for n, edges, best in corpus:
        report = solve_maxcut(_raw(n, edges), cfg)
        assert report.best_value == best
    assert solves[0] > 0
    assert violations == []


def test_root_heuristic_quality_floor(corpus):
    good = total = 0
    for n, edges, best in corpus:
        if not edges:
            continue
        sol = burer_rank2(WeightedGraph(n, edges), seed=0, restarts=8)
        total += 1
        if sol.weight >= 0.95 * best - 1e-9:
            good += 1
    assert good >= 0.9 * total, (good, total)


def test_racing_matches_sequential_optima(corpus):
    for workers in (2, 4):
        for n, edges, best in corpus[:50]:
            report = racing_solve(_raw(n, edges),
                                  Config(), workers=workers)
            assert report.status == "optimal"
            assert report.best_value == best


def test_incumbent_sharing_node_count_regression():
    rng = random.Random(909)
    edges = random_graph(rng, 18, 0.4)
    g = WeightedGraph(18, edges)
    best, y = exhaustive_maxcut(18, edges)
    cfg = Config(enum_threshold=0, heuristics=False)

    cold = ComponentSolver(g, cfg, None)
    sol_cold, _, st_cold = cold.solve()
    warm = ComponentSolver(g, cfg, None)
    sol_warm, _, st_warm = warm.solve(initial=CutSolution.from_assignment(g, y))

    assert st_cold == st_warm == "optimal"
    assert sol_cold.weight == sol_warm.weight == best
    assert warm.stats.nodes <= cold.stats.nodes


def test_performance_smoke_sixty_vertices():
    rng = random.Random(606)
    edges = [(u, v, float(rng.choice([-1, 1])))
             for u in range(60) for v in range(u + 1, 60)
             if rng.random() < 0.1]
    raw = _raw(60, edges)
    start = time.monotonic()
    report = solve_maxcut(raw, Config(threads=1, time_limit_s=120.0))
    elapsed = time.monotonic() - start
    assert report.status == "optimal"
    assert elapsed < 120.0
    assert report.primal_dual_gap_percent == 0.0
