import math
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import sparsecut.heuristics as heuristics
import sparsecut.solver as solver_mod
from sparsecut.graph import WeightedGraph, build_graph
from sparsecut.instances import RawMaxCutInstance, RawQuboInstance
from sparsecut.lp import _BoundedSimplex
from sparsecut.solver import (
    ComponentSolver,
    Config,
    enumerate_component,
    racing_solve,
    solve_graph,
    solve_maxcut,
    solve_qubo,
)

from oracles import brute_force_maxcut, brute_force_qubo, random_graph, torus_edges


def raw_from_edges(n, edges):
    return RawMaxCutInstance(n, [(u + 1, v + 1, w) for u, v, w in edges],
                             all(float(w).is_integer() for _, _, w in edges))


def test_enumerate_component_matches_brute_force():
    rng = random.Random(51)
    for _ in range(20):
        n = rng.randint(2, 8)
        edges = random_graph(rng, n, 0.6)
        g = WeightedGraph(n, edges)
        sol, value = enumerate_component(g)
        best, _ = brute_force_maxcut(n, edges)
        assert value == pytest.approx(best)
        assert sol.weight == pytest.approx(best)


def test_branch_takes_the_heaviest_fractional_free_edge():
    edges = [(0, 1, 5.0),    # 2.5, but fixed
             (0, 2, 1e7),    # min(x, 1 - x) below INT_TOL
             (0, 3, -2.0),   # 0.6
             (1, 2, 2.0),    # 0.6 plus one rounding step: a near-tie
             (1, 3, 0.25),   # 0.5: |w| counts as 1
             (2, 3, 1.0)]    # 0.45
    g = WeightedGraph(4, edges)  # edge ids follow the sorted (u, v) order
    solver = ComponentSolver(g, Config(), True, None)
    state = SimpleNamespace(x=np.array([0.5, 1 - 5e-7, 0.3, 0.7, 0.5, 0.55]))
    fixed = {0: 1}
    children = solver._branch(state, fixed, 7.5)
    assert children == [(7, {0: 1, 2: 0}), (7, {0: 1, 2: 1})]
    assert fixed == {0: 1}
    assert solver._branch(state, {}, 7.5)[0] == (7, {0: 0})
    state.x = np.array([0.5, 1 - 5e-7, 0.0, 1e-9, 1.0, 0.0])
    with pytest.raises(RuntimeError):
        solver._branch(state, fixed, 7.5)


def test_unit_triangle():
    raw = raw_from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    report = solve_maxcut(raw)
    assert report.best_value == 2.0
    assert report.status == "optimal"
    assert report.primal_dual_gap_percent == 0.0


def test_triangle_two_one_minus_one_solved_by_presolve():
    raw = raw_from_edges(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, -1.0)])
    report = solve_maxcut(raw)
    assert report.best_value == 3.0
    assert report.bnb_nodes == 0
    # the optimum isolates the shared vertex of the positive edges
    y = report.partition
    assert y[1] != y[2] and y[2] == y[3]


def test_solver_matches_brute_force_with_all_paths():
    rng = random.Random(52)
    for trial in range(25):
        n = rng.randint(4, 10)
        edges = random_graph(rng, n, 0.5)
        if not edges:
            continue
        raw = raw_from_edges(n, edges)
        best, _ = brute_force_maxcut(n, edges)
        for cfg in (
            Config(heur_restarts=2),                          # enum path
            Config(heur_restarts=2, enum_threshold=0),        # branch and cut
            Config(heur_restarts=2, enum_threshold=0, presolve=False),
            Config(heur_restarts=2, enum_threshold=0, propagation=False),
            Config(heur_restarts=2, enum_threshold=0, heuristics=False),
        ):
            report = solve_maxcut(raw, cfg)
            assert report.status == "optimal"
            assert report.best_value == pytest.approx(best), (trial, cfg)
            assert raw.cut_value(report.partition) == pytest.approx(best)


def test_fractional_weights_are_handled():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(4, 8)
        edges = random_graph(rng, n, 0.6, integral=False)
        if not edges:
            continue
        raw = RawMaxCutInstance(
            n, [(u + 1, v + 1, w) for u, v, w in edges], all_integral=False
        )
        best, _ = brute_force_maxcut(n, edges)
        report = solve_maxcut(raw, Config(heur_restarts=2, enum_threshold=0))
        assert report.best_value == pytest.approx(best)


def test_disconnected_and_articulated_instances():
    # two triangles joined at a vertex plus a separate positive edge
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0),
             (5, 6, 4.0)]
    raw = raw_from_edges(7, edges)
    best, _ = brute_force_maxcut(7, edges)
    for cfg in (Config(), Config(enum_threshold=0, heur_restarts=2)):
        report = solve_maxcut(raw, cfg)
        assert report.best_value == pytest.approx(best) == 8.0


def test_stitching_aligns_blocks_across_articulation_vertices():
    rng = random.Random(54)
    for _ in range(15):
        # chain of small blocks sharing single vertices
        blocks = rng.randint(2, 4)
        edges = []
        base = 0
        for _ in range(blocks):
            k = rng.randint(3, 4)
            verts = list(range(base, base + k))
            for i in range(k):
                for j in range(i + 1, k):
                    if rng.random() < 0.8:
                        edges.append((verts[i], verts[j],
                                      float(rng.randint(-4, 4))))
            base += k - 1  # share the last vertex with the next block
        edges = [(u, v, w) for u, v, w in edges if w != 0]
        if not edges:
            continue
        n = base + 1
        raw = raw_from_edges(n, edges)
        best, _ = brute_force_maxcut(n, edges)
        # without presolve, which would reduce these small blocks first
        report = solve_maxcut(raw, Config(heur_restarts=2, enum_threshold=0,
                                          presolve=False))
        assert report.best_value == pytest.approx(best)


def test_node_limit_status_and_exitable_gap():
    rng = random.Random(55)
    edges = random_graph(rng, 20, 0.5)
    raw = raw_from_edges(20, edges)
    report = solve_maxcut(
        raw, Config(enum_threshold=0, node_limit=1, heur_restarts=1)
    )
    assert report.status in ("optimal", "node_limit")
    if report.status == "node_limit":
        assert report.primal_dual_gap_percent >= 0.0


def test_node_limit_of_one_solves_the_root():
    """The node that fills the budget still runs its cutting-plane loop."""
    g = WeightedGraph(14, random_graph(random.Random(15), 14, 0.5))
    cfg = Config(node_limit=1, enum_threshold=0, heur_restarts=2)
    solver = ComponentSolver(g, cfg, True, None, node_budget=1)
    sol, dual, status = solver.solve()
    assert status == "node_limit"
    assert solver.stats.nodes == 1
    assert solver.stats.lp_solves >= 1
    assert sol.weight <= dual < solver_mod._trivial_bound(g)


def test_time_limit_is_respected():
    rng = random.Random(56)
    edges = random_graph(rng, 40, 0.5)
    raw = raw_from_edges(40, edges)
    report = solve_maxcut(raw, Config(enum_threshold=0, time_limit_s=0.05,
                                      heur_restarts=1))
    assert report.status in ("optimal", "time_limit")
    assert report.wall_time_s < 20.0


def test_heuristic_restarts_stop_at_the_time_limit(monkeypatch):
    """Past the deadline every burer_rank2 call runs its first restart only:
    at the root of a component solve and for components left at time out."""
    local_calls, rank2_calls = [], []
    real_local, real_rank2 = heuristics._local_minimize, solver_mod.burer_rank2

    def local(g, theta):
        local_calls.append(g.n)
        return real_local(g, theta)

    def rank2(g, *args, **kwargs):
        rank2_calls.append(g.n)
        return real_rank2(g, *args, **kwargs)

    monkeypatch.setattr(heuristics, "_local_minimize", local)
    monkeypatch.setattr(solver_mod, "burer_rank2", rank2)
    rng = random.Random(58)
    g = WeightedGraph(12, random_graph(rng, 12, 0.5))
    _, _, status = ComponentSolver(g, Config(), True, time.monotonic() - 1.0).solve()
    assert status == "time_limit"
    assert local_calls == rank2_calls == [12]

    local_calls.clear()
    rank2_calls.clear()
    edges = [(u + 12 * c, v + 12 * c, w)
             for c in range(3) for u, v, w in random_graph(rng, 12, 0.5)]
    report = solve_maxcut(raw_from_edges(36, edges), Config(time_limit_s=1e-9))
    assert report.status == "time_limit"
    assert len(rank2_calls) >= 3
    assert local_calls == rank2_calls


def test_qubo_end_to_end():
    rng = random.Random(57)
    for _ in range(15):
        n = rng.randint(2, 7)
        entries = []
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if rng.random() < 0.5:
                    c = rng.randint(-4, 4)
                    if c:
                        entries.append((i, j, float(c)))
        raw = RawQuboInstance(n, entries)
        best, _ = brute_force_qubo(n, entries)
        report = solve_qubo(raw, Config(heur_restarts=2))
        assert report.status == "optimal"
        assert report.best_value == pytest.approx(best)
        assert raw.objective(report.partition) == pytest.approx(best)


def test_racing_matches_single_threaded_value():
    rng = random.Random(58)
    for _ in range(5):
        n = 12
        edges = random_graph(rng, n, 0.4)
        raw = raw_from_edges(n, edges)
        single = solve_maxcut(raw, Config(heur_restarts=2, enum_threshold=0))
        raced = racing_solve(raw, Config(heur_restarts=2, enum_threshold=0),
                             workers=3)
        assert raced.status == "optimal"
        assert raced.best_value == pytest.approx(single.best_value)


def _answer(report):
    return (report.status, report.best_value, report.bnb_nodes, report.partition)


def test_racing_and_threads_give_the_plain_answer():
    rng = random.Random(60)
    cases = [(raw_from_edges(64, torus_edges(rng, 8)), Config()) for _ in range(3)]
    # needs three nodes in the plain solve, so a one-node limit must stop it
    node_cfg = Config(node_limit=1, enum_threshold=0, heur_restarts=2)
    cases.append((raw_from_edges(14, random_graph(random.Random(15), 14, 0.5)),
                  node_cfg))
    for raw, cfg in cases:
        plain = _answer(solve_maxcut(raw, cfg))
        for k in (2, 3):
            assert _answer(racing_solve(raw, cfg, workers=k)) == plain
            assert _answer(solve_maxcut(raw, replace(cfg, threads=k))) == plain
    assert plain[0] == "node_limit"


def test_stopped_root_reports_a_finite_dual():
    rng = random.Random(61)
    g = WeightedGraph(12, random_graph(rng, 12, 0.5))
    sol, dual, status = ComponentSolver(
        g, Config(), True, time.monotonic() - 1.0).solve()
    assert status == "time_limit"
    assert sol.weight <= dual <= float(np.clip(g.edge_w, 0.0, None).sum())


def test_incumbent_injection_cannot_increase_nodes():
    rng = random.Random(59)
    edges = random_graph(rng, 16, 0.5)
    g = WeightedGraph(16, edges)
    best, y = brute_force_maxcut(16, edges)
    cfg = Config(enum_threshold=0, heur_restarts=1, heuristics=False)

    cold = ComponentSolver(g, cfg, True, None)
    sol_cold, _, st_cold = cold.solve()

    from sparsecut.graph import CutSolution
    warm = ComponentSolver(g, cfg, True, None)
    sol_warm, _, st_warm = warm.solve(
        initial=CutSolution.from_assignment(g, np.array(y, dtype=np.int8))
    )
    assert st_cold == st_warm == "optimal"
    assert sol_cold.weight == pytest.approx(best)
    assert sol_warm.weight == pytest.approx(best)
    assert warm.stats.nodes <= cold.stats.nodes


def test_dual_bound_dominates_optimum_on_limit_hits():
    rng = random.Random(60)
    for _ in range(5):
        n = rng.randint(10, 14)
        edges = random_graph(rng, n, 0.5)
        raw = raw_from_edges(n, edges)
        best, _ = brute_force_maxcut(n, edges)
        report = solve_maxcut(
            raw, Config(enum_threshold=0, node_limit=1, heur_restarts=1)
        )
        assert report.best_value <= best + 1e-9
        if report.status == "optimal":
            assert report.best_value == pytest.approx(best)
        else:
            # reported gap must cover the distance to the true optimum
            dual = report.best_value + report.primal_dual_gap_percent / 100.0 * max(
                1.0, abs(report.best_value)
            )
            assert dual >= best - 1e-6


def test_root_stopped_after_its_lp_keeps_the_lp_bound(monkeypatch):
    """A time-out inside the root re-queues it at its last effective LP
    bound, not at the parent's bound +inf (clamped to the trivial bound)."""
    g = WeightedGraph(64, torus_edges(random.Random(62), 8))
    solver = ComponentSolver(g, Config(), True, time.monotonic() + 600.0)
    objectives = []
    real_solve = solver_mod.LpEngine.solve

    def solve(self, lb=None, ub=None):
        state = real_solve(self, lb, ub)
        objectives.append(state.objective)
        if len(objectives) == 2:
            solver.deadline = time.monotonic()  # expires before the next round
        return state

    monkeypatch.setattr(solver_mod.LpEngine, "solve", solve)
    sol, dual, status = solver.solve()
    assert status == "time_limit" and len(objectives) == 2
    assert dual == math.floor(objectives[1] + 1e-6)
    assert sol.weight < dual < solver_mod._trivial_bound(g)


def test_deadline_stops_the_simplex_mid_solve(monkeypatch):
    """A clock that expires during a long solve stops the simplex within
    DEADLINE_EVERY pivots; the root is re-queued as on any time-out."""
    raw = raw_from_edges(196, torus_edges(random.Random(62), 14))
    real_clock = time.monotonic
    offset = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: real_clock() + offset[0])
    expire_at = 10  # pivots; the root's first cut round needs about 90
    pivots = [0]
    real_ratio_test = _BoundedSimplex._ratio_test

    def ratio_test(self, *args):  # called once per pivot
        pivots[0] += 1
        if pivots[0] == expire_at:
            offset[0] = 1e6
        return real_ratio_test(self, *args)

    states = []
    real_solve = solver_mod.LpEngine.solve

    def solve(self, lb=None, ub=None):
        states.append(real_solve(self, lb, ub))
        return states[-1]

    monkeypatch.setattr(_BoundedSimplex, "_ratio_test", ratio_test)
    monkeypatch.setattr(solver_mod.LpEngine, "solve", solve)
    report = solve_maxcut(raw, Config(time_limit_s=600.0))
    assert states[-1].expired and not any(s.expired for s in states[:-1])
    assert expire_at < pivots[0] <= expire_at + _BoundedSimplex.DEADLINE_EVERY
    assert report.status == "time_limit"
    assert math.isfinite(report.primal_dual_gap_percent)
