import math
import random
import time
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import sparsecut.heuristics as heuristics
import sparsecut.separation as separation
import sparsecut.solver as solver_mod
from sparsecut.graph import MAX_TOTAL_WEIGHT, CutSolution, WeightedGraph, build_graph
from sparsecut.heuristics import kernighan_lin
from sparsecut.instances import RawMaxCutInstance, RawQuboInstance
from sparsecut.lp import LpState, TimeUp, _BoundedSimplex
from sparsecut.solver import (
    ComponentSolver,
    Config,
    enumerate_component,
    racing_solve,
    solve_graph,
    solve_maxcut,
    solve_qubo,
)

from oracles import (
    brute_force_maxcut,
    brute_force_qubo,
    complete_edges,
    exhaustive_maxcut,
    highs_maxcut,
    random_graph,
    reference_enumerate,
    split_exhaustive_maxcut,
    torus3d_edges,
    torus_edges,
)


def raw_from_edges(n, edges):
    return RawMaxCutInstance(n, [(u + 1, v + 1, w) for u, v, w in edges])


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


def _spread_graph(rng, k, integral=True):
    """A random graph on k alive vertices scattered among isolated ones."""
    n = k + rng.randint(0, 3)
    ids = sorted(rng.sample(range(n), k))
    edges = random_graph(rng, k, rng.uniform(0.2, 0.9), integral=integral)
    return WeightedGraph(n, [(ids[u], ids[v], w) for u, v, w in edges])


def test_enumerate_component_matches_the_chunked_reference():
    """Same assignment and weight as scoring every bipartition edge by edge,
    for k = 1 (no free vertex) and k = 2 (an empty A half) up to 18."""
    rng = random.Random(59)
    for k in range(1, 19):
        for _ in range(3 if k > 14 else 8):
            g = _spread_graph(rng, k)
            sol, value = enumerate_component(g)
            ref, ref_value = reference_enumerate(g)
            assert np.array_equal(sol.y, ref.y), k
            assert value == ref_value == sol.weight
            g = _spread_graph(rng, k, integral=False)
            sol, value = enumerate_component(g)
            assert value == pytest.approx(reference_enumerate(g)[1])
            assert value == sol.weight


def test_enumerate_component_memory_is_bounded_by_the_chunk():
    g = WeightedGraph(24, random_graph(random.Random(60), 24, 0.3))
    tracemalloc.start()
    try:
        enumerate_component(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_branch_takes_the_heaviest_fractional_free_edge():
    edges = [(0, 1, 5.0),    # 2.5, but fixed
             (0, 2, 1e7),    # min(x, 1 - x) below INT_TOL
             (0, 3, -2.0),   # 0.6
             (1, 2, 2.0),    # 0.6 plus one rounding step: a near-tie
             (1, 3, 0.25),   # 0.5: |w| counts as 1
             (2, 3, 1.0)]    # 0.45
    g = WeightedGraph(4, edges)  # edge ids follow the sorted (u, v) order
    solver = ComponentSolver(g, Config(), None)
    state = SimpleNamespace(x=np.array([0.5, 1 - 5e-7, 0.3, 0.7, 0.5, 0.55]))
    fixed = {0: 1}
    children = solver._branch(state, fixed, 7.5)
    # the children keep the node's bound, which the caller has already rounded
    assert children == [(7.5, {0: 1, 2: 0}), (7.5, {0: 1, 2: 1})]
    assert fixed == {0: 1}
    assert solver._branch(state, {}, 7.5)[0] == (7.5, {0: 0})
    state.x = np.array([0.5, 1 - 5e-7, 0.0, 1e-9, 1.0, 0.0])
    with pytest.raises(RuntimeError):
        solver._branch(state, fixed, 7.5)


def test_a_node_branches_only_after_a_round_that_adds_no_cut(monkeypatch):
    """A node cuts while its rounds add cuts, however little they raise the
    bound: on the 5 x 5 torus a rule that ended a node after rounds of small
    gain branched the root at once. The 7 x 7 torus and the K14 do branch."""
    events = []  # the count each add_cuts returns, and "branch" per branching
    real_add_cuts = solver_mod.LpEngine.add_cuts
    real_branch = ComponentSolver._branch

    def add_cuts(self, cuts):
        events.append(real_add_cuts(self, cuts))
        return events[-1]

    def branch(self, *args):
        events.append("branch")
        return real_branch(self, *args)

    monkeypatch.setattr(solver_mod.LpEngine, "add_cuts", add_cuts)
    monkeypatch.setattr(ComponentSolver, "_branch", branch)
    for n, edges in ((25, torus_edges(random.Random(3), 5)),
                     (49, torus_edges(random.Random(13), 7)),
                     (14, complete_edges(random.Random(19), 14))):
        report = solve_maxcut(raw_from_edges(n, edges), Config(enum_threshold=0))
        assert report.status == "optimal"
    branches = [i for i, e in enumerate(events) if e == "branch"]
    assert branches and all(events[i - 1] == 0 for i in branches)


def test_component_integrality_is_read_from_its_weights():
    edges = [(0, 1, 3.0), (0, 2, -2.0), (1, 2, 1e7), (2, 3, 1.0)]
    assert ComponentSolver(WeightedGraph(4, edges), Config(), None).unit == 1
    edges[3] = (2, 3, 0.25)
    assert ComponentSolver(WeightedGraph(4, edges), Config(), None).unit == 0
    edges = [(0, 1, 6.0), (0, 2, -4.0), (1, 2, 2e7), (2, 3, 2.0)]
    assert ComponentSolver(WeightedGraph(4, edges), Config(), None).unit == 2


def test_fractional_instances_built_without_a_flag_report_the_true_optimum():
    """Rounding every LP bound down is valid only for integer weights: with
    two-decimal weights it pruned the optimum and still reported optimal.
    With rank-2 off, the optimum is not found before a bound prunes it."""
    cfg = Config(enum_threshold=0, heuristics=False)
    for seed in range(300):
        r = random.Random(seed)
        n = r.randint(6, 10)
        edges = [(u, v, round(r.uniform(-1, 1), 2))
                 for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if r.random() < 0.6]
        report = solve_maxcut(RawMaxCutInstance(n, edges), cfg)
        best, _ = brute_force_maxcut(n, [(u - 1, v - 1, w) for u, v, w in edges])
        assert report.status == "optimal", seed
        assert report.best_value == pytest.approx(best), seed


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
            Config(),                                  # enum path
            Config(enum_threshold=0),                  # branch and cut
            Config(enum_threshold=0, presolve=False),
            Config(enum_threshold=0, heuristics=False),
        ):
            report = solve_maxcut(raw, cfg)
            assert report.status == "optimal"
            assert report.best_value == pytest.approx(best), (trial, cfg)
            assert raw.cut_value(report.partition) == pytest.approx(best)


def test_branch_and_cut_matches_brute_force_on_sparse_graphs_and_3d_tori():
    """Random sparse graphs, solved by branch and cut alone, and 3D L = 3 +-1
    tori (triangles and chordless squares in every cutting round), against
    enumeration of every bipartition."""
    rng = random.Random(57)
    for _ in range(12):
        n = rng.randint(12, 18)
        edges = random_graph(rng, n, 3.0 / n)
        if not edges:
            continue
        raw = raw_from_edges(n, edges)
        report = solve_maxcut(raw, Config(enum_threshold=0))
        best, _ = exhaustive_maxcut(n, edges)
        assert report.status == "optimal"
        assert report.best_value == pytest.approx(best), (n, edges)
    for seed in (1, 2):
        edges = torus3d_edges(random.Random(seed), 3)
        report = solve_maxcut(raw_from_edges(27, edges))
        assert report.status == "optimal"
        assert report.best_value == split_exhaustive_maxcut(27, edges), seed


def test_branch_and_cut_matches_highs_on_a_3d_torus():
    """A 3D L = 4 +-1 torus: its cutting rounds score 240 chordless squares
    (192 plaquettes and 48 wraparound 4-cycles)."""
    pytest.importorskip("scipy.optimize")
    edges = torus3d_edges(random.Random(1), 4)
    report = solve_maxcut(raw_from_edges(64, edges))
    assert report.status == "optimal"
    assert report.best_value == pytest.approx(highs_maxcut(64, edges), abs=1e-6)


def test_each_round_adds_distinct_cuts_within_the_cap(monkeypatch):
    """Every batch handed to the LP holds at most 2n cuts and no key twice,
    though on the 6 x 6 torus the exact search and the square table find
    some of the same cycles; some batches hold both stage and square cuts."""
    batches = []
    shared = []  # per exact search: its cuts that the same round's squares hold
    squares = set()
    real_add_cuts = solver_mod.LpEngine.add_cuts
    real_triangles = solver_mod.separate_triangles
    real_exact = solver_mod.separate_exact

    def add_cuts(self, cuts):
        batches.append((self.graph.n, list(cuts)))
        return real_add_cuts(self, cuts)

    def separate_triangles(x, *tables):
        cuts = real_triangles(x, *tables)
        squares.clear()
        squares.update(c.key for c in cuts if len(c.edges) == 4)
        return cuts

    def separate_exact(g, x, deadline=None):
        cuts = real_exact(g, x, deadline)
        shared.append(len(squares & {c.key for c in cuts}))
        return cuts

    monkeypatch.setattr(solver_mod.LpEngine, "add_cuts", add_cuts)
    monkeypatch.setattr(solver_mod, "separate_triangles", separate_triangles)
    monkeypatch.setattr(solver_mod, "separate_exact", separate_exact)
    for n, edges in ((36, torus_edges(random.Random(58), 6)),
                     (27, torus3d_edges(random.Random(59), 3))):
        assert solve_maxcut(raw_from_edges(n, edges), Config(enum_threshold=0)).status == "optimal"
    assert sum(shared) > 0
    mixed = 0
    for n, cuts in batches:
        assert len(cuts) <= 2 * n
        assert len({c.key for c in cuts}) == len(cuts)
        widths = [len(c.edges) for c in cuts]
        mixed += 4 in widths and any(w != 4 for w in widths)
    assert mixed


def test_fixings_take_effect_at_the_next_rounds_solve(monkeypatch):
    """Reduced-cost fixing holds edges at the nonbasic bound they sit on, so
    the LP point stays optimal: every fixing pass of a node is followed by
    its round's separation, never by a second solve of the same point."""
    events = []
    real_solve = solver_mod.LpEngine.solve
    real_propagate = solver_mod.propagate
    real_triangles = solver_mod.separate_triangles

    def solve(self, lb=None, ub=None):
        events.append("solve")
        return real_solve(self, lb, ub)

    def propagate(g, state, bound, inc, lb, ub, fixed, integral=False):
        new_fixed, dead = real_propagate(g, state, bound, inc, lb, ub, fixed, integral)
        events.append("fix" if len(new_fixed) > len(fixed) else "propagate")
        return new_fixed, dead

    def separate_triangles(x, *tables):
        events.append("separate")
        return real_triangles(x, *tables)

    monkeypatch.setattr(solver_mod.LpEngine, "solve", solve)
    monkeypatch.setattr(solver_mod, "propagate", propagate)
    monkeypatch.setattr(solver_mod, "separate_triangles", separate_triangles)
    rng = random.Random(7)
    edges = [(u, v, rng.choice((-3, -2, -1, 1, 2, 3))) for u, v, _ in torus_edges(rng, 6)]
    report = solve_maxcut(raw_from_edges(36, edges), Config(enum_threshold=0, presolve=False))
    assert report.status == "optimal"
    assert "fix" in events
    for i, event in enumerate(events):
        if event in ("fix", "propagate"):
            assert events[i - 1] == "solve" and events[i + 1] == "separate", i


# the max-cut values of tests/oracles.torus_edges(random.Random(seed), 6)
# with its +-1 weights, as HiGHS finds them
TORUS6_OPTIMUM = {8: 22, 9: 14, 10: 26, 14: 28, 26: 16, 28: 18, 37: 20}


def _scaled_torus6(seed, scale):
    return raw_from_edges(36, [(u, v, w * scale)
                               for u, v, w in torus_edges(random.Random(seed), 6)])


def test_heavy_weights_branch_and_reach_the_scaled_optimum():
    """Above a branching score of 16, a tie window of absolute 1e-15 held no
    score, not even the largest, and branching raised IndexError."""
    runs = [(s, 64, Config(enum_threshold=0)) for s in (8, 9, 10, 26, 28)]
    runs += [(s, 1e5, cfg) for s in (8, 9, 10, 26) for cfg in (Config(), Config(enum_threshold=0))]
    for seed, scale, cfg in runs:
        report = solve_maxcut(_scaled_torus6(seed, scale), cfg)
        assert report.status == "optimal"
        assert report.best_value == TORUS6_OPTIMUM[seed] * scale, (seed, scale, cfg)


def test_integer_weights_round_bounds_to_their_common_divisor():
    """Integer weights round LP bounds down to a multiple of their greatest
    common divisor: flooring them to integers only, a torus with every
    weight doubled took 35 nodes where the +-1 torus took 1."""
    for seed in (8, 9, 10, 26):
        nodes = solve_maxcut(_scaled_torus6(seed, 1), Config()).bnb_nodes
        for scale in (2, 8, 64):
            report = solve_maxcut(_scaled_torus6(seed, scale), Config())
            assert report.status == "optimal"
            assert report.best_value == TORUS6_OPTIMUM[seed] * scale
            assert report.bnb_nodes == nodes, (seed, scale)


def test_tiny_weights_reach_the_scaled_optimum():
    """The tolerances are in weight units: with every |w| far below 1 they
    pruned the optimum (or, at 1e-13, the graph lost every edge), and each
    run still reported optimal. The QUBO path and solve_graph are covered."""
    for seed, scale in ((14, 1e-9), (14, 1e-10), (14, 1e-11), (14, 1e-13),
                        (37, 1e-10), (37, 1e-13)):
        want = TORUS6_OPTIMUM[seed] * scale
        raw = _scaled_torus6(seed, scale)
        report = solve_maxcut(raw, Config())
        assert report.status == "optimal"
        assert report.best_value == pytest.approx(want, rel=1e-9), (seed, scale)
        sol, dual, status, _ = solve_graph(build_graph(raw), Config())
        assert status == "optimal"
        assert sol.weight == pytest.approx(want, rel=1e-9)
        assert dual == pytest.approx(want, rel=1e-9)
    rng = random.Random(61)
    entries = [(i, j, rng.choice((-3, -1, 2, 5))) for i in range(1, 11)
               for j in range(i, 11) if rng.random() < 0.5]
    best, _ = brute_force_qubo(10, entries)
    report = solve_qubo(RawQuboInstance(10, [(i, j, q * 1e-13) for i, j, q in entries]))
    assert report.status == "optimal"
    assert report.best_value == pytest.approx(best * 1e-13, rel=1e-9)


def test_fractional_weights_are_handled():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(4, 8)
        edges = random_graph(rng, n, 0.6, integral=False)
        if not edges:
            continue
        raw = raw_from_edges(n, edges)
        best, _ = brute_force_maxcut(n, edges)
        report = solve_maxcut(raw, Config(enum_threshold=0))
        assert report.best_value == pytest.approx(best)


def test_disconnected_and_articulated_instances():
    # two triangles joined at a vertex plus a separate positive edge
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0),
             (5, 6, 4.0)]
    raw = raw_from_edges(7, edges)
    best, _ = brute_force_maxcut(7, edges)
    for cfg in (Config(), Config(enum_threshold=0)):
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
        report = solve_maxcut(raw, Config(enum_threshold=0, presolve=False))
        assert report.best_value == pytest.approx(best)


def test_node_limit_status_and_exitable_gap():
    rng = random.Random(55)
    edges = random_graph(rng, 20, 0.5)
    raw = raw_from_edges(20, edges)
    report = solve_maxcut(
        raw, Config(enum_threshold=0, node_limit=1)
    )
    assert report.status in ("optimal", "node_limit")
    if report.status == "node_limit":
        assert report.primal_dual_gap_percent >= 0.0


def test_node_limit_of_one_solves_the_root():
    """The node that fills the budget still runs its cutting-plane loop."""
    g = WeightedGraph(14, random_graph(random.Random(15), 14, 0.5))
    cfg = Config(node_limit=1, enum_threshold=0)
    solver = ComponentSolver(g, cfg, None, node_budget=1)
    sol, dual, status = solver.solve()
    assert status == "node_limit"
    assert solver.stats.nodes == 1
    assert solver.stats.lp_solves >= 1
    assert sol.weight <= dual < solver_mod._trivial_bound(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_node_limit_counts_the_nodes_of_every_component(seed):
    """Components share one node budget: with one node for three disjoint
    tori, the second and third stop at their roots with no node run."""
    rng = random.Random(seed)
    edges = [(u + 36 * c, v + 36 * c, w)
             for c in range(3) for u, v, w in torus_edges(rng, 6)]
    raw = raw_from_edges(108, edges)
    report = solve_maxcut(raw, Config(node_limit=1, enum_threshold=0))
    assert report.bnb_nodes == 1
    assert report.status == "node_limit"
    best = solve_maxcut(raw).best_value
    dual = report.best_value + report.primal_dual_gap_percent / 100.0 * max(
        1.0, abs(report.best_value))
    assert report.best_value <= best <= dual + 1e-9


def test_time_limit_is_respected():
    rng = random.Random(56)
    edges = random_graph(rng, 40, 0.5)
    raw = raw_from_edges(40, edges)
    report = solve_maxcut(raw, Config(enum_threshold=0, time_limit_s=0.05))
    assert report.status in ("optimal", "time_limit")
    assert report.wall_time_s < 20.0


def test_heuristic_restarts_stop_at_the_time_limit(monkeypatch):
    """Past the deadline the burer_rank2 call at the root of a component
    solve runs its first restart only."""
    local_calls, rank2_calls = [], []
    real_local, real_rank2 = heuristics._local_minimize, solver_mod.burer_rank2

    def local(g, theta, deadline=None):
        local_calls.append(g.n)
        return real_local(g, theta, deadline)

    def rank2(g, *args, **kwargs):
        rank2_calls.append(g.n)
        return real_rank2(g, *args, **kwargs)

    monkeypatch.setattr(heuristics, "_local_minimize", local)
    monkeypatch.setattr(solver_mod, "burer_rank2", rank2)
    rng = random.Random(58)
    g = WeightedGraph(12, random_graph(rng, 12, 0.5))
    _, _, status = ComponentSolver(g, Config(), time.monotonic() - 1.0).solve()
    assert status == "time_limit"
    assert local_calls == rank2_calls == [12]


def test_components_reached_after_the_deadline_run_no_lp(monkeypatch):
    """A component too large to enumerate that is reached after the deadline
    runs one rank-2 restart of one descent, keeps the trivial bound and
    solves no LP."""
    local_calls, rank2_calls = [], []
    real_local, real_rank2 = heuristics._local_minimize, solver_mod.burer_rank2

    def local(g, theta, deadline=None):
        local_calls.append(g.n)
        return real_local(g, theta, deadline)

    def rank2(g, *args, **kwargs):
        rank2_calls.append(g.n)
        return real_rank2(g, *args, **kwargs)

    def lp_solve(self, lb=None, ub=None):
        raise AssertionError("LP solve after the deadline")

    monkeypatch.setattr(heuristics, "_local_minimize", local)
    monkeypatch.setattr(solver_mod, "burer_rank2", rank2)
    monkeypatch.setattr(solver_mod.LpEngine, "solve", lp_solve)
    rng = random.Random(58)
    blocks = [random_graph(rng, 12, 0.5) for _ in range(3)]
    blocks.append([(0, 1, 3.0), (1, 2, -1.0), (0, 2, 2.0)])  # presolve removes it
    edges = [(u + 12 * c, v + 12 * c, w)
             for c, block in enumerate(blocks) for u, v, w in block]
    report = solve_maxcut(raw_from_edges(48, edges),
                          Config(time_limit_s=1e-9, enum_threshold=10))
    assert report.status == "time_limit"
    # one call per branch-and-cut component; presolve leaves 12, 11 and 11 vertices
    assert local_calls == rank2_calls == [12, 11, 11]
    best = sum(brute_force_maxcut(12, block)[0] for block in blocks)
    trivial = sum(w for block in blocks for _, _, w in block if w > 0)
    dual = report.best_value + report.primal_dual_gap_percent / 100.0 * max(
        1.0, abs(report.best_value))
    assert report.best_value <= best <= dual + 1e-9
    assert dual <= trivial + 1e-9


def test_small_components_reached_after_the_deadline_are_enumerated(monkeypatch):
    """A component at or below ``enum_threshold`` after presolve is still
    enumerated when it is reached after the deadline: it comes back optimal
    and runs no LP."""
    enumerated, rank2_calls = [], []
    real_enum, real_rank2 = solver_mod.enumerate_component, solver_mod.burer_rank2

    def enumerate_and_record(g, *args):
        sol, value = real_enum(g, *args)
        enumerated.append((g, sol, value))
        return sol, value

    def rank2(g, *args, **kwargs):
        rank2_calls.append(g.n)
        return real_rank2(g, *args, **kwargs)

    def lp_solve(self, lb=None, ub=None):
        raise AssertionError("LP solve after the deadline")

    monkeypatch.setattr(solver_mod, "enumerate_component", enumerate_and_record)
    monkeypatch.setattr(solver_mod, "burer_rank2", rank2)
    monkeypatch.setattr(solver_mod.LpEngine, "solve", lp_solve)
    large = random_graph(random.Random(58), 12, 0.5)
    small = random_graph(random.Random(2), 7, 0.7)
    edges = large + [(u + 12, v + 12, w) for u, v, w in small]
    report = solve_maxcut(raw_from_edges(19, edges),
                          Config(time_limit_s=1e-9, enum_threshold=10))
    assert report.status == "time_limit"
    # presolve merges no vertex of either block: 12 vertices go to
    # branch-and-cut, all 7 of the small block to enumeration
    assert rank2_calls == [12]
    assert [g.n for g, _, _ in enumerated] == [7]
    sub, sol, value = enumerated[0]
    assert sol.weight == value == brute_force_maxcut(7, small)[0]
    assert value == brute_force_maxcut(sub.n, sub.edge_list())[0]


def test_the_deadline_stops_an_enumeration_between_blocks():
    """A 36-vertex torus enumerated under a 0.2 s limit scores 2^21 blocks
    of bipartitions unless the deadline stops it: it comes back soon, at
    time_limit with a finite gap, and its value and dual enclose the
    optimum."""
    raw = raw_from_edges(36, torus_edges(random.Random(8), 6))
    best = solve_maxcut(raw)
    assert best.status == "optimal"
    start = time.monotonic()
    report = solve_maxcut(raw, Config(enum_threshold=36, presolve=False,
                                      time_limit_s=0.2))
    assert time.monotonic() - start < 5.0
    assert report.status == "time_limit"
    gap = report.primal_dual_gap_percent
    assert math.isfinite(gap)
    dual = report.best_value + gap / 100.0 * max(1.0, abs(report.best_value))
    assert report.best_value <= best.best_value <= dual + 1e-9


def test_weights_that_are_not_finite_are_rejected():
    for w in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            solve_maxcut(RawMaxCutInstance(3, [(1, 2, w), (2, 3, 1.0), (1, 3, 1.0)]))
        with pytest.raises(ValueError, match="not finite"):
            solve_qubo(RawQuboInstance(2, [(1, 1, 1.0), (1, 2, w)]))


@pytest.mark.parametrize("solve, raw, message", [
    (solve_maxcut, RawMaxCutInstance(2, [(1, 2, math.inf)]), "edge (1, 2) weight is not finite"),
    (solve_maxcut, RawMaxCutInstance(2, [(0, 1, 1.0)]), "vertex id out of range in edge (0, 1)"),
    (solve_maxcut, RawMaxCutInstance(2, [(1, 3, 1.0)]), "vertex id out of range in edge (1, 3)"),
    (solve_maxcut, RawMaxCutInstance(2, [(2, 2, 1.0)]), "self-loop at vertex 2"),
    (solve_maxcut, RawMaxCutInstance(3, [(2, 3, 1.0), (3, 2, 1.0)]), "parallel edge (2, 3)"),
    (solve_maxcut, RawMaxCutInstance(3, [(1, 2, 1e308), (2, 3, 1e308), (1, 3, 1e308)]),
     "total |weight| of the edges exceeds 1e+300"),
    (solve_qubo, RawQuboInstance(2, [(1, 1, 1.0), (1, 2, math.nan)]),
     "entry (1, 2) weight is not finite"),
    (solve_qubo, RawQuboInstance(2, [(1, 3, 1.0)]), "index out of range in entry (1, 3)"),
    (solve_qubo, RawQuboInstance(2, [(0, 2, 1.0)]), "index out of range in entry (0, 2)"),
    (solve_qubo, RawQuboInstance(1, [(1, 1, 1e308), (1, 1, 1e308)]),
     "total |weight| of the entries exceeds 1e+300"),
])
def test_library_errors_name_the_users_ids(solve, raw, message):
    """An instance built in code is checked as a parse would check it, by its
    own 1-based ids: an edge, or a QUBO entry, not its max-cut image's edge."""
    with pytest.raises(ValueError) as err:
        solve(raw)
    assert str(err.value) == message


def test_a_graph_whose_total_weight_overflows_is_refused():
    """Three 1e308 edges, whose total passes the largest double, are refused
    as the graph is built, where ``solve_graph`` reported ``optimal`` 0.0
    (inf without presolve and enumeration). A QUBO within the parser's
    bound, all of it off the diagonal, still solves, though its max-cut
    image weighs 1.485 times as much."""
    with pytest.raises(ValueError, match=r"total \|weight\| inf exceeds 1.5e\+300"):
        WeightedGraph(3, [(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)])
    with pytest.raises(ValueError, match="exceeds"):
        WeightedGraph(3, [(0, 1, MAX_TOTAL_WEIGHT), (1, 2, MAX_TOTAL_WEIGHT)])
    report = solve_qubo(RawQuboInstance(2, [(1, 2, 0.99 * MAX_TOTAL_WEIGHT)]))
    assert report.status == "optimal" and report.best_value == 0.0


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
        report = solve_qubo(raw, Config())
        assert report.status == "optimal"
        assert report.best_value == pytest.approx(best)
        assert raw.objective(report.partition) == pytest.approx(best)


def test_racing_matches_single_threaded_value():
    rng = random.Random(58)
    for _ in range(5):
        n = 12
        edges = random_graph(rng, n, 0.4)
        raw = raw_from_edges(n, edges)
        single = solve_maxcut(raw, Config(enum_threshold=0))
        raced = racing_solve(raw, Config(enum_threshold=0),
                             workers=3)
        assert raced.status == "optimal"
        assert raced.best_value == pytest.approx(single.best_value)


def _answer(report):
    return (report.status, report.best_value, report.bnb_nodes, report.partition)


def test_racing_and_threads_give_the_plain_answer():
    rng = random.Random(60)
    cases = [(raw_from_edges(64, torus_edges(rng, 8)), Config()) for _ in range(3)]
    # needs three nodes in the plain solve, so a one-node limit must stop it
    node_cfg = Config(node_limit=1, enum_threshold=0)
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
        g, Config(), time.monotonic() - 1.0).solve()
    assert status == "time_limit"
    assert sol.weight <= dual <= float(np.clip(g.edge_w, 0.0, None).sum())


def test_incumbent_injection_cannot_increase_nodes():
    rng = random.Random(59)
    edges = random_graph(rng, 16, 0.5)
    g = WeightedGraph(16, edges)
    best, y = brute_force_maxcut(16, edges)
    cfg = Config(enum_threshold=0, heuristics=False)

    cold = ComponentSolver(g, cfg, None)
    sol_cold, _, st_cold = cold.solve()

    warm = ComponentSolver(g, cfg, None)
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
            raw, Config(enum_threshold=0, node_limit=1)
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


@pytest.mark.parametrize("seed", [26, 68])
def test_gap_exit_keeps_the_best_open_bound_as_the_dual(seed):
    """A gap stop returns the best open node's bound, not the incumbent: with
    rank-2 off, the incumbent starts from Kernighan-Lin below the optimum."""
    g = WeightedGraph(36, torus_edges(random.Random(seed), 6))

    def solve(gap):
        cfg = Config(enum_threshold=0, heuristics=False, gap_percent=gap)
        zero = CutSolution.from_assignment(g, np.zeros(g.n, dtype=np.int8))
        return ComponentSolver(g, cfg, None).solve(initial=kernighan_lin(g, zero))

    sol, optimum, status = solve(0)
    assert status == "optimal" and sol.weight == optimum
    for gap in (10, 25, 50):
        sol, dual, status = solve(gap)
        assert status in ("optimal", "gap_limit"), gap
        assert sol.weight <= optimum <= dual, gap


def test_gap_limit_reports_the_gap_to_the_open_bound():
    """Weights up to 100 leave room for a bound within 2 % of the incumbent
    before the proof: the K16 stops at the open bound of its children."""
    raw = raw_from_edges(16, random_graph(random.Random(1), 16, 1.0, -100, 100))
    report = solve_maxcut(raw, Config(gap_percent=2))
    assert report.status == "gap_limit"
    assert 0 < report.primal_dual_gap_percent <= 2


def test_a_heuristic_cut_at_the_trivial_bound_processes_no_node():
    """The root enters the heap at the trivial bound, which an even ring's
    heuristic cut meets, so no LP is solved."""
    ring = [(v, v + 1, 1.0) for v in range(19)] + [(0, 19, 1.0)]
    report = solve_maxcut(raw_from_edges(20, ring), Config(enum_threshold=0, presolve=False))
    assert (report.status, report.best_value, report.bnb_nodes) == ("optimal", 20.0, 0)


def test_root_stopped_after_its_lp_keeps_the_lp_bound(monkeypatch):
    """A time-out inside the root re-queues it at its last effective LP
    bound, not at the parent's bound +inf (clamped to the trivial bound)."""
    g = WeightedGraph(64, torus_edges(random.Random(62), 8))
    solver = ComponentSolver(g, Config(), time.monotonic() + 600.0)
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


def test_deadline_stops_exact_separation_between_sources(monkeypatch):
    """A clock that expires as exact separation starts makes it raise TimeUp
    before its first search. The root's first LP point (no cuts yet on a
    triangle-free torus) is integral but no cut, so reading a cut-short empty
    list as "no violated cut" would prune it; the root is re-queued instead,
    as on any time-out."""
    raw = raw_from_edges(196, torus_edges(random.Random(62), 14))
    real_clock = time.monotonic
    offset = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: real_clock() + offset[0])
    real_aux = separation.build_aux_graph
    searches = [0]
    real_twin_walk = separation.twin_walk

    def build_aux_graph(g, x):  # called once per exact separation
        offset[0] = 1e6
        return real_aux(g, x)

    def twin_walk(aux, source):
        searches[0] += 1
        return real_twin_walk(aux, source)

    outcomes = []  # (x integral, the returned cuts or "TimeUp") per call
    real_separate = solver_mod.separate_exact

    def separate_exact(g, x, deadline=None):
        integral = np.all(np.minimum(x, 1.0 - x) < 1e-6)
        try:
            cuts = real_separate(g, x, deadline)
        except TimeUp:
            outcomes.append((integral, "TimeUp"))
            raise
        outcomes.append((integral, cuts))
        return cuts

    monkeypatch.setattr(separation, "build_aux_graph", build_aux_graph)
    monkeypatch.setattr(separation, "twin_walk", twin_walk)
    monkeypatch.setattr(solver_mod, "separate_exact", separate_exact)
    report = solve_maxcut(raw, Config(time_limit_s=600.0))
    assert outcomes == [(True, "TimeUp")] and searches[0] == 0
    assert report.status == "time_limit"
    assert math.isfinite(report.primal_dual_gap_percent)
    assert report.bnb_nodes == 1


def test_deadline_stops_the_simplex_mid_solve(monkeypatch):
    """A clock that expires during a long solve makes the simplex raise
    TimeUp within DEADLINE_EVERY pivots; the root is re-queued as on any
    time-out."""
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

    outcomes = []  # the state or "TimeUp" per solve
    real_solve = solver_mod.LpEngine.solve

    def solve(self, lb=None, ub=None):
        try:
            outcomes.append(real_solve(self, lb, ub))
        except TimeUp:
            outcomes.append("TimeUp")
            raise
        return outcomes[-1]

    monkeypatch.setattr(_BoundedSimplex, "_ratio_test", ratio_test)
    monkeypatch.setattr(solver_mod.LpEngine, "solve", solve)
    report = solve_maxcut(raw, Config(time_limit_s=600.0))
    assert outcomes[-1] == "TimeUp"
    assert all(isinstance(s, LpState) for s in outcomes[:-1])
    assert expire_at < pivots[0] <= expire_at + _BoundedSimplex.DEADLINE_EVERY
    assert report.status == "time_limit"
    assert math.isfinite(report.primal_dual_gap_percent)


@pytest.mark.parametrize("heuristics", [True, False])
def test_a_deadline_at_any_clock_read_keeps_the_answer_sound(monkeypatch, heuristics):
    """The clock jumps past the deadline at its k-th read, for every read k of
    a solve that branches (3 nodes on a +-1 K14) and runs exact separation.
    Wherever the time-out lands (heuristics, an LP solve, separation, between
    rounds or nodes), the run ends at time_limit or optimal with a finite gap,
    and value <= optimum <= dual, the optimum coming from enumeration.
    Without heuristics the first incumbent is not optimal, so a node wrongly
    pruned at its time-out shows as a wrong optimal value."""
    edges = complete_edges(random.Random(19), 14)
    raw = raw_from_edges(14, edges)
    _, best = enumerate_component(WeightedGraph(14, edges))
    cfg = Config(enum_threshold=0, time_limit_s=600.0, heuristics=heuristics)
    real_clock = time.monotonic
    reads = [0]
    jump_at = [math.inf]

    def clock():
        reads[0] += 1
        return real_clock() + (1e6 if reads[0] >= jump_at[0] else 0.0)

    monkeypatch.setattr(time, "monotonic", clock)
    # no LP here runs DEADLINE_EVERY pivots: look at the clock every pivot
    monkeypatch.setattr(_BoundedSimplex, "DEADLINE_EVERY", 1)
    plain = solve_maxcut(raw, cfg)
    assert plain.status == "optimal" and plain.bnb_nodes >= 3
    total = reads[0]
    assert total >= 40
    statuses = set()
    for k in range(1, total + 1):
        reads[0], jump_at[0] = 0, k
        report = solve_maxcut(raw, cfg)
        statuses.add(report.status)
        assert report.status in ("time_limit", "optimal"), k
        gap = report.primal_dual_gap_percent
        assert math.isfinite(gap), k
        dual = report.best_value + gap / 100.0 * max(1.0, abs(report.best_value))
        assert report.best_value <= best + 1e-9 and best <= dual + 1e-9, k
    assert statuses == {"time_limit", "optimal"}


@pytest.mark.parametrize("name", ["time_limit_s", "gap_percent", "node_limit", "enum_threshold",
                                  "seed", "threads"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -5.0])
def test_config_rejects_limits_that_are_negative_or_not_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        Config(**{name: value})


def test_every_numeric_config_field_is_validated():
    """A numeric option added later cannot skip the check in __post_init__."""
    # solver.py postpones annotations, so each type is a string
    numeric = [f for f in fields(Config) if f.type in ("int", "float")]
    assert {f.name for f in numeric} >= {"time_limit_s", "threads", "seed"}
    for f in numeric:
        values = (-1, math.nan, math.inf) if f.type == "float" else (-1, 1.5)
        for value in values:
            with pytest.raises(ValueError):
                Config(**{f.name: value})
        Config(**{f.name: np.int64(2)})  # a numpy integer is an integer


@pytest.mark.parametrize("name", ["time_limit_s", "gap_percent", "node_limit", "enum_threshold"])
def test_config_zero_means_no_limit(name):
    """0 is no limit: a 10 x 10 torus is still solved to optimality."""
    raw = raw_from_edges(100, torus_edges(random.Random(7), 10))
    report = solve_maxcut(raw, Config(**{name: 0}))
    assert report.status == "optimal"
    assert report.best_value == 66.0
