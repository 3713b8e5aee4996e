import random

import numpy as np
import pytest

import sparsecut.graph
import sparsecut.presolve as presolve
from sparsecut.graph import ReductionTrace, WeightedGraph, build_graph, cut_weight
from sparsecut.instances import RawMaxCutInstance, RawQuboInstance
from sparsecut.presolve import (
    _screen,
    presolve_loop,
    rule_dominating_edge,
    rule_symmetry_merge,
    rule_triangle_one,
    rule_triangle_zero,
)

from sparsecut.separation import TRIANGLE_BUDGET, cycle_tables
from sparsecut.transform import maxcut_to_qubo, qubo_to_maxcut

from oracles import (
    brute_force_maxcut,
    exhaustive_maxcut,
    random_graph,
    reference_presolve_loop,
)


def solve_by_presolve(n, edges):
    """Presolve to a fixed point; returns (reduced graph, trace)."""
    g = WeightedGraph(n, edges)
    reduced, trace, _ = presolve_loop(g)
    return reduced, trace


def test_dominating_edge_fires_on_heavy_positive_edge():
    # |5| > |1| + |1| at vertex 0: the 5-edge is cut in every optimal solution
    g = WeightedGraph(3, [(0, 1, 5.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert (0, 1, 1) in rule_dominating_edge(g)


def test_dominating_edge_fixes_negative_edge_to_zero():
    g = WeightedGraph(3, [(0, 1, -5.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert (0, 1, 0) in rule_dominating_edge(g)


def test_dominating_edge_requires_strict_inequality():
    # all-ones triangle: 1 is not strictly greater than 1 + 1 - 1
    g = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert rule_dominating_edge(g) == []


def test_triangle_one_fixture_two_one_minus_one():
    # isolated triangle (2, 1, -1): optimum 3 isolates the apex; the 2-edge
    # is fixed to cut and presolve alone solves the instance
    edges = [(0, 1, 2.0), (0, 2, 1.0), (1, 2, -1.0)]
    g = WeightedGraph(3, edges)
    cands = rule_triangle_one(g)
    assert any(c[:2] == (0, 1) for c in cands)
    reduced, trace = solve_by_presolve(3, edges)
    assert reduced.m == 0
    assert trace.offset == 3.0
    best, _ = brute_force_maxcut(3, edges)
    assert best == 3.0


def test_triangle_one_fixture_one_one_minus_five():
    # (1, 1, -5): both conditions hold with room to spare
    g = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, -5.0)])
    assert rule_triangle_one(g)


def test_triangle_one_requires_sign_pattern():
    g = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert rule_triangle_one(g) == []


def test_triangle_zero_negative_pair_fixture():
    # weights w(0,2)=-3, w(0,3)=-1, w(2,3)=3 on vertices {0,2,3}: the only
    # sound fixing is x(0,2)=0, and it keeps the optimum of 2
    edges = [(0, 2, -3.0), (0, 3, -1.0), (2, 3, 3.0)]
    g = WeightedGraph(4, edges)
    cands = rule_triangle_zero(g)
    assert [(v1, v2) for v1, v2, _ in cands] == [(0, 2)]
    reduced, trace = solve_by_presolve(4, edges)
    best, _ = brute_force_maxcut(4, edges)
    # fully reduced by triangle-zero + dominating-edge
    assert reduced.m == 0
    assert trace.offset == best == 2.0


def test_triangle_zero_does_not_fire_on_positive_triangle():
    # fixing any all-ones triangle edge to zero is harmless, but the
    # condition requires the fixed pair sums to be non-positive
    g = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert rule_triangle_zero(g) == []


def test_symmetry_merge_positive_alpha():
    # vertices 0 and 1 see {2, 3} with proportional positive weights
    edges = [(0, 2, 2.0), (0, 3, 4.0), (1, 2, 1.0), (1, 3, 2.0), (2, 3, 1.0)]
    g = WeightedGraph(4, edges)
    cands = rule_symmetry_merge(g)
    assert (0, 1, 1) in cands
    reduced, trace, _ = presolve_loop(g)
    # merged same side; solution replay must reproduce the brute-force optimum
    best, _ = brute_force_maxcut(4, edges)
    red_best, red_y = brute_force_maxcut(reduced.n, reduced.edge_list())
    assert red_best + trace.offset == pytest.approx(best)


def test_symmetry_merge_negative_alpha():
    edges = [(0, 2, 2.0), (0, 3, 4.0), (1, 2, -1.0), (1, 3, -2.0)]
    g = WeightedGraph(4, edges)
    assert (0, 1, -1) in rule_symmetry_merge(g)


def test_symmetry_merge_adjacent_pair_sign_condition():
    # alpha > 0 with a positive connecting edge is not allowed
    edges = [(0, 2, 1.0), (1, 2, 1.0), (0, 1, 1.0)]
    g = WeightedGraph(3, edges)
    assert all(c[:2] != (0, 1) for c in rule_symmetry_merge(g))
    # with a negative connecting edge the merge is sound
    edges = [(0, 2, 1.0), (1, 2, 1.0), (0, 1, -1.0)]
    g = WeightedGraph(3, edges)
    assert (0, 1, 1) in rule_symmetry_merge(g)


def test_presolve_revalidates_conflicting_candidates():
    # dominating-edge fixes (0,1) to 1 first; the stale triangle candidate on
    # the same edge must be dropped on revalidation, not applied
    edges = [(0, 1, 5.0), (0, 2, -3.0), (0, 3, -2.0), (1, 3, -1.0), (2, 3, 3.0)]
    reduced, trace = solve_by_presolve(4, edges)
    best, _ = brute_force_maxcut(4, edges)
    red_best, _ = brute_force_maxcut(reduced.n, reduced.edge_list())
    assert red_best + trace.offset == pytest.approx(best)
    assert best == 6.0


def test_presolve_safety_on_random_instances():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(3, 8)
        edges = random_graph(rng, n, 0.6)
        if not edges:
            continue
        g = WeightedGraph(n, edges)
        best, _ = brute_force_maxcut(n, edges)
        reduced, trace, stats = presolve_loop(g)
        red_best, red_y = brute_force_maxcut(reduced.n, reduced.edge_list())
        assert red_best + trace.offset == pytest.approx(best)
        # replaying a reduced optimum yields an original optimum
        y_full = trace.replay(red_y)
        assert cut_weight(g, y_full) == pytest.approx(best)


def test_presolve_stats_are_populated():
    edges = [(0, 1, 2.0), (0, 2, 1.0), (1, 2, -1.0)]
    _, _, stats = presolve_loop(WeightedGraph(3, edges))
    assert stats.rounds >= 1
    assert stats.vertices_merged >= 1
    assert stats.edges_contracted >= 1
    assert sum(stats.rule_hits.values()) == stats.vertices_merged
    assert stats.elapsed >= 0.0


def test_presolve_runs_to_its_fixpoint_on_a_field_torus_image():
    # QUBO with +-4 couplings on a 30 x 30 torus and a +-1 field: in the
    # max-cut image, dominating edges propagate one hop per round along
    # chains through the hub, so the fixpoint takes a dozen rounds
    L = 30
    rng = np.random.default_rng(1)
    pairs = [(v, nb) for v in range(L * L)
             for nb in (v - v % L + (v + 1) % L, (v + L) % (L * L))]
    entries = [(min(u, v) + 1, max(u, v) + 1, 4 * int(q))
               for (u, v), q in zip(pairs, rng.choice([-1, 1], size=len(pairs)))]
    entries += [(i + 1, i + 1, int(h))
                for i, h in enumerate(rng.choice([-1, 1], size=L * L))]
    image = qubo_to_maxcut(RawQuboInstance(L * L, entries))
    reduced, _, _ = presolve_loop(build_graph(image))
    assert rule_dominating_edge(reduced) == []
    assert rule_triangle_zero(reduced) == []
    assert rule_triangle_one(reduced) == []
    assert rule_symmetry_merge(reduced) == []


def _hub_image(rng, n):
    """Max-cut image of a QUBO with a field on every variable: the root,
    vertex 0, is adjacent to (almost) every other vertex."""
    edges = random_graph(rng, n, 0.4)
    qubo = maxcut_to_qubo(RawMaxCutInstance(n, [(u + 1, v + 1, w) for u, v, w in edges]))
    field = [(i, i, float(rng.choice([-2, -1, 1, 2]))) for i in range(1, n)]
    image = qubo_to_maxcut(RawQuboInstance(qubo.dimension, qubo.entries + field))
    return build_graph(image)


def test_presolve_reaches_a_rule_fixpoint():
    rng = random.Random(33)
    graphs = []
    for _ in range(40):
        n = rng.randint(3, 12)
        graphs.append(WeightedGraph(n, random_graph(rng, n, rng.uniform(0.3, 0.8))))
    for _ in range(20):
        # plant a twin of vertex 0 so that symmetry merges occur
        n = rng.randint(4, 11)
        edges = random_graph(rng, n, 0.6)
        alpha = rng.choice([1.0, -1.0, 2.0, -0.5])
        edges += [(v if u == 0 else u, n, alpha * w) for u, v, w in edges if 0 in (u, v)]
        if rng.random() < 0.5:
            edges.append((0, n, -0.5 * alpha))  # adjacent twins
        graphs.append(WeightedGraph(n + 1, edges))
    hubs = [_hub_image(rng, rng.randint(5, 14)) for _ in range(40)]
    assert sum(len(g.arcs[0]) >= g.n - 2 for g in hubs) >= 30
    merged = 0
    for g in graphs + hubs:
        reduced, trace, stats = presolve_loop(g)
        merged += stats.vertices_merged
        assert rule_dominating_edge(reduced) == []
        assert rule_triangle_zero(reduced) == []
        assert rule_triangle_one(reduced) == []
        assert rule_symmetry_merge(reduced) == []
        best, _ = exhaustive_maxcut(g.n, g.edge_list())
        red_best, red_y = exhaustive_maxcut(reduced.n, reduced.edge_list())
        assert red_best + trace.offset == pytest.approx(best)
        assert cut_weight(g, trace.replay(red_y)) == pytest.approx(best)
    assert merged >= len(graphs + hubs)


def test_presolve_builds_the_reduced_graph_once(monkeypatch):
    # a weighted path: every edge dominates at a leaf, so all 7 contract
    g = WeightedGraph(8, [(i, i + 1, float((-1) ** i * (i + 1))) for i in range(7)])
    built = []
    init = sparsecut.graph.WeightedGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sparsecut.graph.WeightedGraph, "__init__", counting_init)
    reduced, _, stats = presolve_loop(g)
    assert stats.vertices_merged == 7 and reduced.m == 0
    assert len(built) == 1


# -- the array screen ---------------------------------------------------------

def _block_tree(rng, n_target, lo=6, hi=16, weight=10, chord_p=0.6):
    """A block tree of at least ``n_target`` vertices, built like the
    benchmark's: each block is a Hamiltonian cycle plus random chords, and
    each block after the first shares one random earlier vertex."""
    n, edges = 0, {}
    while n < n_target:
        size = rng.randint(lo, hi)
        verts = list(range(size)) if n == 0 else [rng.randrange(n)] + list(range(n, n + size - 1))
        n = max(n, verts[-1] + 1)
        order = rng.sample(verts, size)
        pairs = set(zip(order, order[1:] + order[:1]))
        pairs |= {(p, q) for i, p in enumerate(verts) for q in verts[i + 1:] if rng.random() < chord_p}
        for p, q in pairs:
            edges[min(p, q), max(p, q)] = float(rng.randint(1, weight) * rng.choice((-1, 1)))
    return WeightedGraph(n, [(p, q, w) for (p, q), w in edges.items()])


def _near_threshold(rng, g):
    """``g`` with every weight moved by a relative 1e-10 ... 1e-7, either way.
    Integral weights tie many rules' tests exactly; moved, the ties land
    within the exact tolerance (relative 1e-9) or between it and the
    screen's."""
    return WeightedGraph(g.n, [(u, v, w * (1 + rng.choice((-1, 1)) * 10 ** rng.uniform(-10, -7)))
                               for u, v, w in g.edge_list()])


def _assert_presolve_matches_reference(g):
    reduced, trace, stats = presolve_loop(g)
    want, want_trace, want_stats = reference_presolve_loop(g)
    assert np.array_equal(reduced.edge_u, want.edge_u)
    assert np.array_equal(reduced.edge_v, want.edge_v)
    assert np.array_equal(reduced.edge_w, want.edge_w)
    assert trace.records == want_trace.records and trace.offset == want_trace.offset
    assert stats.rounds == want_stats.rounds
    assert stats.vertices_merged == want_stats.vertices_merged
    assert stats.rule_hits == want_stats.rule_hits
    return stats


def _screen_corpus(rng):
    """Random graphs, hub images and block trees, and the same graphs with
    their weights moved near the rules' thresholds."""
    graphs = []
    for _ in range(40):
        n = rng.randint(3, 14)
        graphs.append(WeightedGraph(n, random_graph(rng, n, rng.uniform(0.3, 0.9),
                                                    integral=rng.random() < 0.5)))
    graphs += [_hub_image(rng, rng.randint(5, 14)) for _ in range(20)]
    graphs += [_block_tree(rng, rng.randint(20, 120)) for _ in range(10)]
    return graphs, [_near_threshold(rng, g) for g in graphs if g.m]


def test_presolve_matches_the_unscreened_reference():
    graphs, moved = _screen_corpus(random.Random(34))
    merged = 0
    for g in graphs + moved:
        merged += _assert_presolve_matches_reference(g).vertices_merged
    assert merged > 300


def test_near_threshold_weights_fall_between_the_two_tolerances():
    # the moved ties exercise the gap between the tolerances: near the
    # threshold, some dominating-edge tests pass exactly and some pass only
    # the screen's looser test
    _, moved = _screen_corpus(random.Random(34))
    passed = screened_only = 0
    for g in moved:
        aw, sums = np.abs(g.edge_w), g.abs_degrees
        low = np.minimum(sums[g.edge_u], sums[g.edge_v])
        rest = low - aw
        near = np.abs(aw - rest) <= presolve.SCREEN_TOL * (1.0 + low)
        exact = aw > rest + presolve.REL_TOL * np.maximum(1.0, np.maximum(aw, np.abs(rest)))
        passed += int((near & exact).sum())
        screened_only += int((near & ~exact).sum())
    assert passed >= 5 and screened_only >= 5


def test_screen_flags_every_vertex_of_every_rule_site():
    graphs, moved = _screen_corpus(random.Random(35))
    sites = cleared = 0
    for g in graphs + moved:
        dom, tri = _screen(g)
        for u, v, _ in rule_dominating_edge(g):
            assert dom[u] and dom[v]
            sites += 1
        for site in rule_triangle_zero(g) + rule_triangle_one(g):
            assert all(tri[x] for x in site)
            sites += 1
        cleared += dom.count(False) + tri.count(False)
    assert sites > 200 and cleared > 200


def test_a_cut_triangle_table_flags_every_vertex(monkeypatch):
    rng = random.Random(36)
    # a dense block plus a path, whose vertices lie on no triangle
    edges = random_graph(rng, 12, 0.8) + [(11, 12, 3.0), (12, 13, -2.0)]
    g = WeightedGraph(14, edges)
    triangles = len(cycle_tables(g, TRIANGLE_BUDGET, 0)[0])
    assert triangles > 10
    monkeypatch.setattr(presolve, "TRIANGLE_BUDGET", triangles // 2)
    _, tri = _screen(g)
    assert all(tri)
    _assert_presolve_matches_reference(g)
    for g in _screen_corpus(rng)[0][:30]:
        monkeypatch.setattr(presolve, "TRIANGLE_BUDGET",
                            len(cycle_tables(g, TRIANGLE_BUDGET, 0)[0]) // 2)
        _assert_presolve_matches_reference(g)
