import random
import re

import numpy as np
import pytest

from sparsecut.graph import (
    Adjacency,
    ReductionTrace,
    WeightedGraph,
    biconnected_components,
    build_graph,
    cut_weight,
    induce_subgraph,
)
from sparsecut.instances import RawMaxCutInstance

from oracles import brute_force_maxcut, random_graph


def make(n, edges):
    return WeightedGraph(n, edges)


def test_csr_adjacency_is_sorted_and_complete():
    g = make(4, [(0, 1, 1.0), (0, 3, 2.0), (1, 2, -1.0), (0, 2, 0.5)])
    assert len(g.arcs[0]) == 3
    assert [w for w, _, _ in g.arcs[0]] == [1, 2, 3]
    assert [w for w, _, _ in g.arcs[1]] == [0, 2]
    assert g.find_edge(2, 1) == g.find_edge(1, 2)
    assert g.find_edge(1, 3) is None


def test_csr_matches_a_per_vertex_scan_of_the_edge_list():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 12)
        edges = random_graph(rng, n, 0.4, integral=False)
        rng.shuffle(edges)
        g = make(n, [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in edges])
        for v in range(n):
            expected = sorted(
                (b if a == v else a, e, w) for e, (a, b, w) in enumerate(g.edge_list()) if v in (a, b)
            )
            assert g.degrees[v] == len(expected)
            assert g.arcs[v] == expected
        ids = {(a, b): e for e, (a, b, _) in enumerate(g.edge_list())}
        for a in range(-1, n + 1):
            for b in range(-1, n + 1):
                assert g.find_edge(a, b) == ids.get((min(a, b), max(a, b)))


def test_rejects_self_loops_and_parallel_edges():
    cases = [
        ([(1, 1, 1.0)], "self-loop at vertex 1"),
        ([(0, 1, 1.0), (1, 0, 2.0)], "parallel edge (0, 1)"),
        ([(0, 1, 1.0), (0, 1, 2.0)], "parallel edge (0, 1)"),
        ([(0, 1, 1.0), (-1, 1, 2.0)], "out of range in edge (-1, 1)"),
        ([(0, 1, 1.0), (2, 1, 2.0)], "out of range in edge (1, 2)"),
    ]
    for edges, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            make(2, edges)


def test_build_graph_drops_zero_weight_edges():
    raw = RawMaxCutInstance(3, [(1, 2, 0.0), (2, 3, 1.0)])
    g = build_graph(raw)
    assert g.m == 1
    assert g.edge_endpoints(0) == (1, 2)


def test_cut_weight_matches_direct_sum():
    g = make(3, [(0, 1, 2.0), (1, 2, -3.0), (0, 2, 1.0)])
    assert cut_weight(g, [0, 1, 0]) == 2.0 - 3.0
    assert cut_weight(g, [0, 0, 0]) == 0.0


def test_same_side_contraction_merges_parallel_edges():
    g = make(3, [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 3.0)])
    trace = ReductionTrace()
    adj = Adjacency(g)
    adj.merge(0, 1, opposite=False, trace=trace)
    g2 = adj.to_graph()
    # vertex 1 absorbed into 0; its edge to 2 merges with (0, 2)
    assert g2.arcs[1] == []
    assert g2.edge_list() == [(0, 2, 4.0)]
    assert trace.offset == 0.0


def test_opposite_side_contraction_negates_and_offsets():
    # path 0 -5- 1 -2- 2; contract the 5-edge to opposite sides
    g = make(3, [(0, 1, 5.0), (1, 2, 2.0)])
    trace = ReductionTrace()
    adj = Adjacency(g)
    adj.merge(0, 1, opposite=True, trace=trace)
    g2 = adj.to_graph()
    assert g2.edge_list() == [(0, 2, -2.0)]
    assert trace.offset == 7.0
    # reduced optimum 0 (edge negative, keep uncut) + offset 7 = original optimum
    best, _ = brute_force_maxcut(3, [(0, 1, 5.0), (1, 2, 2.0)])
    assert best == 7.0
    y = trace.replay([0, 0, 0])
    assert cut_weight(g, y) == 7.0


def test_trace_replay_composes_across_contractions():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(3, 7)
        edges = random_graph(rng, n, 0.7)
        if not edges:
            continue
        g = make(n, edges)
        trace = ReductionTrace()
        adj = Adjacency(g)
        # contract a few random edges into their lower endpoint, each to the
        # same side or to opposite sides at random
        for _ in range(rng.randint(1, n - 2)):
            h = adj.to_graph()
            if h.m == 0:
                break
            keep, gone = h.edge_endpoints(rng.randrange(h.m))
            adj.merge(keep, gone, rng.choice([False, True]), trace)
        h = adj.to_graph()
        # the binding invariant: cut on the original = cut on the reduced + offset
        for _ in range(5):
            y_red = [rng.randint(0, 1) for _ in range(n)]
            y_full = trace.replay(y_red)
            assert cut_weight(g, y_full) == pytest.approx(
                cut_weight(h, y_red) + trace.offset
            )


def test_merge_vertices_cancels_opposite_parallel_edges():
    g = make(3, [(0, 2, 1.0), (1, 2, 1.0)])
    trace = ReductionTrace()
    adj = Adjacency(g)
    adj.merge(0, 1, opposite=True, trace=trace)
    g2 = adj.to_graph()
    # (1,2,1) negates to (0,2,-1) and cancels (0,2,1)
    assert g2.m == 0
    assert trace.offset == 1.0


def test_biconnected_components_two_triangles_sharing_a_vertex():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (2, 3, 1.0), (3, 4, 1.0), (2, 4, 1.0)]
    g = make(5, edges)
    comps, art = biconnected_components(g)
    assert sorted(len(c) for c in comps) == [3, 3]
    assert art == [2]
    assert sorted(e for c in comps for e in c) == list(range(6))


def test_biconnected_components_bridges_are_singletons():
    g = make(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    comps, art = biconnected_components(g)
    assert sorted(len(c) for c in comps) == [1, 1, 1]
    assert art == [1, 2]


def test_biconnected_single_cycle_is_one_component():
    g = make(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    comps, art = biconnected_components(g)
    assert len(comps) == 1 and art == []


def test_biconnected_matches_partition_property_randomly():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(4, 10)
        edges = random_graph(rng, n, 0.35)
        g = make(n, edges)
        comps, _ = biconnected_components(g)
        # every edge appears in exactly one component
        seen = sorted(e for c in comps for e in c)
        assert seen == list(range(g.m))


def test_reversed_blocks_share_at_most_one_placed_vertex():
    """Taken in reverse emission order, every block meets the blocks before it
    in at most one vertex, the order in which the solver stitches them."""
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randint(2, 30)
        g = make(n, random_graph(rng, n, rng.uniform(0.05, 0.4)))
        comps, _ = biconnected_components(g)
        placed = set()
        for comp in reversed(comps):
            verts = {int(g.edge_u[e]) for e in comp} | {int(g.edge_v[e]) for e in comp}
            assert len(verts & placed) <= 1
            placed |= verts


def test_induce_subgraph_keeps_weights_and_maps_vertices():
    g = make(5, [(0, 2, 1.5), (2, 4, -2.0), (0, 4, 3.0)])
    sub, verts = induce_subgraph(g, [0, 2])
    assert verts == [0, 2, 4]
    assert sub.edge_list() == [(0, 1, 1.5), (1, 2, -2.0)]

    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 14)
        g = make(n, random_graph(rng, n, 0.4, integral=False))
        if g.m == 0:
            continue
        ids = rng.sample(range(g.m), rng.randint(1, g.m))
        expected_verts = sorted({v for e in ids for v in g.edge_endpoints(e)})
        local = {v: i for i, v in enumerate(expected_verts)}
        expected_edges = []
        for e in ids:
            a, b = g.edge_endpoints(e)
            expected_edges.append((local[a], local[b], float(g.edge_w[e])))
        sub, verts = induce_subgraph(g, ids)
        assert verts == expected_verts
        assert sub.n == len(verts)
        assert sub.edge_list() == sorted(expected_edges)
