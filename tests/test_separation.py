import math
import random

import numpy as np
import pytest

from sparsecut.graph import WeightedGraph
from sparsecut.lp import CycleCut
from sparsecut.separation import (
    SEP_GATE,
    ClosedWalk,
    build_aux_graph,
    chordless_decompose,
    contract_zero_arcs,
    dijkstra_mod,
    extract_simple_cycles,
    separate_exact,
    separate_triangles,
)

from oracles import has_chord, most_violated_cycle_inequality, random_graph


def cycle_graph(n, x_val=0.9):
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    g = WeightedGraph(n, edges)
    x = np.full(g.m, x_val)
    return g, x


def test_aux_graph_omits_near_one_arcs():
    g, x = cycle_graph(3, 0.5)
    x[0] = 1.0 - 1e-9  # copy arcs for this edge are ~1 and must be skipped
    aux = build_aux_graph(g, x)
    eids_from_arcs = set(int(e) for e in aux.edge_ids)
    # edge 0 appears only through its crossing arcs
    assert 0 in eids_from_arcs
    for pos in range(aux.offsets[0], aux.offsets[0 + 1]):
        if int(aux.edge_ids[pos]) == 0:
            assert aux.weights[pos] < 0.5


def test_dijkstra_finds_twin_path_on_violated_cycle():
    # all-0.9 triangle: twin distance 3 * 0.1 = 0.3 < 1
    g, x = cycle_graph(3)
    aux = build_aux_graph(g, x)
    result = dijkstra_mod(aux, 0)
    assert result.hit_twin
    assert result.dist[aux.twin(0)] == pytest.approx(0.3)


def test_dijkstra_stops_when_no_violation():
    # x = 0.5 everywhere on a triangle: all twin paths have length >= 1.5
    g, x = cycle_graph(3, 0.5)
    aux = build_aux_graph(g, x)
    result = dijkstra_mod(aux, 0)
    assert not result.hit_twin


def test_extract_simple_cycles_splits_vertex_repeats():
    # figure-eight walk through vertex 0: two triangles
    walk = ClosedWalk(
        verts=[0, 1, 2, 0, 3, 4, 0],
        edge_ids=[0, 1, 2, 3, 4, 5],
        in_f=[True, False, False, True, False, False],
    )
    cycles = extract_simple_cycles(walk)
    assert len(cycles) == 2
    for verts, eids, in_f in cycles:
        assert len(eids) == 3
        assert sum(in_f) % 2 == 1


def test_extract_simple_cycles_drops_even_f_and_two_edge_cycles():
    walk = ClosedWalk(
        verts=[0, 1, 0], edge_ids=[0, 0], in_f=[True, True]
    )
    assert extract_simple_cycles(walk) == []


def test_chordless_decompose_four_cycle_with_chord():
    # 4-cycle 0-1-2-3 with chord {0,2}; the violated side of the chord is the
    # triangle (2, 3, 0) with F = {e23}
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
                         (1, 2, 1.0), (2, 3, 1.0)])
    e01, e02, e03, e12, e23 = (g.find_edge(*p) for p in
                               [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    x = np.zeros(g.m)
    x[[e01, e12, e23]] = 0.95
    x[e03] = 0.05
    x[e02] = 0.05  # the chord
    cuts = chordless_decompose(
        [0, 1, 2, 3], [e01, e12, e23, e03], [True, True, True, False], x, g
    )
    assert len(cuts) == 1
    cut = cuts[0]
    assert sorted(cut.edges) == sorted([e23, e03, e02])
    f_set = {e for e, flag in zip(cut.edges, cut.in_f) if flag}
    assert f_set == {e23}
    assert cut.violation(x) > 0


def test_chordless_decompose_keeps_chordless_cycle():
    # 5-cycle, x = 0.9 everywhere, F = C: violation 0.5, no chords exist
    g, x = cycle_graph(5)
    verts = [0, 1, 2, 3, 4]
    eids = [g.find_edge(i, (i + 1) % 5) for i in range(5)]
    cuts = chordless_decompose(verts, eids, [True] * 5, x, g)
    assert len(cuts) == 1
    assert cuts[0].violation(x) == pytest.approx(0.5)


def test_chordless_decompose_rejects_unviolated_input():
    g, x = cycle_graph(3, 0.5)
    eids = [g.find_edge(i, (i + 1) % 3) for i in range(3)]
    assert chordless_decompose([0, 1, 2], eids, [True, False, False], x, g) == []


def test_separate_exact_on_violated_cycle():
    g, x = cycle_graph(5)
    cuts = separate_exact(g, x)
    assert cuts
    for cut in cuts:
        assert cut.violation(x) > 0


def test_separate_exact_empty_at_integral_cut_point():
    # x is the incidence vector of an actual cut: nothing to separate
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    y = [0, 1, 0, 1]
    x = np.array([1.0 if y[u] != y[v] else 0.0
                  for u, v, _ in g.edge_list()])
    assert separate_exact(g, x) == []


def _exactness_check(seed, trials, contract_zeros=False):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(4, 8)
        edges = random_graph(rng, n, 0.5)
        if len(edges) < 3:
            continue
        g = WeightedGraph(n, edges)
        x = np.array([rng.random() for _ in range(g.m)])
        cuts = separate_exact(g, x, contract_zeros=contract_zeros)
        viol, _ = most_violated_cycle_inequality(n, edges, x)
        if cuts:
            for cut in cuts:
                assert cut.violation(x) > 0
        else:
            assert viol <= 1e-6
        if viol > 1e-6:
            assert cuts


def test_separate_exact_matches_enumeration_oracle():
    _exactness_check(seed=10, trials=40)


def test_separate_exact_with_zero_contraction_matches_oracle():
    _exactness_check(seed=11, trials=25, contract_zeros=True)


def test_zero_contraction_handles_integral_coordinates():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(4, 8)
        edges = random_graph(rng, n, 0.5)
        if len(edges) < 3:
            continue
        g = WeightedGraph(n, edges)
        # many coordinates exactly 0 or 1 to force zero-weight aux arcs
        x = np.array([rng.choice([0.0, 1.0, rng.random()]) for _ in range(g.m)])
        plain = separate_exact(g, x, contract_zeros=False)
        contracted = separate_exact(g, x, contract_zeros=True)
        assert bool(plain) == bool(contracted)
        for cut in contracted:
            assert cut.violation(x) > 0


@pytest.mark.parametrize("contract", [False, True], ids=["plain", "contracted"])
def test_shortest_twin_distance_matches_most_violated_inequality(contract):
    # the twin distance, minimised over sources, is 1 - (largest violation)
    rng = random.Random(15 + contract)
    checked = 0
    for _ in range(40):
        n = rng.randint(4, 8)
        edges = random_graph(rng, n, 0.5)
        if len(edges) < 3:
            continue
        g = WeightedGraph(n, edges)
        x = np.array([rng.choice([0.0, 1.0, rng.random(), rng.random()])
                      for _ in range(g.m)])
        aux = build_aux_graph(g, x)
        if contract:
            aux = contract_zero_arcs(aux)
        best = math.inf
        for v in range(n):
            if g.degree(v) > 0:
                source = int(aux.node_of[v])
                result = dijkstra_mod(aux, source)
                if result.hit_twin:
                    best = min(best, result.dist[aux.twin(source)])
        viol, _ = most_violated_cycle_inequality(n, g.edge_list(), x)
        if viol > SEP_GATE:
            assert best == pytest.approx(1.0 - viol, abs=1e-9)
            checked += 1
        else:
            assert best >= 1.0 - SEP_GATE
    assert checked > 10


def test_emitted_cuts_are_chordless():
    rng = random.Random(13)
    checked = 0
    for _ in range(40):
        n = rng.randint(5, 9)
        edges = random_graph(rng, n, 0.5)
        if len(edges) < 4:
            continue
        g = WeightedGraph(n, edges)
        x = np.array([rng.random() for _ in range(g.m)])
        for cut in separate_exact(g, x):
            verts = _cycle_vertices(g, cut.edges)
            assert not has_chord(g, verts)
            checked += 1
    assert checked > 10


def _cycle_vertices(g, eids):
    """Vertex sequence of a cycle given by its edge ids."""
    adj = {}
    for e in eids:
        u, v = g.edge_endpoints(e)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(adj)
    verts = [start]
    prev = None
    while True:
        nxts = [w for w in adj[verts[-1]] if w != prev]
        prev = verts[-1]
        if nxts[0] == start:
            break
        verts.append(nxts[0])
    return verts


def test_separate_triangles_finds_all_odd_sets():
    g = WeightedGraph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    x = np.array([1.0, 1.0, 1.0])  # violates x0 + x1 + x2 <= 2
    cuts = separate_triangles(g, x)
    assert len(cuts) == 1
    assert sum(cuts[0].in_f) == 3

    x = np.array([1.0, 1.0, 0.0])  # a genuine cut of the triangle: no violation
    assert separate_triangles(g, x) == []

    x = np.array([1.0, 0.0, 0.2])  # x0 - x1 - x2 = 0.8 > 0 violated
    cuts = separate_triangles(g, x)
    assert len(cuts) == 1
    assert cuts[0].violation(x) == pytest.approx(0.8)

    x = np.array([0.9, 0.0, 0.0])  # 0.1 + 0 + 0 < 1 violated
    cuts = separate_triangles(g, x)
    assert len(cuts) == 1
    assert cuts[0].violation(x) == pytest.approx(0.9)


def test_separate_triangles_respects_budget():
    rng = random.Random(14)
    edges = random_graph(rng, 12, 0.8)
    g = WeightedGraph(12, edges)
    x = np.full(g.m, 0.9)
    unlimited = separate_triangles(g, x, budget=10 ** 9)
    limited = separate_triangles(g, x, budget=5)
    assert len(limited) <= len(unlimited)
