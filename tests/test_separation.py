import math
import random

import numpy as np
import pytest

import sparsecut.separation as separation
from sparsecut.graph import WeightedGraph
from sparsecut.lp import VIOLATION_TOL, CycleCut
from sparsecut.separation import (
    EPS_SKIP,
    SEP_GATE,
    TRIANGLE_BUDGET,
    ClosedWalk,
    build_aux_graph,
    chordless_decompose,
    cycle_tables,
    extract_simple_cycles,
    separate_exact,
    separate_triangles,
    twin_walk,
)

from oracles import (
    has_chord,
    most_violated_cycle_inequality,
    random_graph,
    reference_chordless_decompose,
    reference_separate_cycles,
    reference_separate_triangles,
    reference_square_table,
    reference_triangle_table,
    reference_twin_distance,
    torus3d_edges,
    torus_edges,
)


def cycle_graph(n, x_val=0.9):
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    g = WeightedGraph(n, edges)
    x = np.full(g.m, x_val)
    return g, x


def test_aux_graph_omits_near_one_arcs():
    g, x = cycle_graph(3, 0.5)
    x[0] = 1.0 - 1e-9  # copy arcs for this edge are ~1 and must be skipped
    aux = build_aux_graph(g, x)
    eids_from_arcs = set(e for arcs in aux for _, _, e in arcs)
    # edge 0 appears only through its crossing arcs
    assert 0 in eids_from_arcs
    for _, weight, e in aux[0]:
        if e == 0:
            assert weight < 0.5


def _scanned_aux_arcs(g, x):
    """The aux arc lists by a scan of the edges in id order: for each edge
    (u, v), its copy arcs u->v, v->u and their twins, then its crossing arcs
    u->v', v->u' and their twins, each unless its weight is >= 1 - EPS_SKIP."""
    n = g.n
    aux = [[] for _ in range(2 * n)]
    for e, (u, v, _) in enumerate(g.edge_list()):
        xe = float(x[e])
        if xe < 1.0 - EPS_SKIP:
            for a, b in ((u, v), (v, u), (u + n, v + n), (v + n, u + n)):
                aux[a].append((b, xe, e))
        if 1.0 - xe < 1.0 - EPS_SKIP:
            for a, b in ((u, v + n), (v, u + n), (u + n, v), (v + n, u)):
                aux[a].append((b, 1.0 - xe, e))
    return aux


def test_aux_graph_matches_a_per_edge_scan():
    rng = random.Random(17)
    edge_values = [0.0, 1.0, 1e-9, 1.0 - 1e-9, 1.0 - EPS_SKIP, EPS_SKIP,
                   math.nextafter(1.0 - EPS_SKIP, 0.0),
                   math.nextafter(1.0 - EPS_SKIP, 1.0), 0.5]
    for _ in range(40):
        n = rng.randint(1, 14)
        g = WeightedGraph(n, random_graph(rng, n, rng.uniform(0.2, 0.7)))
        x = np.array([rng.choice(edge_values + [rng.random()]) for _ in range(g.m)])
        assert build_aux_graph(g, x) == _scanned_aux_arcs(g, x)


def test_dijkstra_finds_twin_path_on_violated_cycle():
    # all-0.9 triangle: twin distance 3 * 0.1 = 0.3 < 1
    g, x = cycle_graph(3)
    aux = build_aux_graph(g, x)
    found = twin_walk(aux, 0)
    assert found is not None
    assert found[0] == pytest.approx(0.3)


def test_dijkstra_stops_when_no_violation():
    # x = 0.5 everywhere on a triangle: all twin paths have length >= 1.5
    g, x = cycle_graph(3, 0.5)
    aux = build_aux_graph(g, x)
    found = twin_walk(aux, 0)
    assert found is None


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


def test_chordless_decompose_matches_the_two_branch_reference():
    """The one-span decomposition gives the reference's cuts in the
    reference's order on the cycles of exact-separation walks."""
    rng = random.Random(17)
    with_chords = 0
    for _ in range(100):
        n = rng.randint(6, 14)
        g = WeightedGraph(n, random_graph(rng, n, rng.uniform(0.4, 0.8)))
        x = np.array([rng.choice([0.0, 1.0, rng.random(), rng.random()])
                      for _ in range(g.m)])
        aux = build_aux_graph(g, x)
        for v in range(n):
            found = twin_walk(aux, v) if g.arcs[v] else None
            if found is None:
                continue
            for verts, eids, in_f in extract_simple_cycles(found[1]):
                want = reference_chordless_decompose(verts, eids, in_f, x, g)
                assert chordless_decompose(verts, eids, in_f, x, g) == want
                with_chords += has_chord(g, verts)
    assert with_chords >= 200, with_chords


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


def _exactness_check(seed, trials):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(4, 8)
        edges = random_graph(rng, n, 0.5)
        if len(edges) < 3:
            continue
        g = WeightedGraph(n, edges)
        # many coordinates exactly 0 or 1 give zero-weight aux arcs
        x = np.array([rng.choice([0.0, 1.0, rng.random(), rng.random()])
                      for _ in range(g.m)])
        cuts = separate_exact(g, x)
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


def test_shortest_twin_distance_matches_most_violated_inequality():
    # the twin distance, minimised over sources, is 1 - (largest violation)
    # on the plain two-copy graph, the one aux graph the separator searches
    rng = random.Random(15)
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
        best = math.inf
        for v in range(n):
            if g.arcs[v]:
                found = twin_walk(aux, v)
                if found is not None:
                    best = min(best, found[0])
        viol, _ = most_violated_cycle_inequality(n, g.edge_list(), x)
        if viol > SEP_GATE:
            assert best == pytest.approx(1.0 - viol, abs=1e-9)
            checked += 1
        else:
            assert best >= 1.0 - SEP_GATE
    assert checked > 10


def _check_twin_walks(g, x):
    """The half-radius search against the full-radius reference, from every
    vertex: the same twin distance, and a walk of that length that closes at
    the source. Returns how many sources found a twin path."""
    aux = build_aux_graph(g, x)
    found_count = 0
    for v in range(g.n):
        want = reference_twin_distance(aux, v)
        found = twin_walk(aux, v)
        if want >= 1.0 - SEP_GATE:
            assert found is None
            continue
        found_count += 1
        length, walk = found
        assert abs(length - want) <= 1e-12
        assert walk.verts[0] == walk.verts[-1] == v
        for a, b, e in zip(walk.verts, walk.verts[1:], walk.edge_ids):
            assert g.find_edge(a, b) == e
        assert sum(walk.in_f) % 2 == 1
        walk_len = sum((1.0 - x[e]) if f else x[e]
                       for e, f in zip(walk.edge_ids, walk.in_f))
        assert abs(walk_len - length) <= 1e-12
    return found_count


def test_twin_walk_matches_the_full_radius_reference():
    rng = random.Random(16)
    found = 0
    for _ in range(60):
        n = rng.randint(4, 12)
        edges = random_graph(rng, n, 0.5)
        if len(edges) < 3:
            continue
        g = WeightedGraph(n, edges)
        # many coordinates exactly 0 or 1 give zero-weight aux arcs
        x = np.array([rng.choice([0.0, 1.0, rng.random(), rng.random()])
                      for _ in range(g.m)])
        found += _check_twin_walks(g, x)
    g = WeightedGraph(64, torus_edges(rng, 8))
    for _ in range(5):
        x = np.array([rng.choice([0.0, 1.0, rng.random(), rng.random()])
                      for _ in range(g.m)])
        found += _check_twin_walks(g, x)
    assert found > 600


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
    table = cycle_tables(g, TRIANGLE_BUDGET, 0)[0]
    assert table.tolist() == [[0, 1, 2]]
    x = np.array([1.0, 1.0, 1.0])  # violates x0 + x1 + x2 <= 2
    cuts = separate_triangles(x, table)
    assert len(cuts) == 1
    assert sum(cuts[0].in_f) == 3

    x = np.array([1.0, 1.0, 0.0])  # a genuine cut of the triangle: no violation
    assert separate_triangles(x, table) == []

    x = np.array([1.0, 0.0, 0.2])  # x0 - x1 - x2 = 0.8 > 0 violated
    cuts = separate_triangles(x, table)
    assert len(cuts) == 1
    assert cuts[0].violation(x) == pytest.approx(0.8)

    x = np.array([0.9, 0.0, 0.0])  # 0.1 + 0 + 0 < 1 violated
    cuts = separate_triangles(x, table)
    assert len(cuts) == 1
    assert cuts[0].violation(x) == pytest.approx(0.9)


def test_separate_triangles_respects_budget():
    rng = random.Random(14)
    edges = random_graph(rng, 12, 0.8)
    g = WeightedGraph(12, edges)
    unlimited = cycle_tables(g, 10 ** 9, 0)[0]
    assert len(unlimited) > 5
    assert np.array_equal(cycle_tables(g, 5, 0)[0], unlimited[:5])


def test_triangle_cuts_match_the_per_edge_reference():
    """Same cuts in the same order as listing the triangles on every call."""
    rng = random.Random(91)
    for _ in range(60):
        n = rng.randint(3, 25)
        g = WeightedGraph(n, random_graph(rng, n, rng.uniform(0.2, 0.9)))
        for budget in (5, 50_000):
            table = cycle_tables(g, budget, 0)[0]
            for x in (np.zeros(g.m), np.ones(g.m), np.full(g.m, 0.5),
                      np.array([rng.random() for _ in range(g.m)])):
                got = separate_triangles(x, table)
                want = reference_separate_triangles(g, x, budget)
                assert [(c.edges, c.in_f) for c in got] == \
                    [(c.edges, c.in_f) for c in want]


@pytest.mark.parametrize("cap, slab", [
    (separation.DEGREE_CAP, separation.TRIANGLE_SLAB), (6, 3)])
def test_triangle_table_matches_the_per_edge_reference(monkeypatch, cap, slab):
    """Same rows in the same order as intersecting neighbor lists edge by
    edge, under a small budget, a low degree cap and small slabs too."""
    monkeypatch.setattr(separation, "DEGREE_CAP", cap)
    monkeypatch.setattr(separation, "TRIANGLE_SLAB", slab)
    rng = random.Random(92)
    for _ in range(150):
        n = rng.randint(0, 30)
        edges = random_graph(rng, n, rng.uniform(0.05, 0.9)) if n > 1 else []
        g = WeightedGraph(n, edges)
        for budget in (0, 1, 7, 50_000):
            want = reference_triangle_table(g, budget, cap)
            got = cycle_tables(g, budget, 0)[0]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (n, edges, budget)


def _square_graphs(rng):
    """Random sparse graphs, 2D tori with L = 4 (whose wraparound cycles are
    squares too) and L = 5, and a 3D torus with L = 3."""
    graphs = [WeightedGraph(16, torus_edges(rng, 4)), WeightedGraph(25, torus_edges(rng, 5)),
              WeightedGraph(27, torus3d_edges(rng, 3))]
    for _ in range(60):
        n = rng.randint(0, 22)
        edges = random_graph(rng, n, rng.uniform(0.05, 0.45)) if n > 1 else []
        graphs.append(WeightedGraph(n, edges))
    return graphs


@pytest.mark.parametrize("cap, slab", [
    (separation.DEGREE_CAP, separation.TRIANGLE_SLAB), (4, 3)])
def test_square_table_matches_the_brute_force_listing(monkeypatch, cap, slab):
    """Same rows in the same order as trying every vertex quadruple, under a
    small budget, a low degree cap and small slabs too."""
    monkeypatch.setattr(separation, "DEGREE_CAP", cap)
    monkeypatch.setattr(separation, "TRIANGLE_SLAB", slab)
    cut_short = 0
    for g in _square_graphs(random.Random(93)):
        full = reference_square_table(g, 10 ** 9, cap)
        for budget in (0, 1, 7, 50_000):
            want = full[:budget]
            got = cycle_tables(g, 0, budget)[1]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (g.n, g.edge_list(), budget)
            cut_short += len(want) < len(full)
    assert cut_short > 10  # some tables are cut at their budget


def test_square_table_lists_the_torus_squares():
    """An L = 4 torus has 16 plaquettes and 8 wraparound 4-cycles; an L = 5
    torus has only its 25 plaquettes; a 3D L = 3 torus has 81 plaquettes
    (its wraparound cycles are triangles)."""
    rng = random.Random(94)
    for n, edges, squares in ((16, torus_edges(rng, 4), 24), (25, torus_edges(rng, 5), 25),
                              (27, torus3d_edges(rng, 3), 81)):
        assert len(cycle_tables(WeightedGraph(n, edges), 0, TRIANGLE_BUDGET)[1]) == squares


def test_square_table_builds_the_wedge_pairs_in_chunks(monkeypatch):
    """On dense graphs an end pair has many common neighbors: tiny chunks
    give the brute-force rows, and a table cut at a small budget builds
    about one chunk of wedge pairs, not all of them."""
    rng = random.Random(96)
    graphs = [WeightedGraph(n, random_graph(rng, n, 0.6)) for n in (12, 18, 24)]
    for chunk in (1, 7):
        monkeypatch.setattr(separation, "SQUARE_CHUNK", chunk)
        for g in graphs:
            full = reference_square_table(g, 10 ** 9)
            for budget in (0, 1, 7, 50_000):
                assert np.array_equal(cycle_tables(g, 0, budget)[1], full[:budget])

    g = WeightedGraph(120, random_graph(rng, 120, 0.5))
    want = cycle_tables(g, 0, 10)[1]
    lookups = []
    real_find_edges = separation._find_edges

    def find_edges(g, keys):
        lookups.append(len(keys))
        return real_find_edges(g, keys)

    monkeypatch.setattr(separation, "_find_edges", find_edges)
    monkeypatch.setattr(separation, "SQUARE_CHUNK", 1000)
    assert np.array_equal(cycle_tables(g, 0, 10)[1], want)
    # one lookup of the first slab's wedge ends, then the chords of one chunk
    assert len(lookups) == 2 and lookups[1] <= 1000 + separation.DEGREE_CAP
    # where the first slab alone, vertex 0's edges among it, closes over ten
    # chunks of squares
    monkeypatch.setattr(separation, "_find_edges", real_find_edges)
    squares = cycle_tables(g, 0, TRIANGLE_BUDGET)[1]
    assert np.sum(g.edge_u[squares[:, 0]] == 0) > 10_000


def test_square_table_leaves_out_chorded_cycles_and_capped_vertices(monkeypatch):
    ring = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
    g = WeightedGraph(4, ring)
    # edges e01 = 0, e03 = 1, e12 = 2, e23 = 3, in the order 0 - 1 - 2 - 3 - 0
    assert cycle_tables(g, 0, TRIANGLE_BUDGET)[1].tolist() == [[0, 2, 3, 1]]
    for chord in ((0, 2, 1.0), (1, 3, 1.0)):
        g = WeightedGraph(4, ring + [chord])
        assert cycle_tables(g, 0, TRIANGLE_BUDGET)[1].shape == (0, 4)
    monkeypatch.setattr(separation, "DEGREE_CAP", 3)
    g = WeightedGraph(5, ring + [(0, 4, 1.0)])
    assert len(cycle_tables(g, 0, TRIANGLE_BUDGET)[1]) == 1
    g = WeightedGraph(6, ring + [(0, 4, 1.0), (0, 5, 1.0)])  # vertex 0 above the cap
    assert cycle_tables(g, 0, TRIANGLE_BUDGET)[1].shape == (0, 4)


def test_cycle_tables_budgets_are_independent(monkeypatch):
    """Each table is the same whatever the other's budget, on sparse and
    dense graphs. With no 4-cycles asked for, the pass makes one lookup per
    slab, of its wedge ends, and builds no wedge pair."""
    rng = random.Random(97)
    graphs = _square_graphs(rng)
    graphs += [WeightedGraph(n, random_graph(rng, n, 0.7)) for n in (12, 18, 24)]
    budgets = (0, 1, 7, 50_000)
    for g in graphs:
        full = reference_square_table(g, 10 ** 9)
        for b1 in budgets:
            want = reference_triangle_table(g, b1)
            for b2 in budgets:
                triangles, squares = cycle_tables(g, b1, b2)
                assert triangles.dtype == want.dtype and triangles.shape == want.shape
                assert np.array_equal(triangles, want), (g.n, b1, b2)
                assert np.array_equal(squares, full[:b2]), (g.n, b1, b2)
                assert squares.shape == full[:b2].shape

    lookups = []
    real_find_edges = separation._find_edges

    def find_edges(g, keys):
        lookups.append(len(keys))
        return real_find_edges(g, keys)

    # with one-edge slabs, a slab is the run of edges of one low end
    monkeypatch.setattr(separation, "TRIANGLE_SLAB", 1)
    monkeypatch.setattr(separation, "_find_edges", find_edges)
    g = graphs[-1]
    triangles, squares = cycle_tables(g, 50_000, 0)
    assert len(lookups) == len(np.unique(g.edge_u)) and squares.shape == (0, 4)
    assert np.array_equal(triangles, reference_triangle_table(g, 50_000))
    lookups.clear()
    cycle_tables(g, 50_000, 7)
    assert len(lookups) > len(np.unique(g.edge_u))  # the wedge pairs' chords


def test_table_cuts_are_the_most_violated_and_distinct():
    """The table cuts are every violated (cycle, odd F set) pair, the
    triangles' then the squares', each in (row, F set) order; with a limit,
    the ``limit`` most violated of both tables, ranked together by the
    violation ``1 - lhs``, then by table, then by lhs, ties in that order.
    Each is violated beyond VIOLATION_TOL and no key repeats."""
    rng = random.Random(95)
    for g in _square_graphs(rng):
        triangles, squares = cycle_tables(g, TRIANGLE_BUDGET, TRIANGLE_BUDGET)
        for x in (np.full(g.m, 0.5), np.array([rng.random() for _ in range(g.m)]),
                  np.array([rng.choice((0.0, 0.3, 0.8, 1.0)) for _ in range(g.m)])):
            for limit in (None, 0, 3):
                found = [(t, lhs, edges, flags) for t, table in enumerate((triangles, squares))
                         for _, edges, flags, lhs in reference_separate_cycles(x, table)]
                if limit is not None:  # stable: triangles first among equals
                    found = sorted(found, key=lambda c: (-(1.0 - c[1]), c[0], c[1]))[:limit]
                want = [(edges, flags) for _, _, edges, flags in found]
                got = separate_triangles(x, triangles, squares, limit)
                assert [(c.edges, c.in_f) for c in got] == want
                assert all(c.violation(x) > VIOLATION_TOL for c in got)
                assert len({c.key for c in got}) == len(got)
