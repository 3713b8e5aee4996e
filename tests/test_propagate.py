import random

import numpy as np

from sparsecut.graph import WeightedGraph
from sparsecut.lp import LpEngine
from sparsecut.propagate import propagate

from oracles import all_optimal_cuts, random_graph, reference_propagate


def test_reduced_cost_fix_requires_incumbent_margin():
    g = WeightedGraph(3, [(0, 1, 5.0), (0, 2, 1.0), (1, 2, 1.0)])
    engine = LpEngine(g)
    state = engine.solve()
    lb, ub = np.zeros(3), np.ones(3)
    # weak incumbent: nothing can be fixed
    assert propagate(g, state, state.objective, -100.0, lb, ub, {}) == ({}, False)
    # incumbent at the optimum 6: flipping the 5-edge loses 5 > 6 - 6
    fixed, _ = propagate(g, state, state.objective, 6.0, lb, ub, {},
                         integral=True)
    assert g.find_edge(0, 1) in fixed


def _agrees(g, y, fixed):
    return all(int(y[g.edge_u[e]] != y[g.edge_v[e]]) == val
               for e, val in fixed.items())


def _fixing_safety(seed, trials):
    """No propagation step may exclude every optimal solution at the root."""
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(4, 7)
        edges = random_graph(rng, n, 0.6)
        if len(edges) < 3:
            continue
        g = WeightedGraph(n, edges)
        best, optima = all_optimal_cuts(n, edges)
        engine = LpEngine(g)
        state = engine.solve()
        lb, ub = np.zeros(g.m), np.ones(g.m)
        fixed, dead = propagate(
            g, state, state.objective, best, lb, ub, {}, integral=True
        )
        assert not dead
        assert any(_agrees(g, y, fixed) for y in optima), (edges, fixed, optima)
        for integral in (True, False):
            args = (state, state.objective, best, lb, ub, {}, integral)
            assert (list(propagate(g, *args)[0].items())
                    == list(reference_propagate(*args).items()))


def test_root_fixing_never_cuts_off_all_optima():
    _fixing_safety(seed=41, trials=60)


def test_fixing_below_the_root_keeps_an_optimum_of_the_node():
    """Fix edges to the values of one optimal cut, solve the LP under those
    bounds: some optimum that agrees with the node's fixings also agrees with
    the fixings propagation returns."""
    rng = random.Random(42)
    checked = 0
    for _ in range(60):
        n = rng.randint(5, 8)
        edges = random_graph(rng, n, 0.6)
        if len(edges) < 4:
            continue
        g = WeightedGraph(n, edges)
        best, optima = all_optimal_cuts(n, edges)
        y = rng.choice(optima)
        node = {e: int(y[g.edge_u[e]] != y[g.edge_v[e]])
                for e in rng.sample(range(g.m), rng.randint(1, g.m - 1))}
        lb, ub = np.zeros(g.m), np.ones(g.m)
        for e, val in node.items():
            lb[e] = ub[e] = float(val)
        state = LpEngine(g).solve(lb, ub)
        assert state.feasible
        fixed, dead = propagate(
            g, state, state.objective, best, lb, ub, node, integral=True
        )
        assert not dead
        assert list(fixed.items()) == list(reference_propagate(
            state, state.objective, best, lb, ub, node, True).items())
        assert fixed.items() >= node.items()
        assert any(_agrees(g, z, fixed) for z in optima if _agrees(g, z, node)), (
            edges, node, fixed)
        checked += len(fixed) > len(node)
    assert checked > 0  # some node fixed an edge beyond its own fixings
