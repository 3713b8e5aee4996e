import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

import sparsecut.heuristics as heuristics
from sparsecut.graph import CutSolution, WeightedGraph, cut_weight
from sparsecut.heuristics import (
    _best_diameter_cut,
    _local_minimize,
    angular_energy,
    burer_rank2,
    kernighan_lin,
    spanning_tree_rounding,
)

from oracles import (
    brute_force_maxcut,
    random_graph,
    reference_best_diameter_cut,
    reference_kernighan_lin,
    reference_local_minimize,
)


def test_angular_energy_extremes():
    g = WeightedGraph(2, [(0, 1, 3.0)])
    theta = np.array([0.0, math.pi])
    assert angular_energy(g, theta) == pytest.approx(-3.0)
    theta = np.array([0.0, 0.0])
    assert angular_energy(g, theta) == pytest.approx(3.0)


def test_kernighan_lin_never_worsens():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(3, 9)
        edges = random_graph(rng, n, 0.5)
        g = WeightedGraph(n, edges)
        y = np.array([rng.randint(0, 1) for _ in range(n)], dtype=np.int8)
        start = CutSolution.from_assignment(g, y)
        improved = kernighan_lin(g, start)
        assert improved.weight >= start.weight - 1e-12
        assert improved.weight == pytest.approx(cut_weight(g, improved.y))


def test_kernighan_lin_solves_positive_bipartite_case():
    # complete bipartite positive graph: optimum puts the two sides apart
    edges = [(u, v, 1.0) for u in (0, 1) for v in (2, 3)]
    g = WeightedGraph(4, edges)
    bad = CutSolution.from_assignment(g, np.array([0, 1, 0, 1], dtype=np.int8))
    improved = kernighan_lin(g, bad)
    assert improved.weight == 4.0


def test_burer_rank2_finds_optimum_on_small_instances():
    rng = random.Random(22)
    hits = 0
    total = 0
    for _ in range(25):
        n = rng.randint(4, 9)
        edges = random_graph(rng, n, 0.6)
        if not edges:
            continue
        g = WeightedGraph(n, edges)
        best, _ = brute_force_maxcut(n, edges)
        sol = burer_rank2(g, seed=1, restarts=6)
        assert sol.weight <= best + 1e-9
        total += 1
        if sol.weight == pytest.approx(best):
            hits += 1
    assert hits >= int(0.8 * total)


def test_burer_rank2_is_deterministic_per_seed():
    rng = random.Random(24)
    edges = random_graph(rng, 10, 0.5)
    g = WeightedGraph(10, edges)
    a = burer_rank2(g, seed=7, restarts=4)
    b = burer_rank2(g, seed=7, restarts=4)
    assert a.weight == b.weight
    assert np.array_equal(a.y, b.y)


def test_spanning_tree_rounding_reproduces_integral_points():
    # when x is the incidence vector of a cut, rounding recovers that cut
    rng = random.Random(25)
    for _ in range(20):
        n = rng.randint(3, 8)
        edges = random_graph(rng, n, 0.6)
        if not edges:
            continue
        g = WeightedGraph(n, edges)
        y = np.array([rng.randint(0, 1) for _ in range(n)], dtype=np.int8)
        x = (y[g.edge_u] != y[g.edge_v]).astype(float)
        sol = spanning_tree_rounding(g, x)
        # KL may still improve on it, but never below the encoded cut
        assert sol.weight >= cut_weight(g, y) - 1e-12


def test_spanning_tree_rounding_handles_fractional_points():
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    x = np.array([0.9, 0.9, 0.9, 0.1])
    sol = spanning_tree_rounding(g, x)
    assert sol.weight >= 2.0  # the 4-cycle optimum is 4, rounding gets >= 2


def _hub_graphs(seed, count, integral):
    """Random graphs with n <= 14, a hub of degree >= 9 at a random vertex and
    two isolated vertices, so sums over the hub run past numpy's 8-way
    unrolled block and vertex loops meet empty CSR rows."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(12, 14)
        hub, *isolated = rng.sample(range(n), 3)
        active = [v for v in range(n) if v not in isolated]
        local = random_graph(rng, len(active), 0.3, integral=integral)
        edges = {(active[a], active[b]): w for a, b, w in local}
        for v in active:
            if v != hub:
                key = (min(hub, v), max(hub, v))
                edges.setdefault(key, float(rng.choice([-3, -2, -1, 1, 2, 3])))
        g = WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])
        assert len(g.arcs[hub]) >= 9 and all(not g.arcs[v] for v in isolated)
        yield rng, g


def _circular_distance(a, b):
    d = np.abs(a - b) % (2 * math.pi)
    return np.minimum(d, 2 * math.pi - d)


@pytest.mark.parametrize("integral", [True, False])
def test_local_minimize_matches_the_numpy_reference(integral):
    for rng, g in _hub_graphs(31 + integral, 40, integral):
        for start in (
            np.array([rng.uniform(0, 2 * math.pi) for _ in range(g.n)]),
            np.array([rng.choice([0.0, math.pi]) for _ in range(g.n)]),
        ):
            expected = reference_local_minimize(g, start)
            got = _local_minimize(g, start.copy())
            assert _circular_distance(got, expected).max() < 1e-9


def test_diameter_cut_and_kernighan_lin_match_the_numpy_reference():
    for rng, g in _hub_graphs(33, 40, integral=True):
        theta = np.array([rng.uniform(0, 2 * math.pi) for _ in range(g.n)])
        for angles in (theta, reference_local_minimize(g, theta)):
            cut = _best_diameter_cut(g, angles)
            assert np.array_equal(cut.y, reference_best_diameter_cut(g, angles))
        y = np.array([rng.randint(0, 1) for _ in range(g.n)], dtype=np.int8)
        out = kernighan_lin(g, CutSolution.from_assignment(g, y))
        assert np.array_equal(out.y, reference_kernighan_lin(g, y))


def test_kernighan_lin_is_one_flip_optimal():
    for integral in (True, False):
        for rng, g in _hub_graphs(34 + integral, 30, integral):
            y = np.array([rng.randint(0, 1) for _ in range(g.n)], dtype=np.int8)
            out = kernighan_lin(g, CutSolution.from_assignment(g, y))
            for v in range(g.n):
                flipped = out.y.copy()
                flipped[v] ^= 1
                assert cut_weight(g, flipped) <= out.weight + 1e-9


def test_local_minimize_never_raises_the_angular_energy():
    for integral in (True, False):
        for rng, g in _hub_graphs(36 + integral, 30, integral):
            theta = np.array([rng.uniform(0, 2 * math.pi) for _ in range(g.n)])
            before = angular_energy(g, theta)
            after = angular_energy(g, _local_minimize(g, theta.copy()))
            assert after <= before + 1e-9


def test_burer_rank2_runs_one_restart_after_the_deadline(monkeypatch):
    calls = []
    real = heuristics._local_minimize

    def counting(g, theta, deadline=None):
        calls.append(g.n)
        return real(g, theta, deadline)

    monkeypatch.setattr(heuristics, "_local_minimize", counting)
    rng = random.Random(26)
    g = WeightedGraph(12, random_graph(rng, 12, 0.5))
    sol = burer_rank2(g, seed=3, restarts=8, deadline=time.monotonic() - 1.0)
    assert calls == [12]
    assert sol.weight == cut_weight(g, sol.y)


def _counting_descents(monkeypatch):
    """Record the cut weight that each rank-2 descent ends with."""
    calls = []
    real_min = heuristics._local_minimize
    real_kl = heuristics.kernighan_lin

    def counting_min(g, theta, deadline=None):
        calls.append(None)
        return real_min(g, theta, deadline)

    def recording_kl(g, solution):
        out = real_kl(g, solution)
        calls[-1] = out.weight
        return out

    monkeypatch.setattr(heuristics, "_local_minimize", counting_min)
    monkeypatch.setattr(heuristics, "kernighan_lin", recording_kl)
    return calls


def test_burer_rank2_stops_at_the_first_restart_that_does_not_improve(
        monkeypatch):
    calls = _counting_descents(monkeypatch)
    rng = random.Random(27)
    stopped_early = 0
    for _ in range(40):
        n = rng.randint(6, 16)
        g = WeightedGraph(n, random_graph(rng, n, 0.5, integral=False))
        restarts = rng.randint(1, 8)
        calls.clear()
        sol = burer_rank2(g, seed=rng.randint(0, 99), restarts=restarts)
        assert 1 <= len(calls) <= restarts
        # every descent but the last improves strictly on all before it
        for i in range(1, len(calls) - 1):
            assert calls[i] > max(calls[:i])
        if len(calls) < restarts:
            stopped_early += 1
            assert len(calls) >= 2 and calls[-1] <= max(calls[:-1])
        assert sol.weight == max(calls)
        assert sol.weight == cut_weight(g, sol.y)
    assert stopped_early > 0


def test_burer_rank2_with_one_restart_runs_one_descent(monkeypatch):
    calls = _counting_descents(monkeypatch)
    g = WeightedGraph(12, random_graph(random.Random(28), 12, 0.5))
    sol = burer_rank2(g, seed=5, restarts=1)
    assert len(calls) == 1 and sol.weight == calls[0]


def test_local_minimize_ends_on_a_small_relative_decrease(monkeypatch):
    # 30 x 30 +-1 torus: the gradient test alone runs to MAX_SWEEPS here
    L = 30
    rng = np.random.default_rng(4)
    edges = []
    for i in range(L):
        for j in range(L):
            v = i * L + j
            for nb in (i * L + (j + 1) % L, ((i + 1) % L) * L + j):
                edges.append((v, nb, float(rng.choice([-1, 1]))))
    g = WeightedGraph(L * L, edges)
    start = rng.uniform(0, 2 * math.pi, size=g.n)
    theta = _local_minimize(g, start.copy())
    # the descent ends well before MAX_SWEEPS: a lower cap changes nothing
    monkeypatch.setattr(heuristics, "MAX_SWEEPS", heuristics.MAX_SWEEPS // 2)
    assert np.array_equal(_local_minimize(g, start.copy()), theta)
    before = angular_energy(g, theta)
    monkeypatch.setattr(heuristics, "MAX_SWEEPS", 1)
    after_sweep = _local_minimize(g, theta.copy())
    after = angular_energy(g, after_sweep)
    small_drop = before - after <= heuristics.REL_TOL * abs(after)
    small_moves = _circular_distance(after_sweep, theta).max() < heuristics.GRAD_TOL
    assert small_drop or small_moves


def test_local_minimize_stops_after_the_sweep_that_passes_the_deadline(
        monkeypatch):
    """A clock that ticks once per read passes the deadline at the third
    sweep's end: the descent is three sweeps. Without a deadline the clock
    is never read."""
    reads = []

    def clock():
        reads.append(None)
        return float(len(reads))

    rng = random.Random(30)
    g = WeightedGraph(40, random_graph(rng, 40, 0.2, integral=False))
    start = np.random.default_rng(30).uniform(0, 2 * math.pi, size=g.n)
    full = _local_minimize(g, start.copy())
    monkeypatch.setattr(heuristics, "time", SimpleNamespace(monotonic=clock))
    assert np.array_equal(_local_minimize(g, start.copy()), full)
    assert reads == []
    stopped = _local_minimize(g, start.copy(), deadline=3.0)
    assert len(reads) == 3
    monkeypatch.setattr(heuristics, "MAX_SWEEPS", 3)
    assert np.array_equal(_local_minimize(g, start.copy()), stopped)
    assert not np.array_equal(stopped, full)
