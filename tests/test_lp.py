import random

import numpy as np
import pytest

from oracles import ReferenceSimplex, enumerate_simple_cycles, random_graph
from sparsecut.graph import WeightedGraph
from sparsecut.lp import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    AGE_LIMIT,
    FEAS_TOL,
    OPT_TOL,
    CutPool,
    CycleCut,
    LpEngine,
    _BoundedSimplex,
)
from sparsecut.separation import (
    TRIANGLE_BUDGET,
    cycle_tables,
    separate_exact,
    separate_triangles,
)


def triangle(w=(1.0, 1.0, 1.0)):
    return WeightedGraph(3, [(0, 1, w[0]), (0, 2, w[1]), (1, 2, w[2])])


def test_cyclecut_validates_odd_f_and_distinct_edges():
    with pytest.raises(ValueError):
        CycleCut((0, 1, 2), (True, True, False))  # |F| even
    with pytest.raises(ValueError):
        CycleCut((0, 1, 1), (True, False, False))  # repeated edge
    cut = CycleCut((0, 1, 2), (True, True, True))
    assert cut.rhs == 2


def test_cyclecut_slack_form_and_violation():
    cut = CycleCut((0, 1, 2), (True, False, False))
    x = [1.0, 0.0, 0.0]
    assert cut.slack_form(x) == 0.0
    assert cut.violation(x) == 1.0
    x = [0.5, 0.25, 0.25]
    assert cut.slack_form(x) == pytest.approx(1.0)


def test_cut_pool_deduplicates_by_edge_sets():
    pool = CutPool()
    a = CycleCut((0, 1, 2), (True, False, False))
    b = CycleCut((2, 1, 0), (False, False, True))  # same F and complement
    c = CycleCut((0, 1, 2), (False, True, False))  # same edges, another F
    assert pool.add([a]) == [a]
    assert pool.add([b]) == []
    assert len(pool) == 1
    assert pool.add([c, a]) == [c]
    assert pool.entries == [a, c] and len(pool.ages) == 2


def test_unconstrained_lp_puts_positive_edges_at_upper_bound():
    g = triangle((2.0, 1.0, -1.0))
    engine = LpEngine(g)
    state = engine.solve()
    assert state.feasible
    assert state.objective == pytest.approx(3.0)
    assert np.allclose(state.x, [1.0, 1.0, 0.0])
    assert state.basis_status[0] == AT_UPPER
    assert state.basis_status[2] == AT_LOWER


def test_triangle_cuts_clip_the_all_ones_point():
    g = triangle((1.0, 1.0, 1.0))
    engine = LpEngine(g)
    engine.add_cuts([CycleCut((0, 1, 2), (True, True, True))])
    state = engine.solve()
    # max x0+x1+x2 subject to x0+x1+x2 <= 2
    assert state.objective == pytest.approx(2.0)
    assert sum(state.x) == pytest.approx(2.0)


def test_all_four_triangle_cuts_force_integrality_region():
    g = triangle((1.0, 1.0, 1.0))
    engine = LpEngine(g)
    cuts = [
        CycleCut((0, 1, 2), (True, True, True)),
        CycleCut((0, 1, 2), (True, False, False)),
        CycleCut((0, 1, 2), (False, True, False)),
        CycleCut((0, 1, 2), (False, False, True)),
    ]
    assert engine.add_cuts(cuts) == 4
    state = engine.solve()
    assert state.objective == pytest.approx(2.0)


def test_bounds_fix_variables():
    g = triangle((5.0, 1.0, 1.0))
    engine = LpEngine(g)
    lb = np.array([0.0, 0.0, 1.0])
    ub = np.array([0.0, 1.0, 1.0])
    state = engine.solve(lb, ub)
    assert state.x[0] == 0.0 and state.x[2] == 1.0
    assert state.objective == pytest.approx(2.0)


def test_infeasible_bound_combination_is_reported():
    g = triangle()
    engine = LpEngine(g)
    # cut x0 - x1 - x2 <= 0 with x0 fixed at 1, x1 = x2 = 0 is infeasible
    engine.add_cuts([CycleCut((0, 1, 2), (True, False, False))])
    lb = np.array([1.0, 0.0, 0.0])
    ub = np.array([1.0, 0.0, 0.0])
    state = engine.solve(lb, ub)
    assert not state.feasible
    assert state.objective == -np.inf


def test_reduced_cost_sign_convention():
    g = triangle((2.0, 1.0, -1.0))
    engine = LpEngine(g)
    state = engine.solve()
    for e in range(3):
        if state.basis_status[e] == AT_LOWER:
            assert state.reduced_costs[e] <= 1e-9
        elif state.basis_status[e] == AT_UPPER:
            assert state.reduced_costs[e] >= -1e-9
        else:
            assert state.reduced_costs[e] == 0.0


def test_reduced_cost_bound_degradation_is_valid():
    """Re-solving with a nonbasic edge forced to its opposite bound cannot
    lose more than the LP predicts (degradation >= |reduced cost|)."""
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(4, 7)
        edges = [
            (u, v, float(rng.randint(-4, 4)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.6
        ]
        edges = [e for e in edges if e[2] != 0]
        if not edges:
            continue
        g = WeightedGraph(n, edges)
        engine = LpEngine(g)
        state = engine.solve()
        for e in range(g.m):
            st = state.basis_status[e]
            if st == BASIC:
                continue
            lb = np.zeros(g.m)
            ub = np.ones(g.m)
            if st == AT_LOWER:
                lb[e] = 1.0
            else:
                ub[e] = 0.0
            forced = LpEngine(g).solve(lb, ub)
            assert forced.objective <= state.objective - abs(
                state.reduced_costs[e]
            ) + 1e-7


def test_warm_start_after_adding_cuts_matches_cold_solve():
    g = triangle((1.0, 1.0, 1.0))
    warm = LpEngine(g)
    warm.solve()
    warm.add_cuts([CycleCut((0, 1, 2), (True, True, True))])
    state_warm = warm.solve()

    cold = LpEngine(g)
    cold.add_cuts([CycleCut((0, 1, 2), (True, True, True))])
    state_cold = cold.solve()
    assert state_warm.objective == pytest.approx(state_cold.objective)


def test_cut_aging_and_purge():
    g = triangle((2.0, 1.0, 1.0))
    engine = LpEngine(g)
    # loose at the optimum x = (1,1,1): x0 - x1 - x2 = -1 < 0, slack 1
    engine.add_cuts([CycleCut((0, 1, 2), (True, False, False))])
    for _ in range(AGE_LIMIT + 1):
        engine.solve()
    assert engine.purge_cuts() == 1
    assert len(engine.pool) == 0
    # solving still works after the purge, which keeps the basis
    state = engine.solve()
    assert state.objective == pytest.approx(4.0)


def test_lp_value_upper_bounds_every_cut():
    """The relaxation value dominates the weight of any actual cut."""
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(4, 7)
        edges = [
            (u, v, float(rng.randint(-5, 5)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        edges = [e for e in edges if e[2] != 0]
        if not edges:
            continue
        g = WeightedGraph(n, edges)
        engine = LpEngine(g)
        state = engine.solve()
        for mask in range(1 << (n - 1)):
            y = [(mask >> v) & 1 if v < n - 1 else 0 for v in range(n)]
            w = sum(wt for (u, v, wt) in edges if y[u] != y[v])
            assert state.objective >= w - 1e-7


# -- differential test against the primal reference simplex ----------------

def _check_optimum(g, simplex, state, ref_state, lb, ub, scale):
    """The dual simplex's answer against the reference primal simplex: same
    feasibility and optimum, a point within its bounds and cuts whose weight
    is the objective, and reduced costs of the right sign on free edges."""
    if state.feasible != ref_state.feasible:
        return False
    if not state.feasible:
        return True
    x = simplex.solution()
    tol = 1e-9 * scale
    rows = np.array(simplex.rows).reshape(-1, g.m)
    d, stat = state.reduced_costs, state.basis_status
    free = ub - lb > 0.5
    return bool(
        state.objective == pytest.approx(ref_state.objective, rel=1e-9, abs=tol)
        and np.all(x >= lb - 1e-9) and np.all(x <= ub + 1e-9)
        and np.all(rows @ x <= np.array(simplex.rhs) + 1e-9)
        and g.edge_w @ x == pytest.approx(state.objective, rel=1e-9, abs=tol)
        and np.all(d[free & (stat == AT_LOWER)] <= tol)
        and np.all(d[free & (stat == AT_UPPER)] >= -tol)
        and np.all(d[stat == BASIC] == 0.0)
    )


def _differential_run(g, rng, scale):
    """Drive the dual simplex and the reference engine through the same solves.

    Each round solves both, then adds the triangle (else exact) cycle cuts of
    the reference's LP point. Rounds 1 and 3 also fix up to half of the
    edges at random, which often makes the LP infeasible; round 4 fixes at
    least half of them at the values of a random cut, which keeps it
    feasible, often only just. Returns (solves, wrong solves, infeasible
    solves).
    """
    engines = [LpEngine(g), LpEngine(g)]
    engines[1]._simplex = ReferenceSimplex(g.edge_w, np.zeros(g.m), np.ones(g.m))
    table = cycle_tables(g, TRIANGLE_BUDGET, 0)[0]
    solves = wrong = infeasible = 0
    for rnd in range(5):
        lb, ub = np.zeros(g.m), np.ones(g.m)
        if rnd % 2:
            for e in rng.sample(range(g.m), rng.randint(1, max(1, g.m // 2))):
                lb[e] = ub[e] = float(rng.randint(0, 1))
        if rnd == 4:
            side = [rng.randint(0, 1) for _ in range(g.n)]
            for e in rng.sample(range(g.m), rng.randint(g.m // 2, g.m)):
                u, v = g.edge_endpoints(e)
                lb[e] = ub[e] = float(side[u] != side[v])
        states = [engine.solve(lb, ub) for engine in engines]
        solves += 1
        wrong += not _check_optimum(g, engines[0]._simplex, *states, lb, ub, scale)
        if not states[1].feasible:
            infeasible += 1
            continue
        x = states[1].x
        cuts = separate_triangles(x, table) or separate_exact(g, x)
        if not cuts:
            break
        cuts.sort(key=lambda c: -c.violation(x))
        for engine in engines:
            engine.add_cuts(cuts[: 2 * g.n])
    return solves, wrong, infeasible


@pytest.mark.parametrize("scale", [1.0, 1e5])
@pytest.mark.parametrize("pricing", ["dantzig", "bland"])
def test_simplex_matches_the_reference_optimum(pricing, scale, monkeypatch):
    if pricing == "bland":
        monkeypatch.setattr(_BoundedSimplex, "BLAND_AFTER", -1)
        monkeypatch.setattr(ReferenceSimplex, "BLAND_AFTER", -1)
    rng = random.Random(11)
    solves = wrong = infeasible = 0
    for k in range(300):
        n = 5 + k % 10
        edges = random_graph(rng, n, rng.uniform(0.3, 0.8),
                             integral=k % 3 != 0)
        if not edges:
            continue
        g = WeightedGraph(n, [(u, v, w * scale) for u, v, w in edges])
        counts = _differential_run(g, rng, scale)
        solves += counts[0]
        wrong += counts[1]
        infeasible += counts[2]
    assert wrong == 0, f"{wrong} of {solves} solves differ from the reference"
    assert solves > 1000 and infeasible > 10, (solves, infeasible)


def test_bland_pivots_leave_a_row_violated_at_the_current_point(monkeypatch):
    """With Bland's rule from the first pivot, the costs are perturbed before
    it, which can move nonbasic columns and so the point. Every pivot still
    takes the violated row of lowest basis index at the point the simplex
    holds when the pivot is taken, with that row's violation."""
    monkeypatch.setattr(_BoundedSimplex, "BLAND_AFTER", -1)
    pivots = stale = 0
    real_ratio_test = _BoundedSimplex._ratio_test

    def ratio_test(self, alpha, violation, d, bland):
        nonlocal pivots, stale
        viol = np.maximum(self._l - self._x, self._x - self._u)[self.basis]
        rows = np.flatnonzero(viol > FEAS_TOL)
        pivots += 1
        stale += not (bland and rows.size
                      and viol[rows[np.argmin(self.basis[rows])]] == violation)
        return real_ratio_test(self, alpha, violation, d, bland)

    monkeypatch.setattr(_BoundedSimplex, "_ratio_test", ratio_test)
    rng = random.Random(16)
    for k in range(40):
        n = 6 + k % 8
        g = WeightedGraph(n, random_graph(rng, n, rng.uniform(0.3, 0.8),
                                          integral=k % 2 == 0))
        _cut_rounds(LpEngine(g), g, rng, 5, fix=k % 3 == 0)
    assert stale == 0 and pivots > 500, (stale, pivots)


def test_perturbed_costs_leave_no_nonbasic_reduced_cost_at_zero(monkeypatch):
    """The perturbation moves every nonbasic movable column's cost, a cut
    slack's too, strictly into the side of the bound it sits at, so no
    reduced cost is left at 0 for a degenerate pivot to keep."""
    monkeypatch.setattr(_BoundedSimplex, "BLAND_AFTER", -1)
    calls = slacks = 0
    real_make_dual_feasible = _BoundedSimplex._make_dual_feasible

    def make_dual_feasible(self, perturb):
        nonlocal calls, slacks
        d = real_make_dual_feasible(self, perturb)
        if perturb:
            free = np.flatnonzero(self._movable & (self.stat != BASIC))
            want = np.where(self.stat[free] == AT_UPPER, 1.0, -1.0)
            assert np.all(d[free] * want > OPT_TOL), d[free]
            calls += 1
            slacks += int(np.sum(free >= self.n))
        return d

    monkeypatch.setattr(_BoundedSimplex, "_make_dual_feasible", make_dual_feasible)
    rng = random.Random(17)
    for k in range(20):
        n = 6 + k % 8
        g = WeightedGraph(n, random_graph(rng, n, rng.uniform(0.3, 0.8),
                                          integral=k % 2 == 0))
        _cut_rounds(LpEngine(g), g, rng, 5, fix=k % 3 == 0)
    assert calls > 20 and slacks > 100, (calls, slacks)


def test_lp_error_restarts_cold_and_is_counted():
    g = triangle((1.0, 1.0, 1.0))
    cuts = [CycleCut((0, 1, 2), (True, True, True)),
            CycleCut((0, 1, 2), (True, False, False))]
    engine, fresh = LpEngine(g), LpEngine(g)
    for lp in (engine, fresh):
        lp.add_cuts(cuts)
    engine.solve()
    assert engine.cold_restarts == 0
    # a warm basis that holds the first slack twice is singular
    simplex = engine._simplex
    simplex.basis = np.array([3, 3])
    simplex._Binv = None
    simplex.stat = np.array([AT_LOWER, AT_LOWER, AT_LOWER, BASIC, AT_LOWER],
                            dtype=np.int8)
    state = engine.solve()
    assert engine.cold_restarts == 1
    assert state.objective == pytest.approx(2.0)
    assert state.objective == pytest.approx(fresh.solve().objective)


# -- independent LP oracle ----------------------------------------------------

@pytest.mark.parametrize("scale", [1.0, 1e5])
def test_lp_matches_highs_on_random_cut_pools(scale):
    """Warm-started solves over growing random cycle-cut pools under random
    edge fixings agree with HiGHS on feasibility and on the optimum."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(13)
    solves = infeasible = 0
    for k in range(60):
        n = rng.randint(4, 8)
        edges = random_graph(rng, n, rng.uniform(0.4, 0.9), integral=k % 2 == 0)
        g = WeightedGraph(n, [(u, v, w * scale) for u, v, w in edges])
        cycles = enumerate_simple_cycles(n, g.edge_list())
        if not cycles:
            continue
        engine = LpEngine(g)
        rows, rhs = [], []
        for _ in range(4):
            for cyc in rng.sample(cycles, min(len(cycles), rng.randint(1, 6))):
                odd = rng.randrange(1, len(cyc) + 1, 2)
                f = set(rng.sample(range(len(cyc)), odd))
                cut = CycleCut(tuple(cyc), tuple(i in f for i in range(len(cyc))))
                if engine.add_cuts([cut]):
                    row = np.zeros(g.m)
                    row[list(cyc)] = [1.0 if i in f else -1.0 for i in range(len(cyc))]
                    rows.append(row)
                    rhs.append(cut.rhs)
            lb, ub = np.zeros(g.m), np.ones(g.m)
            for e in rng.sample(range(g.m), rng.randint(0, g.m // 2)):
                lb[e] = ub[e] = float(rng.randint(0, 1))
            if rng.random() < 0.25:
                # fix some cut's F to 1 and the rest of its cycle to 0
                row = rows[rng.randrange(len(rows))]
                lb[row != 0] = ub[row != 0] = row[row != 0] > 0
            state = engine.solve(lb, ub)
            highs = optimize.linprog(-g.edge_w, A_ub=np.array(rows), b_ub=rhs,
                                     bounds=list(zip(lb, ub)), method="highs")
            assert highs.status in (0, 2), highs.message
            assert state.feasible == (highs.status == 0)
            if state.feasible:
                assert state.objective == pytest.approx(-highs.fun, abs=1e-7 * scale)
            solves += 1
            infeasible += not state.feasible
    assert solves > 150 and infeasible > 10, (solves, infeasible)


# -- the basis inverse carried across solves and model edits ---------------

def _cut_rounds(engine, g, rng, rounds, fix=False):
    """Solve, then add the most violated triangle (else exact) cycle cuts of
    the LP point, ``rounds`` times; with ``fix`` each round also fixes a few
    edges at random. Returns the last state."""
    table = cycle_tables(g, TRIANGLE_BUDGET, 0)[0]
    lb, ub = np.zeros(g.m), np.ones(g.m)
    for _ in range(rounds):
        if fix:
            lb, ub = np.zeros(g.m), np.ones(g.m)
            for e in rng.sample(range(g.m), rng.randint(0, g.m // 4)):
                lb[e] = ub[e] = float(rng.randint(0, 1))
        state = engine.solve(lb, ub)
        if not state.feasible:
            continue
        cuts = separate_triangles(state.x, table) or separate_exact(g, state.x)
        if not cuts:
            break
        cuts.sort(key=lambda c: -c.violation(state.x))
        engine.add_cuts(cuts[: 2 * g.n])
    return state


def _inverse_error(simplex):
    """max |B^-1 B - I| for the carried B^-1 and B built from the rows."""
    eye = np.eye(len(simplex.rhs))
    basis_matrix = np.hstack([simplex.rows, eye])[:, simplex.basis]
    return np.abs(simplex._Binv @ basis_matrix - eye).max(initial=0.0)


def test_warm_solves_after_cuts_and_bounds_do_not_refactorize(monkeypatch):
    """Warm solves after added cuts or new bounds carry B^-1: with periodic
    refactorization off, none of them refactorizes."""
    monkeypatch.setattr(_BoundedSimplex, "REFACTOR_EVERY", 10**9)
    refactors = []
    real_refactor = _BoundedSimplex._refactor

    def refactor(self):
        refactors.append(len(self.rhs))
        real_refactor(self)

    monkeypatch.setattr(_BoundedSimplex, "_refactor", refactor)
    rng = random.Random(21)
    g = WeightedGraph(12, random_graph(rng, 12, 0.5))
    engine = LpEngine(g)
    engine.solve()  # cold: the slack basis is factorized once
    refactors.clear()
    _cut_rounds(engine, g, rng, rounds=4)
    lb, ub = np.zeros(g.m), np.ones(g.m)
    lb[:2] = ub[:2] = 1.0
    state = engine.solve(lb, ub)  # after new bounds alone
    assert len(engine._simplex.rhs) > 0 and refactors == []
    cold = LpEngine(g)
    cold.add_cuts(engine.pool.entries)
    assert state.objective == pytest.approx(cold.solve(lb, ub).objective)
    assert _inverse_error(engine._simplex) < 1e-8


def test_carried_inverse_stays_the_inverse_of_the_basis():
    rng = random.Random(22)
    checked = 0
    for k in range(40):
        n = 6 + k % 8
        g = WeightedGraph(n, random_graph(rng, n, rng.uniform(0.4, 0.9),
                                          integral=k % 2 == 0))
        engine = LpEngine(g)
        for _ in range(3):
            _cut_rounds(engine, g, rng, rounds=4, fix=True)
            if engine._simplex.basis is not None:
                assert _inverse_error(engine._simplex) < 1e-8
                checked += 1
            engine.pool.ages[::3] = AGE_LIMIT
            engine.purge_cuts()
            pool = engine.pool
            assert len(pool.ages) == len(pool.entries) == len(engine._simplex.rhs)
    assert checked >= 100, checked


def test_purge_of_basic_slacks_keeps_the_basis():
    """A purge that removes only rows with basic slacks keeps the basis; the
    next solve equals a cold solve of the rows left, with zero pivots."""
    rng = random.Random(23)
    warm_purges = 0
    for k in range(60):
        n = 7 + k % 6
        g = WeightedGraph(n, random_graph(rng, n, 0.6))
        engine = LpEngine(g)
        before = _cut_rounds(engine, g, rng, rounds=6)
        for _ in range(AGE_LIMIT):
            before = engine.solve()
        simplex = engine._simplex
        doomed = np.flatnonzero(engine.pool.ages >= AGE_LIMIT)
        if not doomed.size or np.any(simplex.stat[g.m + doomed] != BASIC):
            continue
        assert engine.purge_cuts() == len(doomed)
        pool = engine.pool
        assert len(pool.ages) == len(pool.entries) == len(simplex.rhs)
        assert simplex.basis is not None and _inverse_error(simplex) < 1e-8
        after = engine.solve()
        cold = LpEngine(g)
        cold.add_cuts(engine.pool.entries)
        assert after.iterations == 0
        assert after.objective == pytest.approx(before.objective, abs=1e-9)
        assert after.objective == pytest.approx(cold.solve().objective, abs=1e-9)
        assert np.allclose(after.x, before.x)
        warm_purges += 1
    assert warm_purges >= 10, warm_purges
