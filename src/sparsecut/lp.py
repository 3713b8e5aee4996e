"""LP relaxation over the current cycle-cut pool.

The relaxation is  max w^T x  subject to the pool's cycle inequalities and the
per-edge bounds [lb, ub] within [0, 1]. It is solved by a built-in
bounded-variable revised simplex (dense basis inverse, periodic
refactorization) hidden behind :class:`LpEngine`, so an external LP backend
could be substituted without touching callers.

Reduced-cost sign convention (maximization): nonbasic-at-lower variables have
reduced cost <= 0, nonbasic-at-upper >= 0, basic exactly 0. Forcing a nonbasic
edge to its opposite bound degrades the LP bound by at least |reduced cost|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BASIC, AT_LOWER, AT_UPPER = 0, 1, 2

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
VIOLATION_TOL = 1e-5
PURGE_SLACK_TOL = 1e-7
AGE_LIMIT = 10


class LpError(RuntimeError):
    """Unrecoverable numerical failure in the LP engine."""


@dataclass(frozen=True)
class CycleCut:
    """Cycle inequality sum_F x - sum_{C\\F} x <= |F| - 1 with |F| odd."""

    edges: tuple[int, ...]
    in_f: tuple[bool, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.in_f):
            raise ValueError("edges and F-flags differ in length")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("cycle repeats an edge")
        if sum(self.in_f) % 2 != 1:
            raise ValueError("|F| must be odd")

    @property
    def rhs(self):
        return sum(self.in_f) - 1

    def key(self):
        f = frozenset(e for e, flag in zip(self.edges, self.in_f) if flag)
        rest = frozenset(e for e, flag in zip(self.edges, self.in_f) if not flag)
        return (f, rest)

    def slack_form(self, x):
        """Value of sum_F (1 - x) + sum_{C\\F} x; the cut is violated iff < 1."""
        total = 0.0
        for e, flag in zip(self.edges, self.in_f):
            total += (1.0 - x[e]) if flag else x[e]
        return total

    def violation(self, x):
        return 1.0 - self.slack_form(x)


@dataclass
class LpState:
    x: np.ndarray            # per-edge fractional point
    objective: float
    reduced_costs: np.ndarray
    basis_status: np.ndarray  # BASIC / AT_LOWER / AT_UPPER per edge
    iterations: int
    feasible: bool = True


@dataclass
class _PoolEntry:
    cut: CycleCut
    age: int = 0


class CutPool:
    """Active cycle cuts with duplicate detection and age counters."""

    def __init__(self):
        self.entries: list[_PoolEntry] = []
        self._keys: set = set()

    def __len__(self):
        return len(self.entries)

    def add(self, cut: CycleCut):
        key = cut.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self.entries.append(_PoolEntry(cut))
        return True

    def remove_indices(self, indices):
        doomed = set(indices)
        kept = []
        for i, entry in enumerate(self.entries):
            if i in doomed:
                self._keys.discard(entry.cut.key())
            else:
                kept.append(entry)
        self.entries = kept


class _BoundedSimplex:
    """Revised simplex for  max c^T x,  A x <= b,  l <= x <= u (dense)."""

    REFACTOR_EVERY = 64
    BLAND_AFTER = 500
    PIVOT_TOL = 1e-8
    MAX_ITERS = 50_000

    def __init__(self, c, lb, ub):
        self.n = len(c)
        self.c = np.asarray(c, dtype=float)
        self.lb = np.asarray(lb, dtype=float).copy()
        self.ub = np.asarray(ub, dtype=float).copy()
        self.rows: list[np.ndarray] = []
        self.rhs: list[float] = []
        self.basis = None
        self.stat = None
        self.iterations = 0

    # -- model edits ------------------------------------------------------

    def add_row(self, coeffs, rhs):
        """coeffs: iterable of (column, coefficient)."""
        row = np.zeros(self.n)
        for j, a in coeffs:
            row[j] += a
        self.rows.append(row)
        self.rhs.append(float(rhs))
        if self.basis is not None:
            # new slack starts basic; phase 1 repairs any infeasibility
            slack_id = self.n + len(self.rows) - 1
            self.basis = np.append(self.basis, slack_id)
            self.stat = np.append(self.stat, BASIC)

    def remove_rows(self, indices):
        doomed = set(indices)
        self.rows = [r for i, r in enumerate(self.rows) if i not in doomed]
        self.rhs = [r for i, r in enumerate(self.rhs) if i not in doomed]
        self.reset_basis()

    def set_bounds(self, lb, ub):
        self.lb = np.asarray(lb, dtype=float).copy()
        self.ub = np.asarray(ub, dtype=float).copy()

    def reset_basis(self):
        self.basis = None
        self.stat = None

    # -- solve ------------------------------------------------------------

    def solve(self):
        m = len(self.rows)
        ncols = self.n + m
        A = np.vstack(self.rows) if m else np.zeros((0, self.n))
        self._A = np.hstack([A, np.eye(m)]) if m else A
        self._b = np.asarray(self.rhs)
        self._l = np.concatenate([self.lb, np.zeros(m)])
        self._u = np.concatenate([self.ub, np.full(m, np.inf)])
        self._cost = np.concatenate([self.c, np.zeros(m)])
        self._m, self._ncols = m, ncols

        if (
            self.basis is None
            or self.stat is None
            or len(self.basis) != m
            or len(self.stat) != ncols
        ):
            self._cold_basis()
        else:
            # clamp remembered nonbasic statuses to the current bounds
            for j in range(self.n):
                if self.stat[j] == AT_UPPER and not np.isfinite(self._u[j]):
                    self.stat[j] = AT_LOWER

        self._refactor()
        self._compute_x()
        self.iterations = 0

        if not self._phase1():
            return False
        self._phase2()
        return True

    def _cold_basis(self):
        m, ncols = self._m, self._ncols
        stat = np.full(ncols, AT_LOWER, dtype=np.int8)
        for j in range(self.n):
            if self.c[j] > 0 and np.isfinite(self._u[j]):
                stat[j] = AT_UPPER
        basis = np.arange(self.n, ncols)
        stat[basis] = BASIC
        self.basis = basis
        self.stat = stat

    def _refactor(self):
        m = self._m
        if m == 0:
            self._Binv = np.zeros((0, 0))
            return
        B = self._A[:, self.basis]
        try:
            self._Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise LpError("basis matrix singular") from exc
        self._since_refactor = 0

    def _compute_x(self):
        x = np.where(self.stat == AT_UPPER, self._u, self._l)
        x[~np.isfinite(x)] = 0.0
        x[self.basis] = 0.0
        if self._m:
            x[self.basis] = self._Binv @ (self._b - self._A @ x)
        self._x = x

    def _infeasible_rows(self):
        xb = self._x[self.basis]
        low = xb < self._l[self.basis] - FEAS_TOL
        up = xb > self._u[self.basis] + FEAS_TOL
        return low, up

    def _phase1(self):
        stall = 0
        while True:
            low, up = self._infeasible_rows()
            if not (low.any() or up.any()):
                return True
            if self.iterations > self.MAX_ITERS:
                raise LpError("phase-1 iteration limit exceeded")
            g = np.zeros(self._m)
            g[low] = 1.0
            g[up] = -1.0
            yvec = g @ self._Binv
            price = yvec @ self._A  # g . Binv A_j per column
            bland = stall > self.BLAND_AFTER
            j, s = self._choose_entering_phase1(price, bland)
            if j is None:
                return False  # infeasibility cannot be reduced: LP infeasible
            moved = self._step(j, s, phase1=True, bland=bland)
            stall = 0 if moved else stall + 1

    def _choose_entering_phase1(self, price, bland):
        best, best_rate = None, OPT_TOL
        for j in range(self._ncols):
            st = self.stat[j]
            if st == BASIC or self._u[j] - self._l[j] <= FEAS_TOL:
                continue
            if st == AT_LOWER and -price[j] > best_rate:
                cand = (j, 1.0)
            elif st == AT_UPPER and price[j] > best_rate:
                cand = (j, -1.0)
            else:
                continue
            if bland:
                return cand
            best_rate = abs(price[j])
            best = cand
        return best if best else (None, None)

    def _phase2(self):
        stall = 0
        while True:
            if self.iterations > self.MAX_ITERS:
                raise LpError("phase-2 iteration limit exceeded")
            yvec = self._cost[self.basis] @ self._Binv if self._m else np.zeros(0)
            d = self._cost - (yvec @ self._A if self._m else 0.0)
            bland = stall > self.BLAND_AFTER
            j, s = self._choose_entering_phase2(d, bland)
            if j is None:
                self._d = d
                return
            moved = self._step(j, s, phase1=False, bland=bland)
            stall = 0 if moved else stall + 1

    def _choose_entering_phase2(self, d, bland):
        best, best_rate = None, OPT_TOL
        for j in range(self._ncols):
            st = self.stat[j]
            if st == BASIC or self._u[j] - self._l[j] <= FEAS_TOL:
                continue
            if st == AT_LOWER and d[j] > best_rate:
                cand = (j, 1.0)
            elif st == AT_UPPER and d[j] < -best_rate:
                cand = (j, -1.0)
            else:
                continue
            if bland:
                return cand
            best_rate = abs(d[j])
            best = cand
        return best if best else (None, None)

    def _step(self, j, s, phase1, bland):
        """Move entering column j in direction s; returns True if t > 0."""
        alpha = self._Binv @ self._A[:, j] if self._m else np.zeros(0)
        delta = -s * alpha  # change of basic values per unit step
        xb = self._x[self.basis]
        lB, uB = self._l[self.basis], self._u[self.basis]

        t_best = self._u[j] - self._l[j]
        leave_row = None
        leave_bound = None
        for i in range(self._m):
            di = delta[i]
            if abs(di) < self.PIVOT_TOL:
                continue
            if phase1 and xb[i] < lB[i] - FEAS_TOL:
                # infeasible below: blocks only when rising to its lower bound
                if di > 0:
                    ratio, bound = (lB[i] - xb[i]) / di, AT_LOWER
                else:
                    continue
            elif phase1 and xb[i] > uB[i] + FEAS_TOL:
                if di < 0:
                    ratio, bound = (uB[i] - xb[i]) / di, AT_UPPER
                else:
                    continue
            else:
                if di < 0:
                    ratio, bound = (lB[i] - xb[i]) / di, AT_LOWER
                elif di > 0:
                    if not np.isfinite(uB[i]):
                        continue
                    ratio, bound = (uB[i] - xb[i]) / di, AT_UPPER
            ratio = max(ratio, 0.0)
            take = ratio < t_best - 1e-12
            if not take and ratio < t_best + 1e-12 and leave_row is not None:
                # tie-break: prefer the larger pivot (or lowest index under Bland)
                if bland:
                    take = self.basis[i] < self.basis[leave_row]
                else:
                    take = abs(delta[i]) > abs(delta[leave_row])
            if take:
                t_best, leave_row, leave_bound = ratio, i, bound

        if not np.isfinite(t_best):
            raise LpError("unbounded simplex direction")

        self.iterations += 1
        t = t_best
        if t > 0:
            self._x[j] += s * t
            self._x[self.basis] = xb + t * delta

        if leave_row is None:
            # entering variable hits its own opposite bound
            self.stat[j] = AT_UPPER if s > 0 else AT_LOWER
            return t > 1e-12

        leaving = self.basis[leave_row]
        self.stat[leaving] = leave_bound
        self._x[leaving] = self._l[leaving] if leave_bound == AT_LOWER else self._u[leaving]
        self.stat[j] = BASIC
        self.basis[leave_row] = j

        # product-form update of the basis inverse
        piv = alpha[leave_row]
        if abs(piv) < self.PIVOT_TOL:
            self._refactor()
        else:
            self._Binv[leave_row] /= piv
            for i in range(self._m):
                if i != leave_row and abs(alpha[i]) > 1e-14:
                    self._Binv[i] -= alpha[i] * self._Binv[leave_row]
            self._since_refactor += 1
            if self._since_refactor >= self.REFACTOR_EVERY:
                self._refactor()
        self._compute_x()
        return t > 1e-12

    # -- solution access --------------------------------------------------

    def solution(self):
        return self._x[: self.n].copy()

    def objective(self):
        return float(self._cost @ self._x)

    def reduced_costs(self):
        d = self._d[: self.n].copy()
        d[self.stat[: self.n] == BASIC] = 0.0
        return d

    def statuses(self):
        return self.stat[: self.n].copy()

    def row_slacks(self):
        return self._x[self.n :].copy()


class LpEngine:
    """Cut-pool LP for one max-cut (sub)instance; owns pool and warm basis."""

    def __init__(self, graph):
        self.graph = graph
        self.pool = CutPool()
        self._simplex = _BoundedSimplex(
            graph.edge_w, np.zeros(graph.m), np.ones(graph.m)
        )

    def solve(self, lb=None, ub=None) -> LpState:
        """Solve the relaxation under the given per-edge bounds (warm-started)."""
        m = self.graph.m
        lb = np.zeros(m) if lb is None else np.asarray(lb, dtype=float)
        ub = np.ones(m) if ub is None else np.asarray(ub, dtype=float)
        self._simplex.set_bounds(lb, ub)
        try:
            feasible = self._simplex.solve()
        except LpError:
            # safeguarded retry from a cold basis
            self._simplex.reset_basis()
            feasible = self._simplex.solve()
        if not feasible:
            return LpState(
                x=np.zeros(m),
                objective=-np.inf,
                reduced_costs=np.zeros(m),
                basis_status=np.full(m, AT_LOWER, dtype=np.int8),
                iterations=self._simplex.iterations,
                feasible=False,
            )
        state = LpState(
            x=np.clip(self._simplex.solution(), 0.0, 1.0),
            objective=self._simplex.objective(),
            reduced_costs=self._simplex.reduced_costs(),
            basis_status=self._simplex.statuses(),
            iterations=self._simplex.iterations,
        )
        self._age_cuts()
        return state

    def add_cuts(self, cuts) -> int:
        """Insert deduplicated cuts as LP rows; returns the number added."""
        added = 0
        for cut in cuts:
            if not self.pool.add(cut):
                continue
            coeffs = [
                (e, 1.0 if flag else -1.0) for e, flag in zip(cut.edges, cut.in_f)
            ]
            self._simplex.add_row(coeffs, cut.rhs)
            added += 1
        return added

    def _age_cuts(self):
        slacks = self._simplex.row_slacks()
        for i, entry in enumerate(self.pool.entries):
            if slacks[i] > PURGE_SLACK_TOL:
                entry.age += 1
            else:
                entry.age = 0

    def purge_cuts(self) -> int:
        """Drop cuts nonbinding for AGE_LIMIT consecutive solves; resets basis."""
        doomed = [i for i, entry in enumerate(self.pool.entries) if entry.age >= AGE_LIMIT]
        if not doomed:
            return 0
        self.pool.remove_indices(doomed)
        self._simplex.remove_rows(doomed)
        return len(doomed)

    def reset_basis(self):
        self._simplex.reset_basis()
