"""LP relaxation over the current cycle-cut pool.

The relaxation is  max w^T x  subject to the pool's cycle inequalities and the
per-edge bounds [lb, ub] within [0, 1]. :class:`LpEngine` owns the cut pool
and a warm-started bounded-variable primal simplex: a dense basis inverse kept
by product-form (eta) updates with periodic refactorization, and one numpy
iteration -- pricing, ratio test, eta update -- shared by phase 1 and phase 2.

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
        """Phase 1 to a feasible basis, then phase 2; False if infeasible."""
        m = len(self.rows)
        ncols = self.n + m
        A = np.array(self.rows, dtype=float).reshape(m, self.n)
        self._A = np.hstack([A, np.eye(m)])
        self._b = np.asarray(self.rhs, dtype=float)
        self._l = np.concatenate([self.lb, np.zeros(m)])
        self._u = np.concatenate([self.ub, np.full(m, np.inf)])
        self._cost = np.concatenate([self.c, np.zeros(m)])
        self._movable = self._u - self._l > FEAS_TOL

        if (
            self.basis is None
            or self.stat is None
            or len(self.basis) != m
            or len(self.stat) != ncols
        ):
            self._cold_basis()
        else:
            # clamp remembered nonbasic statuses to the current bounds
            stat = self.stat[: self.n]
            stat[(stat == AT_UPPER) & ~np.isfinite(self.ub)] = AT_LOWER

        self._refactor()
        self._compute_x()
        self.iterations = 0
        return self._iterate(phase1=True) and self._iterate(phase1=False)

    def _cold_basis(self):
        ncols = len(self._cost)
        stat = np.full(ncols, AT_LOWER, dtype=np.int8)
        stat[: self.n][(self.c > 0) & np.isfinite(self.ub)] = AT_UPPER
        self.basis = np.arange(self.n, ncols)
        stat[self.basis] = BASIC
        self.stat = stat

    def _refactor(self):
        try:
            self._Binv = np.linalg.inv(self._A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise LpError("basis matrix singular") from exc
        self._since_refactor = 0

    def _compute_x(self):
        x = np.where(self.stat == AT_UPPER, self._u, self._l)
        x[~np.isfinite(x)] = 0.0
        x[self.basis] = 0.0
        x[self.basis] = self._Binv @ (self._b - self._A @ x)
        self._x = x

    def _infeasible_rows(self):
        """Masks of the basic rows below their lower / above their upper bound."""
        xb = self._x[self.basis]
        below = xb < self._l[self.basis] - FEAS_TOL
        above = xb > self._u[self.basis] + FEAS_TOL
        return below, above

    def _iterate(self, phase1):
        """Pivot until no column prices out; False if phase 1 gets stuck.

        Phase 1 maximizes g . x_B with g = +1 on rows below their lower bound
        and -1 on rows above their upper bound, all column costs 0; phase 2
        maximizes c^T x. Both price with d = c - (c_B B^-1) A.
        """
        stall = 0
        while True:
            if phase1:
                below, above = self._infeasible_rows()
                if not (below.any() or above.any()):
                    return True
                c, c_basic = 0.0, below.astype(float) - above
            else:
                below = above = np.zeros(len(self.basis), dtype=bool)
                c, c_basic = self._cost, self._cost[self.basis]
            if self.iterations > self.MAX_ITERS:
                raise LpError("simplex iteration limit exceeded")
            d = c - (c_basic @ self._Binv) @ self._A
            bland = stall > self.BLAND_AFTER
            j = self._choose_entering(d, bland)
            if j is None:
                self._d = d
                # phase 1: infeasibility cannot be reduced, the LP is infeasible
                return not phase1
            moved = self._step(j, below, above, bland)
            stall = 0 if moved else stall + 1

    def _choose_entering(self, d, bland):
        """Column whose reduced cost improves the objective, or None.

        Dantzig takes the first largest |d|, Bland the first eligible column.
        """
        eligible = self._movable & (
            ((self.stat == AT_LOWER) & (d > OPT_TOL))
            | ((self.stat == AT_UPPER) & (d < -OPT_TOL))
        )
        if not eligible.any():
            return None
        if bland:
            return int(np.argmax(eligible))
        return int(np.argmax(np.where(eligible, np.abs(d), 0.0)))

    def _step(self, j, below, above, bland):
        """Move entering column j off its bound; returns True if t > 0.

        ``below`` and ``above`` mark the basic rows outside their bounds in
        phase 1; both are all False in phase 2.
        """
        s = 1.0 if self.stat[j] == AT_LOWER else -1.0
        alpha = self._Binv @ self._A[:, j]
        delta = -s * alpha  # change of basic values per unit step
        xb = self._x[self.basis]
        lB, uB = self._l[self.basis], self._u[self.basis]

        # ratio test: a feasible row blocks at the bound it moves toward; a
        # row below its lower bound blocks there only while rising, a row
        # above its upper bound only while falling
        rising = delta > 0
        to_upper = (rising & ~below) | above
        target = np.where(to_upper, uB, lB)
        away = (below & ~rising) | (above & rising)
        blocks = (np.abs(delta) >= self.PIVOT_TOL) & ~away & np.isfinite(target)
        rows = np.flatnonzero(blocks)
        ratio = np.maximum((target[rows] - xb[rows]) / delta[rows], 0.0)

        t = self._u[j] - self._l[j]
        leave_row = None
        if rows.size and (t_min := ratio.min()) < t - 1e-12:
            # ties within 1e-12 of the minimum: the largest pivot, or the
            # lowest basis index under Bland
            near = np.flatnonzero(ratio < t_min + 1e-12)
            if bland:
                k = near[np.argmin(self.basis[rows[near]])]
            else:
                k = near[np.argmax(np.abs(delta[rows[near]]))]
            leave_row, t = int(rows[k]), float(ratio[k])
        if not np.isfinite(t):
            raise LpError("unbounded simplex direction")
        self.iterations += 1

        if leave_row is None:
            # entering variable hits its own opposite bound
            if t > 0:
                self._x[j] += s * t
                self._x[self.basis] = xb + t * delta
            self.stat[j] = AT_UPPER if s > 0 else AT_LOWER
            return t > 1e-12

        leaving = self.basis[leave_row]
        self.stat[leaving] = AT_UPPER if to_upper[leave_row] else AT_LOWER
        self.stat[j] = BASIC
        self.basis[leave_row] = j

        # product-form update of the basis inverse; |pivot| >= PIVOT_TOL
        pivot_row = self._Binv[leave_row]
        pivot_row /= alpha[leave_row]
        others = np.abs(alpha) > 1e-14
        others[leave_row] = False
        self._Binv[others] -= np.outer(alpha[others], pivot_row)
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
