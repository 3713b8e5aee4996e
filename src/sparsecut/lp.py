"""LP relaxation over the current cycle-cut pool.

The relaxation is  max w^T x  subject to the pool's cycle inequalities and the
per-edge bounds [lb, ub] within [0, 1]. :class:`LpEngine` owns the cut pool
and a warm-started bounded-variable dual simplex: a dense basis inverse kept
by product-form (eta) updates with periodic refactorization, a dual
steepest-edge choice of the leaving row and a bound-flipping ratio test.
Every column is boxed, so any basis becomes dual feasible by moving nonbasic
columns to the bounds their reduced costs prefer: after added cuts or changed
bounds, a solve starts from the previous basis without a phase 1.

Reduced-cost sign convention (maximization): nonbasic-at-lower variables have
reduced cost <= 0, nonbasic-at-upper >= 0, basic exactly 0. Forcing a nonbasic
edge to its opposite bound degrades the LP bound by at least |reduced cost|.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

BASIC, AT_LOWER, AT_UPPER = 0, 1, 2

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
VIOLATION_TOL = 1e-5
PURGE_SLACK_TOL = 1e-7
AGE_LIMIT = 10

log = logging.getLogger("sparsecut")


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
    """Dual simplex for  max c^T x,  A x <= b,  l <= x <= u (dense)."""

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
        # dual ratios are reduced costs over tableau entries, so ties between
        # them are judged on the scale of the weights
        self._tie = 1e-12 * max(1.0, float(np.abs(self.c).max(initial=0.0)))

    # -- model edits ------------------------------------------------------

    def add_row(self, coeffs, rhs):
        """coeffs: iterable of (column, coefficient)."""
        row = np.zeros(self.n)
        for j, a in coeffs:
            row[j] += a
        self.rows.append(row)
        self.rhs.append(float(rhs))
        if self.basis is not None:
            # a basic slack has reduced cost 0, so the basis stays dual feasible
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
        """Dual simplex from the warm (else slack) basis; False if infeasible.

        After BLAND_AFTER degenerate pivots in a row, Bland's rule picks the
        rows and columns until a pivot makes progress, and the edge costs are
        perturbed until the point is feasible; the solve then goes on with
        the true costs.
        """
        m = len(self.rows)
        ncols = self.n + m
        A = np.array(self.rows, dtype=float).reshape(m, self.n)
        self._A = np.hstack([A, np.eye(m)])
        self._b = np.asarray(self.rhs, dtype=float)
        # a slack's upper bound is implied by the edge bounds: every column
        # is boxed, so any basis becomes dual feasible by bound moves alone
        low = np.minimum(A, 0.0) @ self.ub + np.maximum(A, 0.0) @ self.lb
        self._l = np.concatenate([self.lb, np.zeros(m)])
        self._u = np.concatenate([self.ub, np.maximum(self._b - low, 0.0)])
        self._cost = np.concatenate([self.c, np.zeros(m)])
        self._movable = self._u - self._l > FEAS_TOL

        if self.basis is None:
            self.basis = np.arange(self.n, ncols)
            self.stat = np.full(ncols, AT_LOWER, dtype=np.int8)
            self.stat[self.basis] = BASIC
        self._refactor()
        self.iterations = 0
        d = self._make_dual_feasible(perturb=False)
        stall = 0
        perturbed = False
        while True:
            xb = self._x[self.basis]
            viol = np.maximum(self._l[self.basis] - xb, xb - self._u[self.basis])
            rows = np.flatnonzero(viol > FEAS_TOL)
            if not rows.size and perturbed:
                d = self._make_dual_feasible(perturb=False)
                perturbed = False
                continue
            if not rows.size:
                self._d = d
                return True
            if self.iterations > self.MAX_ITERS:
                raise LpError("simplex iteration limit exceeded")
            bland = stall > self.BLAND_AFTER
            if bland and not perturbed:
                d = self._make_dual_feasible(perturb=True)
                perturbed = True
            # leaving row: the largest violation per unit dual steepest-edge
            # norm |B^-1[i]|, or the lowest basis index
            if bland:
                r = rows[np.argmin(self.basis[rows])]
            else:
                rho = self._Binv[rows]
                r = rows[np.argmax(viol[rows] ** 2 / np.einsum("ij,ij->i", rho, rho))]
            leaving = self.basis[r]
            to_lower = xb[r] < self._l[leaving]
            step = self._ratio_test(r, to_lower, viol[r], d, bland)
            if step is None:
                return False
            q, flips = step
            stall = 0 if abs(d[q]) > OPT_TOL else stall + 1
            self.stat[flips] = AT_LOWER + AT_UPPER - self.stat[flips]
            self.stat[leaving] = AT_LOWER if to_lower else AT_UPPER
            self.stat[q] = BASIC
            self.basis[r] = q

            # product-form update of the basis inverse; |pivot| >= PIVOT_TOL
            alpha = self._Binv @ self._A[:, q]
            pivot_row = self._Binv[r]
            pivot_row /= alpha[r]
            others = np.abs(alpha) > 1e-14
            others[r] = False
            self._Binv[others] -= np.outer(alpha[others], pivot_row)
            self._since_refactor += 1
            if self._since_refactor >= self.REFACTOR_EVERY:
                self._refactor()
            self._compute_x()
            self.iterations += 1
            d = self._price()

    def _make_dual_feasible(self, perturb):
        """Reduced costs, with each nonbasic movable column put at the bound
        its reduced cost prefers. With ``perturb`` the edges among them then
        have their costs moved 1e-7 to 2e-7 (relative) further into that
        side, which breaks the ties of a degenerate vertex; else the costs are
        the true ones.
        """
        self._cost[: self.n] = self.c
        d = self._price()
        free = self._movable & (self.stat != BASIC)
        self.stat[free & (d > OPT_TOL)] = AT_UPPER
        self.stat[free & (d < -OPT_TOL)] = AT_LOWER
        if perturb:
            e = np.flatnonzero(free[: self.n])
            shift = 1e-7 * np.maximum(1.0, np.abs(self.c[e]))
            shift *= 1.0 + np.random.default_rng(0).random(e.size)
            self._cost[e] += np.where(self.stat[e] == AT_UPPER, shift, -shift)
            d = self._price()
        self._compute_x()
        return d

    def _price(self):
        """Reduced costs d = c - (c_B B^-1) [A | I]."""
        return self._cost - (self._cost[self.basis] @ self._Binv) @ self._A

    def _ratio_test(self, r, to_lower, violation, d, bland):
        """(entering column, columns to flip) for leaving row r, or None if
        no nonbasic move repairs the row: the LP is infeasible.

        Each column that moves the leaving variable toward its violated bound
        has a breakpoint d_j / alpha_rj of the dual step. Passing it flips the
        column to its other bound, which repairs |alpha_rj| (u_j - l_j) of the
        violation; the column whose flip would leave at most FEAS_TOL enters.
        Ties go to the largest |alpha_rj|, or the lowest column under Bland.
        """
        alpha = self._Binv[r] @ self._A
        if not to_lower:
            alpha = -alpha
        cols = np.flatnonzero(self._movable & (np.abs(alpha) >= self.PIVOT_TOL) & (
            ((self.stat == AT_LOWER) & (alpha < 0))
            | ((self.stat == AT_UPPER) & (alpha > 0))
        ))
        ratio = np.maximum(d[cols] / alpha[cols], 0.0)
        order = np.argsort(ratio, kind="stable")
        cols, ratio = cols[order], ratio[order]
        weight = np.abs(alpha[cols])
        repaired = np.cumsum(weight * (self._u[cols] - self._l[cols]))
        k = int(np.searchsorted(repaired, violation - FEAS_TOL))
        if k == cols.size:
            return None
        near = np.arange(k, np.searchsorted(ratio, ratio[k] + self._tie, "right"))
        if bland:
            return int(cols[near].min()), cols[:k]
        return int(cols[near[np.argmax(weight[near])]]), cols[:k]

    def _refactor(self):
        try:
            self._Binv = np.linalg.inv(self._A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise LpError("basis matrix singular") from exc
        self._since_refactor = 0

    def _compute_x(self):
        x = np.where(self.stat == AT_UPPER, self._u, self._l)
        x[self.basis] = 0.0
        x[self.basis] = self._Binv @ (self._b - self._A @ x)
        self._x = x

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
        self.cold_restarts = 0

    def solve(self, lb=None, ub=None) -> LpState:
        """Solve the relaxation under the given per-edge bounds (warm-started)."""
        m = self.graph.m
        lb = np.zeros(m) if lb is None else np.asarray(lb, dtype=float)
        ub = np.ones(m) if ub is None else np.asarray(ub, dtype=float)
        self._simplex.set_bounds(lb, ub)
        try:
            feasible = self._simplex.solve()
        except LpError as exc:
            # safeguarded retry from the slack basis
            self.cold_restarts += 1
            log.debug("LP cold restart: %s", exc)
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
