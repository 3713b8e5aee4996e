"""LP relaxation over the current cycle-cut pool.

The relaxation is  max w^T x  subject to the pool's cycle inequalities and the
per-edge bounds [lb, ub] within [0, 1]. :class:`LpEngine` owns the cut pool
and a warm-started bounded-variable dual simplex: a dense basis inverse kept
by product-form (eta) updates, refactorized every REFACTOR_EVERY pivots, a
dual steepest-edge choice of the leaving row and a bound-flipping ratio test.
Every column is boxed, so any basis becomes dual feasible by moving nonbasic
columns to the bounds their reduced costs prefer: after added cuts or changed
bounds, a solve starts from the previous basis without a phase 1. The inverse
is carried across solves, new bounds, added cuts (bordered) and purged cuts
whose slacks are basic; the slack identity is never multiplied, and the
duals are updated along the pivot row and priced exactly before a solve
returns. A solve still running at its deadline raises :class:`TimeUp`.

The pool keeps its cuts in row order with an age array beside them; a purge
removes the rows aged AGE_LIMIT from the pool and the simplex together.

Reduced-cost sign convention (maximization): nonbasic-at-lower variables have
reduced cost <= 0, nonbasic-at-upper >= 0, basic exactly 0. Forcing a nonbasic
edge to its opposite bound degrades the LP bound by at least |reduced cost|.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

BASIC, AT_LOWER, AT_UPPER = 0, 1, 2
# per status, the sign of a tableau entry alpha_rj for which moving nonbasic
# column j off its bound drives the leaving variable toward its violated bound
_REPAIR_SIGN = np.array([0.0, -1.0, 1.0])

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
VIOLATION_TOL = 1e-5
PURGE_SLACK_TOL = 1e-7
AGE_LIMIT = 10

log = logging.getLogger("sparsecut")


class LpError(RuntimeError):
    """Unrecoverable numerical failure in the LP engine."""


class TimeUp(Exception):
    """The deadline passed before the work finished: it gives no result.
    Not an LpError, so the cold restart never retries it."""


def expired(deadline):
    """Whether ``time.monotonic()`` has passed ``deadline``; ``None`` never
    expires and reads no clock."""
    return deadline is not None and time.monotonic() >= deadline


def cycle_key(edges, in_f):
    """Identity of a cycle with odd set F: its edge ids, with ~e for e in F."""
    return frozenset(~e if flag else e for e, flag in zip(edges, in_f))


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

    @cached_property
    def key(self):
        return cycle_key(self.edges, self.in_f)

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


class CutPool:
    """Active cycle cuts in LP row order: ``entries[i]`` is row i of the
    simplex, and ``ages[i]`` counts the solves in a row that left it
    nonbinding. A cut whose key is already in the pool is refused."""

    def __init__(self):
        self.entries: list[CycleCut] = []
        self.ages = np.zeros(0, dtype=np.int64)
        self._keys: set = set()

    def __len__(self):
        return len(self.entries)

    def add(self, cuts):
        """Append the cuts not yet in the pool, at age 0; returns them."""
        new = []
        for cut in cuts:
            if cut.key not in self._keys:
                self._keys.add(cut.key)
                new.append(cut)
        self.entries += new
        self.ages = np.concatenate([self.ages, np.zeros(len(new), dtype=np.int64)])
        return new

    def remove_indices(self, indices):
        keep = np.ones(len(self.entries), dtype=bool)
        keep[indices] = False
        for i in indices:
            self._keys.discard(self.entries[i].key)
        self.entries = [cut for cut, kept in zip(self.entries, keep) if kept]
        self.ages = self.ages[keep]


class _BoundedSimplex:
    """Dual simplex for  max c^T x,  A x <= b,  l <= x <= u (dense). Column
    j < n is edge j and column n + i the slack of row i, whose identity column
    is never stored; the rows live in one array that doubles when full."""

    REFACTOR_EVERY = 64
    BLAND_AFTER = 50     # degenerate pivots in a row before Bland's rule
    PIVOT_TOL = 1e-8
    MAX_ITERS = 50_000
    DEADLINE_EVERY = 32  # pivots between two looks at the clock

    def __init__(self, c, lb, ub, deadline=None):
        self.n = len(c)
        self.c = np.asarray(c, dtype=float)
        self.lb = np.asarray(lb, dtype=float).copy()
        self.ub = np.asarray(ub, dtype=float).copy()
        self.deadline = deadline
        self._rows, self._rhs = np.zeros((16, self.n)), np.zeros(16)
        self.rows, self.rhs = self._rows[:0], self._rhs[:0]  # views of the first m
        self.reset_basis()
        self.iterations = 0
        # dual ratios are reduced costs over tableau entries, so ties between
        # them are judged on the scale of the weights
        self._tie = 1e-12 * max(1.0, float(np.abs(self.c).max(initial=0.0)))

    # -- model edits ------------------------------------------------------

    def add_rows(self, rows, rhs):
        """Append rows (k x n) with basic slacks. A basic slack has reduced
        cost 0, so the basis stays dual feasible, and the new rows (N_B, I)
        of B border B^-1 with the rows (-N_B B^-1, I)."""
        n, m, k = self.n, len(self.rhs), len(rhs)
        while m + k > len(self._rhs):  # grow the store by doubling
            self._rows = np.concatenate([self._rows, np.zeros_like(self._rows)])
            self._rhs = np.concatenate([self._rhs, np.zeros_like(self._rhs)])
        self._rows[m : m + k], self._rhs[m : m + k] = rows, rhs
        self.rows, self.rhs = self._rows[: m + k], self._rhs[: m + k]
        if self._Binv is not None:
            nb = np.hstack([self.rows[m:], np.zeros((k, m))])[:, self.basis]
            self._Binv = np.block([[self._Binv, np.zeros((m, k))],
                                   [-(nb @ self._Binv), np.eye(k)]])
        if self.basis is not None:
            self.basis = np.concatenate([self.basis, np.arange(n + m, n + m + k)])
            self.stat = np.concatenate([self.stat, np.full(k, BASIC, dtype=np.int8)])

    def remove_rows(self, indices):
        """Delete rows. When every deleted row's slack is basic, the basis
        stays: deleting a unit column of B and its row deletes one row and
        one column of B^-1. Otherwise the basis is reset."""
        n, keep = self.n, np.ones(len(self.rhs), dtype=bool)
        keep[list(indices)] = False
        if self.basis is None or np.any(self.stat[n:][~keep] != BASIC):
            self.reset_basis()
        else:
            kept = np.isin(self.basis, n + np.flatnonzero(~keep), invert=True)
            if self._Binv is not None:
                self._Binv = self._Binv[np.ix_(kept, keep)]
            cols = np.concatenate([np.ones(n, dtype=bool), keep])
            self.basis = (np.cumsum(cols) - 1)[self.basis[kept]]
            self.stat = self.stat[cols]
        m = int(keep.sum())
        self._rows[:m], self._rhs[:m] = self.rows[keep], self.rhs[keep]
        self.rows, self.rhs = self._rows[:m], self._rhs[:m]

    def set_bounds(self, lb, ub):
        self.lb = np.asarray(lb, dtype=float).copy()
        self.ub = np.asarray(ub, dtype=float).copy()

    def reset_basis(self):
        self.basis = self.stat = self._Binv = None

    # -- solve ------------------------------------------------------------

    def solve(self):
        """Dual simplex from the warm (else slack) basis. Returns True at an
        optimum and False if infeasible; raises TimeUp once the deadline has
        passed, looking at the clock every DEADLINE_EVERY pivots.

        After BLAND_AFTER degenerate pivots in a row, Bland's rule picks the
        rows and columns until a pivot makes progress, and the costs are
        perturbed until the point is feasible; the solve then goes on with
        the true costs.
        """
        n, m = self.n, len(self.rhs)
        A = self.rows
        # a slack's upper bound is implied by the edge bounds: every column
        # is boxed, so any basis becomes dual feasible by bound moves alone
        low = np.minimum(A, 0.0) @ self.ub + np.maximum(A, 0.0) @ self.lb
        self._l = np.concatenate([self.lb, np.zeros(m)])
        self._u = np.concatenate([self.ub, np.maximum(self.rhs - low, 0.0)])
        self._cost = np.concatenate([self.c, np.zeros(m)])
        self._range = self._u - self._l
        self._movable = self._range > FEAS_TOL

        if self.basis is None:
            self.basis = np.arange(n, n + m)
            self.stat = np.full(n + m, AT_LOWER, dtype=np.int8)
            self.stat[self.basis] = BASIC
        if self._Binv is None:
            self._refactor()
        self.iterations = 0
        d = self._make_dual_feasible(perturb=False)
        stall = 0
        perturbed = False
        while True:
            x = self._x
            viol = np.maximum(self._l - x, x - self._u)[self.basis]
            rows = np.flatnonzero(viol > FEAS_TOL)
            if not rows.size and perturbed:
                d = self._make_dual_feasible(perturb=False)
                perturbed = False
                continue
            if not rows.size:
                # reduced-cost fixing reads exact reduced costs
                self._d = self._price() if self.iterations else d
                return True
            if self.iterations > self.MAX_ITERS:
                raise LpError("simplex iteration limit exceeded")
            if (self.iterations % self.DEADLINE_EVERY == self.DEADLINE_EVERY - 1
                    and expired(self.deadline)):
                raise TimeUp
            bland = stall > self.BLAND_AFTER
            if bland and not perturbed:
                # the bound moves can change the point: read it again
                d = self._make_dual_feasible(perturb=True)
                perturbed = True
                continue
            # leaving row: the largest violation per unit dual steepest-edge
            # norm |B^-1[i]|, or the lowest basis index
            if bland:
                r = rows[np.argmin(self.basis[rows])]
            else:
                rho = self._Binv[rows]
                r = rows[np.argmax(viol[rows] ** 2 / np.einsum("ij,ij->i", rho, rho))]
            leaving = self.basis[r]
            to_lower = x[leaving] < self._l[leaving]
            rho = self._Binv[r]
            alpha = np.concatenate([rho @ A, rho])  # row r of B^-1 [A | I]
            step = self._ratio_test(alpha if to_lower else -alpha, viol[r], d, bland)
            if step is None:
                return False
            q, flips = step
            stall = 0 if abs(d[q]) > OPT_TOL else stall + 1
            self.stat[flips] = AT_LOWER + AT_UPPER - self.stat[flips]
            self.stat[leaving] = AT_LOWER if to_lower else AT_UPPER
            self.stat[q] = BASIC
            self.basis[r] = q
            # the duals move along the tableau row until d_q reaches 0
            d -= (d[q] / alpha[q]) * alpha
            d[q] = 0.0

            # product-form update of the basis inverse; |pivot| >= PIVOT_TOL
            col = self._Binv @ A[:, q] if q < n else self._Binv[:, q - n].copy()
            pivot_row = self._Binv[r] / col[r]
            self._Binv -= col[:, None] * pivot_row
            self._Binv[r] = pivot_row
            self.iterations += 1
            self._since_refactor += 1
            if self._since_refactor >= self.REFACTOR_EVERY:
                self._refactor()
                d = self._price()
            self._compute_x()

    def _make_dual_feasible(self, perturb):
        """Reduced costs, with each nonbasic movable column put at the bound
        its reduced cost prefers. With ``perturb`` the columns among them,
        slacks too, then have their costs moved 1e-7 to 2e-7 further into
        that side, relative to the edge's weight or, for a slack, to the
        largest weight; this breaks the ties of a degenerate vertex, the
        zero duals of its tight cuts among them. Else the costs are the true
        ones.
        """
        self._cost[: self.n] = self.c
        self._cost[self.n :] = 0.0
        d = self._price()
        free = self._movable & (self.stat != BASIC)
        self.stat[free & (d > OPT_TOL)] = AT_UPPER
        self.stat[free & (d < -OPT_TOL)] = AT_LOWER
        if perturb:
            e = np.flatnonzero(free)
            weight = np.full(e.size, np.abs(self.c).max(initial=0.0))
            edges = e < self.n
            weight[edges] = np.abs(self.c[e[edges]])
            shift = 1e-7 * np.maximum(1.0, weight)
            shift *= 1.0 + np.random.default_rng(0).random(e.size)
            self._cost[e] += np.where(self.stat[e] == AT_UPPER, shift, -shift)
            d = self._price()
        self._compute_x()
        return d

    def _price(self):
        """Reduced costs d = c - y [A | I] with y = c_B B^-1: c - y A for the
        edges and c - y for the slacks, whose costs are 0 unless perturbed."""
        y = self._cost[self.basis] @ self._Binv
        return np.concatenate([self._cost[: self.n] - y @ self.rows,
                               self._cost[self.n :] - y])

    def _ratio_test(self, alpha, violation, d, bland):
        """(entering column, columns to flip) for the leaving row's tableau
        row ``alpha``, signed so that the row's violation is repaired by
        moving toward the violated bound, or None if no nonbasic move repairs
        the row: the LP is infeasible.

        Each column that moves the leaving variable toward its violated bound
        has a breakpoint d_j / alpha_rj of the dual step. Passing it flips the
        column to its other bound, which repairs |alpha_rj| (u_j - l_j) of the
        violation; the column whose flip would leave at most FEAS_TOL enters.
        Ties go to the largest |alpha_rj|, or the lowest column under Bland.
        """
        t = alpha * _REPAIR_SIGN[self.stat]
        cols = np.flatnonzero((t >= self.PIVOT_TOL) & self._movable)
        weight = t[cols]  # |alpha_rj|
        ratio = np.maximum(d[cols] / alpha[cols], 0.0)
        order = np.argsort(ratio, kind="stable")
        cols, ratio, weight = cols[order], ratio[order], weight[order]
        repaired = np.cumsum(weight * self._range[cols])
        k = int(np.searchsorted(repaired, violation - FEAS_TOL))
        if k == cols.size:
            return None
        end = np.searchsorted(ratio, ratio[k] + self._tie, "right")
        if bland:
            return int(cols[k:end].min()), cols[:k]
        return int(cols[k + np.argmax(weight[k:end])]), cols[:k]

    def _refactor(self):
        try:
            B = np.hstack([self.rows, np.eye(len(self.rhs))])[:, self.basis]
            self._Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise LpError("basis matrix singular") from exc
        self._since_refactor = 0

    def _compute_x(self):
        """Nonbasic columns at their bounds, x_B = B^-1 (b - A x_N - s_N)."""
        x = np.where(self.stat == AT_UPPER, self._u, self._l)
        x[self.basis] = 0.0
        x[self.basis] = self._Binv @ (self.rhs - self.rows @ x[: self.n] - x[self.n :])
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
    """Cut-pool LP for one max-cut (sub)instance; owns pool and warm basis.
    A solve still running at ``deadline`` (a ``time.monotonic`` value) raises
    TimeUp within DEADLINE_EVERY pivots."""

    def __init__(self, graph, deadline=None):
        self.graph = graph
        self.pool = CutPool()
        self._simplex = _BoundedSimplex(
            graph.edge_w, np.zeros(graph.m), np.ones(graph.m), deadline
        )
        self.cold_restarts = 0

    def solve(self, lb=None, ub=None) -> LpState:
        """Solve the relaxation under the given per-edge bounds (warm-started)."""
        m = self.graph.m
        lb = np.zeros(m) if lb is None else np.asarray(lb, dtype=float)
        ub = np.ones(m) if ub is None else np.asarray(ub, dtype=float)
        self._simplex.set_bounds(lb, ub)
        try:
            optimal = self._simplex.solve()
        except LpError as exc:
            # safeguarded retry from the slack basis
            self.cold_restarts += 1
            log.debug("LP cold restart: %s", exc)
            self._simplex.reset_basis()
            optimal = self._simplex.solve()
        if not optimal:
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
        self.pool.ages = np.where(
            self._simplex.row_slacks() > PURGE_SLACK_TOL, self.pool.ages + 1, 0)
        return state

    def add_cuts(self, cuts) -> int:
        """Insert deduplicated cuts as LP rows in one batch; returns the number."""
        new = self.pool.add(cuts)
        if new:
            rows = np.zeros((len(new), self.graph.m))
            for row, cut in zip(rows, new):
                row[list(cut.edges)] = np.where(cut.in_f, 1.0, -1.0)
            self._simplex.add_rows(rows, [cut.rhs for cut in new])
        return len(new)

    def purge_cuts(self) -> int:
        """Drop cuts nonbinding for AGE_LIMIT consecutive solves; the basis
        stays when all their slacks are basic."""
        doomed = np.flatnonzero(self.pool.ages >= AGE_LIMIT)
        if doomed.size:
            self.pool.remove_indices(doomed)
            self._simplex.remove_rows(doomed)
        return len(doomed)
