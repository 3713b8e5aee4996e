"""Variable fixing from LP reduced costs against the incumbent value.

An edge at a nonbasic bound whose flip would degrade the node's LP bound
below the incumbent is fixed at that bound for the rest of the subtree.
Fixed edges need no parity check: a cycle of fixed edges with an odd number
of cut edges violates its cycle inequality by 1, which exact separation finds,
so such a node becomes LP-infeasible or is branched.
"""

from __future__ import annotations

import math

from .lp import AT_LOWER, AT_UPPER

FIX_TOL = 1e-9
INT_SNAP = 1e-6


def effective_bound(bound, integral):
    """An LP bound rounded down to the next integer when all weights are."""
    if integral:
        return math.floor(bound + INT_SNAP)
    return bound


def reduced_cost_fix(g, state, upper_bound, incumbent, lb, ub, integral=False):
    """Edges whose flip would push the bound below the incumbent.

    Returns a list of (edge id, value) fixings at the edge's current nonbasic
    bound. ``upper_bound`` is the LP objective of the current node.
    """
    fixes = []
    for e in range(g.m):
        if ub[e] - lb[e] < 0.5:
            continue
        status = state.basis_status[e]
        if status == AT_LOWER or status == AT_UPPER:
            degraded = effective_bound(
                upper_bound - abs(state.reduced_costs[e]), integral
            )
            if degraded < incumbent - FIX_TOL:
                fixes.append((e, 0 if status == AT_LOWER else 1))
    return fixes


def propagate(g, state, upper_bound, incumbent, lb, ub, fixed_edges,
              integral=False):
    """One reduced-cost fixing pass; mutates nothing.

    Returns (new fixings dict overlaying ``fixed_edges``, node_infeasible).
    ``node_infeasible`` is always False: reduced-cost fixing only fixes free
    edges, so it never contradicts a fixing, and the pair is kept for callers
    that unpack it.
    """
    new_fixed = dict(fixed_edges)
    new_fixed.update(
        reduced_cost_fix(g, state, upper_bound, incumbent, lb, ub, integral)
    )
    return new_fixed, False
