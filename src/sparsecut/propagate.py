"""Variable fixing from LP reduced costs against the incumbent value.

An edge at a nonbasic bound whose flip would degrade the node's LP bound
below the incumbent is fixed at that bound for the rest of the subtree.
Fixed edges need no parity check: a cycle of fixed edges with an odd number
of cut edges violates its cycle inequality by 1, which exact separation finds,
so such a node becomes LP-infeasible or is branched. With integer weights
the degraded bounds, like the node bounds, are rounded down to a multiple of
the weights' greatest common divisor.
"""

from __future__ import annotations

import numpy as np

from .lp import AT_UPPER, BASIC

FIX_TOL = 1e-9
INT_SNAP = 1e-6


def effective_bound(bound, unit):
    """An LP bound, or an array of them, rounded down to a multiple of
    ``unit``: the greatest common divisor of the weights when all are
    integers, as every cut then weighs a multiple of it. ``unit`` 0 leaves
    the bound as it is."""
    if unit:
        return np.floor(bound / unit + INT_SNAP) * unit
    return bound


def propagate(g, state, upper_bound, incumbent, lb, ub, fixed_edges,
              integral=0):
    """One reduced-cost fixing pass; mutates nothing.

    A free edge at a nonbasic bound is fixed there when ``upper_bound`` (the
    node's LP objective) less its |reduced cost|, rounded down by
    ``effective_bound`` to a multiple of the unit ``integral`` (True is 1,
    0 or False no rounding), falls below the incumbent.
    Returns (``fixed_edges`` overlaid with the new fixings in ascending edge
    id, node_infeasible). ``node_infeasible`` is always False: only free
    edges are fixed, so no fixing is contradicted, and the pair is kept for
    callers that unpack it.
    """
    degraded = effective_bound(upper_bound - np.abs(state.reduced_costs), integral)
    status = state.basis_status
    fix = (ub - lb >= 0.5) & (status != BASIC) & (degraded < incumbent - FIX_TOL)
    new_fixed = dict(fixed_edges)
    new_fixed.update(zip(np.flatnonzero(fix).tolist(),
                         (status[fix] == AT_UPPER).astype(int).tolist()))
    return new_fixed, False
