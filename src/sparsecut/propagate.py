"""Variable fixing from LP reduced costs against the incumbent value.

Fixed edges partition the touched vertices into relation components (same /
opposite side), tracked by a parity union-find. Reduced-cost fixing works per
nonbasic edge; implication fixing tests, per unassigned vertex and per
adjacent relation component, which side relation survives the bound
degradation argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .lp import AT_LOWER, AT_UPPER

FIX_TOL = 1e-9
INT_SNAP = 1e-6


@dataclass
class PartialAssignment:
    """Relation components induced by fixed edges.

    ``side[v]`` is v's side relative to the lowest-id vertex of its component
    (which gets side 0); ``comp[v]`` is that anchor vertex. Vertices untouched
    by any fixed edge are absent from both maps.
    """

    side: dict = field(default_factory=dict)
    comp: dict = field(default_factory=dict)
    infeasible: bool = False


def rebuild_partial_assignment(g, fixed_edges) -> PartialAssignment:
    """Union-find with parity over ``fixed_edges`` (edge id -> 0/1).

    A cycle of fixed edges with odd crossing parity marks the node infeasible.
    """
    parent: dict[int, int] = {}
    parity: dict[int, int] = {}  # parity relative to the union-find parent

    def find(v):
        root, p = v, 0
        while parent[root] != root:
            p ^= parity[root]
            root = parent[root]
        # path compression with parity accumulation
        while parent[v] != root:
            nxt, np_ = parent[v], parity[v]
            parent[v], parity[v] = root, p
            p ^= np_
            v = nxt
        return root

    def rel(v):
        find(v)
        return parity[v] if parent[v] != v else 0

    out = PartialAssignment()
    for e, val in fixed_edges.items():
        u, v = g.edge_endpoints(e)
        for z in (u, v):
            if z not in parent:
                parent[z] = z
                parity[z] = 0
        ru, rv = find(u), find(v)
        pu, pv = rel(u), rel(v)
        if ru == rv:
            if pu ^ pv != val:
                out.infeasible = True
                return out
            continue
        # attach the higher root so the lowest id stays the anchor
        if ru < rv:
            parent[rv] = ru
            parity[rv] = pu ^ pv ^ val
        else:
            parent[ru] = rv
            parity[ru] = pu ^ pv ^ val

    for v in parent:
        root = find(v)
        out.comp[v] = root
        out.side[v] = rel(v)
    return out


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


def implication_fix(g, state, upper_bound, incumbent, lb, ub, assignment,
                    integral=False):
    """Side fixing of unassigned vertices against adjacent relation components.

    For vertex u next to fixed component K, hypothesising u's side relative to
    K's anchor forces each edge from u into K to a specific value; nonbasic
    edges forced off their bound each degrade the node bound by their reduced
    cost magnitude. A hypothesis whose degraded bound drops below the
    incumbent is discarded; if both sides die the node is infeasible.

    Returns (edge fixings as (edge id, value) pairs, node_infeasible).
    """
    if assignment.infeasible:
        return [], True
    fixes = []
    for u in range(g.n):
        if u in assignment.side:
            continue
        heads, eids, _ = g.incident(u)
        groups: dict[int, list[int]] = {}
        for v, e in zip(heads, eids):
            v = int(v)
            if v in assignment.side:
                groups.setdefault(assignment.comp[v], []).append(int(e))
        for anchor, edges in groups.items():
            penalty = [0.0, 0.0]  # hypothesis: u on side s of the anchor
            for e in edges:
                u0, v0 = g.edge_endpoints(e)
                other = v0 if u0 == u else u0
                status = state.basis_status[e]
                for s in (0, 1):
                    required = assignment.side[other] ^ s
                    if status == AT_LOWER and required == 1:
                        penalty[s] += abs(state.reduced_costs[e])
                    elif status == AT_UPPER and required == 0:
                        penalty[s] += abs(state.reduced_costs[e])
            dead = [
                effective_bound(upper_bound - penalty[s], integral)
                < incumbent - FIX_TOL
                for s in (0, 1)
            ]
            if dead[0] and dead[1]:
                return [], True
            if dead[0] or dead[1]:
                side = 1 if dead[0] else 0
                for e in edges:
                    u0, v0 = g.edge_endpoints(e)
                    other = v0 if u0 == u else u0
                    val = assignment.side[other] ^ side
                    if ub[e] - lb[e] > 0.5:
                        fixes.append((e, val))
    return fixes, False


def propagate(g, state, upper_bound, incumbent, lb, ub, fixed_edges,
              integral=False):
    """One reduced-cost + implication pass; mutates nothing.

    Returns (new fixings dict overlaying ``fixed_edges``, node_infeasible).
    """
    new_fixed = dict(fixed_edges)
    for e, val in reduced_cost_fix(g, state, upper_bound, incumbent, lb, ub,
                                   integral):
        prev = new_fixed.get(e)
        if prev is not None and prev != val:
            return new_fixed, True
        new_fixed[e] = val
    assignment = rebuild_partial_assignment(g, new_fixed)
    if assignment.infeasible:
        return new_fixed, True
    imp, dead = implication_fix(g, state, upper_bound, incumbent, lb, ub,
                                assignment, integral)
    if dead:
        return new_fixed, True
    for e, val in imp:
        prev = new_fixed.get(e)
        if prev is not None and prev != val:
            return new_fixed, True
        new_fixed[e] = val
    # parity check once more with the implication fixes folded in
    if rebuild_partial_assignment(g, new_fixed).infeasible:
        return new_fixed, True
    return new_fixed, False
