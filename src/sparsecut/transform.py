"""QUBO <-> max-cut reductions.

Both directions use the classic one-extra-vertex construction: QUBO variable
i is graph vertex i + 1, and vertex 1 is pinned to side 0. The identity,
checked exhaustively in the tests, is

    x^T Q x == -cut(y(x))

for *every* binary assignment x, where y(x) puts vertex 1 on side 0 and
vertex i + 1 on side x_i.
"""

from __future__ import annotations

from .instances import RawMaxCutInstance, RawQuboInstance


def _collect_coefficients(q: RawQuboInstance):
    """Linear terms c_i and symmetrized quadratic terms a_ij (i < j).

    x^T Q x over binaries equals sum_i Q_ii x_i + sum_{i<j} (Q_ij + Q_ji) x_i x_j,
    so only the symmetric part of Q matters.
    """
    linear = [0.0] * (q.dimension + 1)
    quad: dict[tuple[int, int], float] = {}
    for i, j, coef in q.entries:
        if i == j:
            linear[i] += coef
        else:
            key = (i, j) if i < j else (j, i)
            quad[key] = quad.get(key, 0.0) + coef
    return linear, quad


def qubo_to_maxcut(q: RawQuboInstance):
    """Reduce min x^T Q x to max-cut on dimension+1 vertices (root = vertex 1).

    Graph vertices: 1 is the root (side 0), variable i maps to vertex i+1.
    For every x: x^T Q x == -cutweight(y(x)).
    """
    linear, quad = _collect_coefficients(q)
    n = q.dimension
    degree_sum = [0.0] * (n + 1)
    for (i, j), a in quad.items():
        degree_sum[i] += a
        degree_sum[j] += a

    edges = []
    for i in range(1, n + 1):
        w = -(linear[i] + 0.5 * degree_sum[i])
        if w != 0.0:
            edges.append((1, i + 1, w))
    for (i, j), a in sorted(quad.items()):
        w = 0.5 * a
        if w != 0.0:
            edges.append((i + 1, j + 1, w))

    return RawMaxCutInstance(num_vertices=n + 1, edges=edges)


def maxcut_to_qubo(g: RawMaxCutInstance):
    """Reduce max-cut to a QUBO on |V|-1 variables (vertex 1 pinned to side 0).

    Variable i corresponds to vertex i+1. For every assignment with the pinned
    vertex on side 0: cutweight(y) == -(x^T Q x).
    """
    n = g.num_vertices - 1
    diag = [0.0] * (n + 1)
    offdiag: dict[tuple[int, int], float] = {}
    for u, v, w in g.edges:
        if u > v:
            u, v = v, u
        if u == 1:
            diag[v - 1] += -w
        else:
            i, j = u - 1, v - 1
            diag[i] += -w
            diag[j] += -w
            offdiag[(i, j)] = offdiag.get((i, j), 0.0) + 2.0 * w

    entries = []
    for i in range(1, n + 1):
        if diag[i] != 0.0:
            entries.append((i, i, diag[i]))
    for (i, j), coef in sorted(offdiag.items()):
        if coef != 0.0:
            entries.append((i, j, coef))

    return RawQuboInstance(dimension=max(n, 1), entries=entries)


def maxcut_assignment_from_qubo(x, num_vertices):
    """Map QUBO variables (1-based dict/list) to the max-cut partition."""
    partition = {1: 0}
    for i in range(1, num_vertices):
        partition[i + 1] = int(x[i])
    return partition


def qubo_assignment_from_maxcut(partition, dimension):
    """Map a max-cut partition back to QUBO variables, normalizing vertex 1 to 0."""
    flip = partition[1]
    return {i: int(partition[i + 1]) ^ flip for i in range(1, dimension + 1)}
