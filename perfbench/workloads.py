"""Seeded instance generators, the benchmark's workloads, and result checks.

Every instance is a function of (workload seed, family, index) only, so the
same seed gives byte-identical instance files. The checks here share no code
with sparsecut: objectives are recomputed from the generated terms, and brute
force enumerates assignments directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sparsecut
from sparsecut import RawMaxCutInstance, RawQuboInstance, write_maxcut, write_qubo

# Salts that keep the random streams of the families apart.
_FAMILY_SALT = {"spinglass": 1, "blocks": 2, "qubo_field": 3}


@dataclass
class Instance:
    name: str
    fmt: str  # "mc" (max-cut, maximize) or "bq" (QUBO, minimize)
    n: int
    terms: list[tuple[int, int, int]]  # 1-based (u, v, w) edges or (i, j, q) entries
    blocks: list[list[tuple[int, int, int]]] = field(default_factory=list)

    def text(self) -> str:
        if self.fmt == "mc":
            return write_maxcut(RawMaxCutInstance(self.n, self.terms))
        return write_qubo(RawQuboInstance(self.n, self.terms))

    def filename(self) -> str:
        return f"{self.name}.{self.fmt}"


def _rng(seed, family, index):
    return np.random.default_rng([seed, _FAMILY_SALT[family], index])


def torus_edges(L, rng, weights):
    """Edges (u, v, w) of an L x L toroidal grid, 1-based with u < v.

    ``weights`` is "pm1" (uniform +-1) or "gauss" (standard normal x 1e5,
    rounded to integers).
    """
    pairs = []
    for i in range(L):
        for j in range(L):
            v = i * L + j
            for nb in (i * L + (j + 1) % L, ((i + 1) % L) * L + j):
                pairs.append((min(v, nb) + 1, max(v, nb) + 1))
    if weights == "pm1":
        w = rng.choice([-1, 1], size=len(pairs))
    else:
        w = np.rint(rng.normal(size=len(pairs)) * 1e5)
    return [(u, v, int(x)) for (u, v), x in zip(pairs, w)]


def block_tree(n_target, rng, lo=6, hi=16, weight=10, chord_p=0.6):
    """A random block tree of at least ``n_target`` vertices.

    Each block is a Hamiltonian cycle on lo..hi vertices plus random chords, so
    it is biconnected. Every block after the first shares one random existing
    vertex, which becomes an articulation vertex. Weights are nonzero integers
    in [-weight, weight]. Returns (n, edges, edges of each block).
    """
    blocks = []
    n = 0
    while n < n_target:
        size = int(rng.integers(lo, hi + 1))
        if n == 0:
            verts = list(range(size))
            n = size
        else:
            verts = [int(rng.integers(0, n))] + list(range(n, n + size - 1))
            n += size - 1
        order = [verts[k] for k in rng.permutation(size)]
        pairs = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:] + order[:1])}
        for a in range(size):
            for b in range(a + 1, size):
                if rng.random() < chord_p:
                    pairs.add((min(verts[a], verts[b]), max(verts[a], verts[b])))
        block = []
        for a, b in sorted(pairs):
            w = int(rng.integers(1, weight + 1)) * int(rng.choice([-1, 1]))
            block.append((a + 1, b + 1, w))
        blocks.append(block)
    return n, [e for block in blocks for e in block], blocks


def field_qubo_entries(L, rng, coupling=4, field=1):
    """QUBO entries: +-coupling on the edges of an L x L torus, +-field diagonal.

    Each coupling is one upper-triangle entry (i, j, q), i < j. The field is a
    quarter of a coupling, weak enough that presolve alone settles only about
    a third of the instances, so most reach the LP.
    """
    entries = [(i, j, q * coupling) for i, j, q in torus_edges(L, rng, "pm1")]
    signs = rng.choice([-1, 1], size=L * L)
    return entries + [(i + 1, i + 1, int(h) * field) for i, h in enumerate(signs)]


# -- families ---------------------------------------------------------------

def spinglass(seed, count, pm1_L=5, gauss_L=6):
    """Toroidal spin glasses, alternating +-1 and Gaussian weights."""
    out = []
    for i in range(count):
        rng = _rng(seed, "spinglass", i)
        kind, L = ("pm1", pm1_L) if i % 2 == 0 else ("gauss", gauss_L)
        out.append(Instance(f"spinglass-{i:03d}-{kind}-L{L}", "mc", L * L,
                            torus_edges(L, rng, kind)))
    return out


def blocks(seed, count, n_target=400):
    """Block trees of small dense blocks glued at articulation vertices."""
    out = []
    for i in range(count):
        n, edges, parts = block_tree(n_target, _rng(seed, "blocks", i))
        out.append(Instance(f"blocks-{i:03d}-n{n}", "mc", n, edges, parts))
    return out


def qubo_field(seed, count, L=5):
    """Field QUBOs; the max-cut reduction joins a hub vertex to every variable."""
    out = []
    for i in range(count):
        rng = _rng(seed, "qubo_field", i)
        out.append(Instance(f"qubo_field-{i:03d}-L{L}", "bq", L * L,
                            field_qubo_entries(L, rng)))
    return out


# Instances per workload. Each workload is the family of the same name. The
# sizes make one pass over a list take about 24 s on a 2-vCPU x86 VM: many
# small instances, because instance difficulty varies with the seed and only a
# long list keeps the total steady from seed to seed.
WORKLOADS = {"spinglass": 90, "blocks": 6, "qubo_field": 250}

_FAMILIES = {"spinglass": spinglass, "blocks": blocks, "qubo_field": qubo_field}


def instances(workload, seed):
    """The instance list of a workload for a seed."""
    return _FAMILIES[workload](seed, WORKLOADS[workload])


def solve(fmt, text, cfg):
    """Parse and solve instance text through the public API, as the command
    line does. Names are looked up on the package at call time, so the
    tracer's wrappers apply."""
    if fmt == "bq":
        return sparsecut.solve_qubo(sparsecut.parse_qubo(text), cfg)
    return sparsecut.solve_maxcut(sparsecut.parse_maxcut(text), cfg)


def write_instances(insts, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    for inst in insts:
        (directory / inst.filename()).write_text(inst.text())


# -- checks -----------------------------------------------------------------

def objective(inst: Instance, assignment) -> float:
    """Cut weight (mc) or x^T Q x (bq) of a 1-based vertex/variable -> {0,1} map."""
    total = 0
    if inst.fmt == "mc":
        for u, v, w in inst.terms:
            if assignment[u] != assignment[v]:
                total += w
    else:
        for i, j, q in inst.terms:
            total += q * assignment[i] * assignment[j]
    return float(total)


_CHUNK = 1 << 18


def _brute_force(num_vars, terms, pairwise):
    """Best value over all 0/1 assignments of ``num_vars`` bits.

    ``pairwise(bits_i, bits_j)`` gives each term's 0/1 indicator; term indices
    are 0-based bit positions, or -1 for a bit pinned to 0. Maximizes.
    """
    best = -np.inf
    total = 1 << num_vars
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(total, start + _CHUNK), dtype=np.int64)
        bits = [(idx >> k) & 1 for k in range(num_vars)] + [np.zeros_like(idx)]
        value = np.zeros_like(idx)
        for i, j, w in terms:
            value += w * pairwise(bits[i], bits[j])
        best = max(best, int(value.max()))
    return float(best)


def brute_force_maxcut(n, edges):
    """Max-cut by enumeration; vertex 1 is pinned to side 0."""
    terms = [(u - 2, v - 2, w) for u, v, w in edges]
    return _brute_force(n - 1, terms, lambda a, b: a ^ b)


def brute_force_qubo(n, entries):
    """min x^T Q x by enumeration over all 2^n assignments."""
    terms = [(i - 1, j - 1, -q) for i, j, q in entries]
    return -_brute_force(n, terms, lambda a, b: a & b)


def block_tree_optimum(inst: Instance) -> float:
    """Max-cut of a block tree: the sum of its blocks' optima.

    Blocks share only articulation vertices and the block-cut tree is a tree,
    so each block's optimal cut can be flipped to agree with its neighbours.
    """
    total = 0.0
    for block in inst.blocks:
        verts = sorted({v for e in block for v in e[:2]})
        local = {v: k + 1 for k, v in enumerate(verts)}
        total += brute_force_maxcut(len(verts),
                                    [(local[u], local[v], w) for u, v, w in block])
    return total


def load_reference(path: Path):
    return json.loads(path.read_text()) if path.exists() else {}
