import itertools
import random

import pytest

from sparsecut.instances import RawMaxCutInstance, RawQuboInstance
from sparsecut.transform import (
    maxcut_assignment_from_qubo,
    maxcut_to_qubo,
    qubo_assignment_from_maxcut,
    qubo_to_maxcut,
)

from oracles import brute_force_maxcut, brute_force_qubo


def check_qubo_to_mc_identity(q):
    """x^T Q x == -cut(y(x)) must hold for every binary assignment."""
    mc = qubo_to_maxcut(q)
    for bits in itertools.product((0, 1), repeat=q.dimension):
        x = {i + 1: bits[i] for i in range(q.dimension)}
        partition = maxcut_assignment_from_qubo(x, mc.num_vertices)
        qval = sum(c * x[i] * x[j] for i, j, c in q.entries)
        assert qval == pytest.approx(
            -1.0 * mc.cut_value(partition) + 0.0
        )


def check_mc_to_qubo_identity(g):
    mc_q = maxcut_to_qubo(g)
    for bits in itertools.product((0, 1), repeat=g.num_vertices - 1):
        partition = {1: 0}
        partition.update({v + 2: bits[v] for v in range(g.num_vertices - 1)})
        x = qubo_assignment_from_maxcut(partition, mc_q.dimension)
        qval = sum(c * x[i] * x[j] for i, j, c in mc_q.entries)
        assert g.cut_value(partition) == pytest.approx(
            -1.0 * qval + 0.0
        )


def test_single_negative_diagonal():
    # min x^2 * (-1): optimum -1 at x=1; the graph is one positive edge
    q = RawQuboInstance(1, [(1, 1, -1.0)])
    mc = qubo_to_maxcut(q)
    assert mc.edges == [(1, 2, 1.0)]
    check_qubo_to_mc_identity(q)


def test_two_variable_fixture():
    # Q = [[1, -3], [0, 1]]: minimum is -1 at x = (1, 1)
    q = RawQuboInstance(2, [(1, 1, 1.0), (1, 2, -3.0), (2, 2, 1.0)])
    check_qubo_to_mc_identity(q)
    best, _ = brute_force_qubo(2, q.entries)
    assert best == -1.0
    mc = qubo_to_maxcut(q)
    mc_best, _ = brute_force_maxcut(
        mc.num_vertices, [(u - 1, v - 1, w) for u, v, w in mc.edges]
    )
    assert -1.0 * mc_best + 0.0 == best


def test_identity_on_random_qubos():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 6)
        entries = []
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if rng.random() < 0.6:
                    c = rng.choice([-3, -2, -1, 1, 2, 3])
                    entries.append((i, j, float(c)))
        check_qubo_to_mc_identity(RawQuboInstance(n, entries))


def test_identity_on_random_maxcut_instances():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.5:
                    edges.append((u, v, float(rng.choice([-2, -1, 1, 2]))))
        check_mc_to_qubo_identity(RawMaxCutInstance(n, edges))


def test_asymmetric_entries_are_symmetrized():
    # only the symmetric part of Q matters: (1,2) and (2,1) entries add up
    q1 = RawQuboInstance(2, [(1, 2, 3.0)])
    q2 = RawQuboInstance(2, [(1, 2, 1.0), (2, 1, 2.0)])
    mc1 = qubo_to_maxcut(q1)
    mc2 = qubo_to_maxcut(q2)
    assert mc1.edges == mc2.edges


def test_roundtrip_optimum_agrees_both_directions():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(2, 6)
        edges = [
            (u, v, float(rng.choice([-3, -1, 1, 3])))
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.6
        ]
        g = RawMaxCutInstance(n, edges)
        best, _ = brute_force_maxcut(n, [(u - 1, v - 1, w) for u, v, w in edges])
        q = maxcut_to_qubo(g)
        q_best, _ = brute_force_qubo(q.dimension, q.entries)
        assert -1.0 * q_best + 0.0 == pytest.approx(best)
