"""Tests for the benchmark's answer checker; run with `python -m pytest bench`."""

import random
from fractions import Fraction
from itertools import product

import pytest

from checker import (
    ExactQuadratic,
    GraphAnswer,
    brute_force_pairing_weights,
    edge_pair_bumps,
    floyd_warshall,
    lowest_pairing_weights,
    parse_edge_list,
)

DEMO = """# README demo
6 8
0 1 2
0 2 5
0 4 3
1 3 5
1 4 1
2 3 6
2 5 2
3 5 1
"""


def random_connected_graph(rng: random.Random, n: int, extra: int, weights=(1, 9)):
    """A random spanning tree plus `extra` further edges, integer weights."""
    edges = {}
    for v in range(1, n):
        u = rng.randrange(v)
        edges[(u, v)] = rng.randint(*weights)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    for u, v in rng.sample(pairs, min(extra, len(pairs))):
        edges[(u, v)] = rng.randint(*weights)
    return [(u, v, w) for (u, v), w in sorted(edges.items())]


def bellman_ford(n, edges, source):
    dist = [None] * n
    dist[source] = 0
    for _ in range(n):
        for u, v, w in edges:
            for a, b in ((u, v), (v, u)):
                if dist[a] is not None and (dist[b] is None or dist[a] + w < dist[b]):
                    dist[b] = dist[a] + w
    return dist


def test_readme_demo():
    answer = GraphAnswer(*parse_edge_list(DEMO))
    assert answer.odd == [0, 1, 2, 3]
    assert answer.m_min == 5
    assert answer.l_t == 30


def test_parse_rational_weights():
    n, edges = parse_edge_list("2 1\n0 1 7/2\n")
    assert n == 2 and edges == [(0, 1, Fraction(7, 2))]
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1 1\n")


@pytest.mark.parametrize("seed", range(6))
def test_floyd_warshall_matches_bellman_ford(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    edges = random_connected_graph(rng, n, rng.randint(0, 8))
    dist = floyd_warshall(n, edges)
    for s in range(n):
        assert dist[s] == bellman_ford(n, edges, s)


@pytest.mark.parametrize("seed", range(12))
def test_pairing_dp_matches_enumeration(seed):
    rng = random.Random(100 + seed)
    d = rng.choice([2, 4, 6, 8])
    dist = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            dist[i][j] = dist[j][i] = rng.randint(1, 4)
    weights = sorted(set(brute_force_pairing_weights(dist)))
    assert lowest_pairing_weights(dist, 2) == weights[:2]
    assert lowest_pairing_weights(dist, 4) == weights[:4]


@pytest.mark.parametrize("seed", range(6))
def test_graph_m_min_matches_enumeration(seed):
    rng = random.Random(200 + seed)
    n = rng.randint(4, 10)
    edges = random_connected_graph(rng, n, rng.randint(1, 10))
    answer = GraphAnswer(n, edges)
    if not answer.odd:
        assert answer.m_min == 0
        return
    assert answer.m_min == min(brute_force_pairing_weights(answer.odd_dist))
    assert len(answer.odd) % 2 == 0
    assert answer.c_max == max(answer.degrees)


def test_edge_pair_bumps_stay_in_range():
    rng = random.Random(7)
    edges = random_connected_graph(rng, 7, 4)
    answer = GraphAnswer(7, edges)
    cells = edge_pair_bumps(answer, [1, 5])
    assert len(cells) == 2 * len(edges) * (len(edges) - 1) // 2
    for (delta, combo), value in cells.items():
        assert answer.m_min <= value <= answer.m_min + 2 * delta


def test_exact_quadratic_matches_direct_sum():
    rng = random.Random(3)
    n = 5
    offset = Fraction(7, 3)
    linear = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    quadratic = {(i, j): Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for i in range(n) for j in range(i + 1, n)}
    model = ExactQuadratic(offset, linear, quadratic)
    for values in list(product((-1, 1), repeat=n)) + list(product((0, 1), repeat=n)):
        direct = offset + sum(a * v for a, v in zip(linear, values))
        direct += sum(b * values[i] * values[j] for (i, j), b in quadratic.items())
        assert model.energy(values) == direct
    with pytest.raises(ValueError):
        model.energy((1, 1))
