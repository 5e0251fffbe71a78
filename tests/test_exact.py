import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from postman import defects, exact, graphs
from postman.errors import NotEulerianError, TooLargeError
from postman.exact import (
    MATCHING_GUARD,
    OddPairDistances,
    augment,
    cpp_length,
    euler_circuit,
    m_min,
    minimum_matching,
    odd_pair_distances,
    solve,
    walk_nodes,
)
from postman.graphs import Graph, MultiGraph, odd_nodes, total_weight

from conftest import enumerate_matchings, graph_stream, reference_minimum_matching, walk_length


GOLDEN = Path(__file__).parent / "golden"


def double_factorial(d):
    out = 1
    while d > 1:
        out *= d - 1
        d -= 2
    return out


def matching_min_oracle(dist):
    """Independent minimum over pairings: bitmask recursion on the table."""
    d = len(dist)

    @lru_cache(maxsize=None)
    def rec(mask):
        if mask == (1 << d) - 1:
            return 0
        first = next(i for i in range(d) if not (mask >> i) & 1)
        best = None
        for j in range(first + 1, d):
            if (mask >> j) & 1:
                continue
            cost = dist[first][j] + rec(mask | (1 << first) | (1 << j))
            if best is None or cost < best:
                best = cost
        return best

    return rec(0)


class TestOddPairDistances:
    def test_demo_table(self, demo):
        table = odd_pair_distances(demo)
        assert table.nodes == (0, 1, 2, 3)
        expect = {
            (0, 1): 2, (0, 2): 5, (0, 3): 7,
            (1, 2): 7, (1, 3): 5, (2, 3): 3,
        }
        for (i, j), w in expect.items():
            assert table.dist[i][j] == w
            assert table.dist[j][i] == w

    def test_eulerian_graph_empty_table(self):
        c4 = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert odd_pair_distances(c4).d == 0

    def test_matches_full_shortest_paths(self):
        from test_graphs import brute_force_distance

        for g in islice(graph_stream(seed=23, n=8, p=0.35), 6):
            table = odd_pair_distances(g)
            for i, a in enumerate(table.nodes):
                for j, b in enumerate(table.nodes):
                    assert table.dist[i][j] == brute_force_distance(g, a, b)

    @pytest.mark.parametrize(
        "dist, message",
        [
            (((0, -1), (-1, 0)), "distances must be nonnegative"),
            (((0, 1), (2, 0)), "distance table must be symmetric"),
            (((1, 1), (1, 0)), "diagonal distances must be zero"),
            (((0, 1),), "distance table must be d x d"),
        ],
    )
    def test_hand_built_table_refused(self, dist, message):
        with pytest.raises(ValueError, match=message):
            OddPairDistances((0, 1), dist)


def table_of(d, entry):
    """A d x d table with zero diagonal and entry(i, j) above it."""
    dist = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            dist[i][j] = dist[j][i] = entry(i, j)
    return OddPairDistances(tuple(range(d)), tuple(map(tuple, dist)))


HALVES = [Fraction(k, 2) for k in range(1, 7)]


@st.composite
def tie_heavy_tables(draw):
    """Even d = 0..12, entries from {1, 2, 3}, from halves as Fraction
    (integral ones included), or from both."""
    d = draw(st.sampled_from(range(0, 13, 2)))
    values = draw(st.sampled_from([[1, 2, 3], HALVES, [1, 2, 3, *HALVES]]))
    entries = draw(st.lists(st.sampled_from(values), min_size=d * (d - 1) // 2, max_size=d * (d - 1) // 2))
    above = iter(entries)
    return table_of(d, lambda i, j: next(above))


class TestMinimumMatching:
    """The pruned search against the enumeration it replaced."""

    @staticmethod
    def assert_same(got, want):
        assert got.pairs == want.pairs
        assert got.weight == want.weight
        assert type(got.weight) is type(want.weight)

    @settings(max_examples=80, deadline=None)
    @given(tie_heavy_tables())
    def test_first_optimum_of_enumeration(self, table):
        self.assert_same(minimum_matching(table), reference_minimum_matching(table))

    def test_d14_tables_against_enumeration(self):
        # the all-equal table prunes only each pairing's last pair; the
        # golden d = 14 graph (unit weights) prunes deepest
        graph = graphs.read_edge_list((GOLDEN / "d14.edgelist").read_text())
        for table in (table_of(14, lambda i, j: 3), odd_pair_distances(graph)):
            start = time.perf_counter()
            want = reference_minimum_matching(table)
            enumeration = time.perf_counter() - start
            start = time.perf_counter()
            got = minimum_matching(table)
            search = time.perf_counter() - start
            self.assert_same(got, want)
            assert search < enumeration

    def test_guard(self):
        table = table_of(MATCHING_GUARD + 2, lambda i, j: 1)
        with pytest.raises(TooLargeError, match=f"refusing to enumerate pairings for d=16 > {MATCHING_GUARD}"):
            minimum_matching(table)

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError, match="d must be even, got 3"):
            minimum_matching(table_of(3, lambda i, j: 1))


class TestEnumerateMatchings:
    @pytest.mark.parametrize("d,count", [(0, 1), (2, 1), (4, 3), (6, 15), (8, 105), (10, 945)])
    def test_counts(self, d, count):
        pairings = list(enumerate_matchings(d))
        assert len(pairings) == count == double_factorial(d)
        assert len(set(pairings)) == count

    def test_each_pairing_is_perfect(self):
        for pairing in enumerate_matchings(6):
            covered = [i for pair in pairing for i in pair]
            assert sorted(covered) == list(range(6))

    def test_canonical_order_d4(self):
        assert list(enumerate_matchings(4)) == [
            ((0, 1), (2, 3)),
            ((0, 2), (1, 3)),
            ((0, 3), (1, 2)),
        ]


class TestMmin:
    def test_demo(self, demo):
        sol = m_min(demo)
        assert sol.m_min == 5
        assert sol.matching.pairs == ((0, 1), (2, 3))
        assert sol.l_t == 30

    def test_demo_all_three_pairings(self, demo):
        table = odd_pair_distances(demo)
        costs = [
            sum(table.dist[i][j] for i, j in pairing)
            for pairing in enumerate_matchings(4)
        ]
        assert costs == [5, 10, 14]

    def test_eulerian_zero(self):
        c4 = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        sol = m_min(c4)
        assert sol.m_min == 0
        assert sol.l_t == 4

    def test_matches_recursion_oracle(self):
        for g in islice(graph_stream(seed=31, n=9, p=0.4), 15):
            table = odd_pair_distances(g)
            assert m_min(g).m_min == matching_min_oracle(table.dist)

    def test_unit_weight_lower_bound(self):
        for g in islice(graph_stream(seed=41, n=10, p=0.4, w_hi=1), 30):
            d = len(odd_nodes(g))
            if d:
                assert m_min(g).m_min >= d // 2

    def test_cpp_length(self, demo):
        assert cpp_length(demo) == 30


class TestCircuit:
    def test_demo_circuit(self, demo):
        sol = solve(demo, with_circuit=True)
        mg = augment(demo, sol.matching)
        assert walk_length(mg, sol.circuit) == 30
        # every original edge crossed; (0,1),(2,5),(3,5) exactly twice
        crossings = Counter((min(u, v), max(u, v)) for u, v, _ in sol.circuit)
        for u, v, _ in demo.edges:
            assert crossings[(u, v)] >= 1
        assert crossings[(0, 1)] == 2
        assert crossings[(2, 5)] == 2
        assert crossings[(3, 5)] == 2
        nodes = walk_nodes(sol.circuit)
        assert nodes[0] == nodes[-1]

    def test_triangle_circuit_is_three_cycle(self):
        tri = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        sol = solve(tri, with_circuit=True)
        assert walk_nodes(sol.circuit) == [0, 1, 2, 0]

    def test_doubled_edge_multigraph(self):
        mg = MultiGraph(2)
        mg.add_edge(0, 1, 3)
        mg.add_edge(0, 1, 3)
        walk = euler_circuit(mg)
        assert walk_nodes(walk) == [0, 1, 0]
        assert walk_length(mg, walk) == 6

    def test_each_multigraph_edge_used_once(self):
        for g in islice(graph_stream(seed=53, n=8, p=0.45), 8):
            if not odd_nodes(g):
                continue
            sol = solve(g, with_circuit=True)
            mg = augment(g, sol.matching)
            used = [eid for _, _, eid in sol.circuit]
            assert sorted(used) == list(range(len(mg.edges)))
            assert walk_length(mg, sol.circuit) == sol.l_t

    def test_not_eulerian_raises(self):
        mg = MultiGraph(2)
        mg.add_edge(0, 1, 1)
        with pytest.raises(NotEulerianError):
            euler_circuit(mg)

    def test_disconnected_edges_raise(self):
        mg = MultiGraph(4)
        for u, v in [(0, 1), (1, 0), (2, 3), (3, 2)]:
            mg.add_edge(u, v, 1)
        with pytest.raises(NotEulerianError, match="^edges are not connected$"):
            euler_circuit(mg)

    @pytest.mark.parametrize(
        "edges",
        [
            # the walk starts at node 1, in the triangle; the doubled edge (5, 6) is left
            [(5, 6), (1, 2), (2, 3), (1, 3), (6, 5)],
            # the walk starts at node 1, on the doubled edge; the triangle is left
            [(2, 3), (1, 6), (3, 4), (2, 4), (6, 1)],
        ],
    )
    def test_walk_short_of_every_edge_raises(self, edges):
        mg = MultiGraph(8)
        for u, v in edges:
            mg.add_edge(u, v, 1)
        with pytest.raises(NotEulerianError, match="^edges are not connected$"):
            euler_circuit(mg)

    def test_odd_degree_reported_before_disconnection(self):
        mg = MultiGraph(4)
        for u, v in [(0, 1), (2, 3), (3, 2)]:
            mg.add_edge(u, v, 1)
        with pytest.raises(NotEulerianError, match="^odd degree node present$"):
            euler_circuit(mg)

    def test_isolated_nodes_around_one_component(self):
        mg = MultiGraph(7)
        for u, v in [(2, 4), (4, 5), (5, 2)]:
            mg.add_edge(u, v, 2)
        walk = euler_circuit(mg)
        assert walk_nodes(walk) == [2, 4, 5, 2]
        assert walk_length(mg, walk) == 6
        assert euler_circuit(MultiGraph(3)) == ()


class TestPathsOnlyForMatchedPairs:
    """Only `augment` rebuilds paths, one per matched pair."""

    @staticmethod
    def patch_reconstruct(monkeypatch, replacement):
        for module in (graphs, exact):
            monkeypatch.setattr(module, "reconstruct_path", replacement)

    def test_distances_never_rebuild_paths(self, monkeypatch, demo):
        def refuse(*_):
            raise AssertionError("reconstruct_path called")

        self.patch_reconstruct(monkeypatch, refuse)
        assert m_min(demo).m_min == 5
        assert odd_pair_distances(demo).dist[2][3] == 3
        assert defects.defect_map(demo, deltas=(1,), k=1).base == 5
        assert [pt.m_min for pt in defects.mmin_vs_cmax([demo])] == [5]

    def test_circuit_rebuilds_d_over_2_paths(self, monkeypatch):
        calls = []
        original = graphs.reconstruct_path

        def counting(pred, source, target):
            calls.append((source, target))
            return original(pred, source, target)

        self.patch_reconstruct(monkeypatch, counting)
        checked = 0
        for g in islice(graph_stream(seed=71, n=9, p=0.4), 8):
            calls.clear()
            sol = solve(g, with_circuit=True)
            assert sorted(calls) == sorted(sol.matching.pairs)
            assert len(calls) == len(odd_nodes(g)) // 2
            checked += len(calls) > 2
        assert checked

    def test_route_from_a_hand_built_table(self, demo):
        # a table of distances alone still yields the shortest closed route
        t = odd_pair_distances(demo)
        mg = augment(demo, minimum_matching(OddPairDistances(t.nodes, t.dist)))
        assert walk_length(mg, euler_circuit(mg)) == m_min(demo).l_t == 30


class TestInvariants:
    def test_lt_at_least_total_weight(self):
        for g in islice(graph_stream(seed=61, n=8, p=0.4), 12):
            sol = m_min(g)
            assert sol.l_t >= total_weight(g)
            assert (sol.l_t == total_weight(g)) == (len(odd_nodes(g)) == 0)

    def test_solution_json(self, demo):
        out = solve(demo, with_circuit=True).to_json()
        assert out["m_min"] == 5
        assert out["l_t"] == 30
        assert out["matching"] == [[0, 1], [2, 3]]
        assert out["circuit"][0] == out["circuit"][-1]
