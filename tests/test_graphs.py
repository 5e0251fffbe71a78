from fractions import Fraction
from itertools import islice, permutations

import pytest
from hypothesis import given, settings, strategies as st

from postman import graphs
from postman.errors import DisconnectedGraphError, InfeasibleSpecError, ParseError, TooLargeError
from postman.graphs import (
    MAX_NODES,
    MAX_PAIRS,
    EnsembleSpec,
    Graph,
    _pair_distances,
    graph_features,
    graph_from_json,
    hops,
    is_connected,
    is_eulerian,
    odd_nodes,
    random_graph,
    read_edge_list,
    reconstruct_path,
    shortest_paths,
    total_weight,
    write_edge_list,
)

from conftest import ensemble, graph_stream, graph_to_json


def brute_force_distance(g: Graph, a: int, b: int):
    """Oracle: minimum weight over every simple path, by full enumeration."""
    if a == b:
        return 0
    best = None
    others = [v for v in range(g.n) if v not in (a, b)]
    for r in range(len(others) + 1):
        for mid in permutations(others, r):
            path = (a, *mid, b)
            w = 0
            ok = True
            for u, v in zip(path, path[1:]):
                if not g.has_edge(u, v):
                    ok = False
                    break
                w += g.weight(u, v)
            if ok and (best is None or w < best):
                best = w
    return best


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 1), (1, 0, 2)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 3, 1)])

    def test_node_guard(self):
        # the views are built on first use, so the largest graph allowed costs nothing here
        assert Graph(MAX_NODES, []).n == MAX_NODES
        with pytest.raises(TooLargeError, match=f"exceeds node guard {MAX_NODES}$"):
            Graph(MAX_NODES + 1, [])

    def test_odd_nodes_demo(self, demo):
        assert odd_nodes(demo) == [0, 1, 2, 3]

    def test_odd_nodes_triangle(self):
        tri = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        assert odd_nodes(tri) == []

    def test_odd_nodes_single_edge(self):
        assert odd_nodes(Graph(2, [(0, 1, 4)])) == [0, 1]

    def test_eulerian_and_weight_demo(self, demo):
        assert not is_eulerian(demo)
        assert total_weight(demo) == 25

    def test_four_cycle(self):
        c4 = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert is_eulerian(c4)
        assert total_weight(c4) == 4

    def test_disjoint_triangles(self):
        g = Graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
        assert not is_connected(g)
        assert not is_eulerian(g)

    def test_fractional_weights(self):
        g = Graph(2, [(0, 1, Fraction(3, 2))])
        assert total_weight(g) == Fraction(3, 2)


class TestShortestPaths:
    def test_demo_distances(self, demo):
        dist, _ = shortest_paths(demo, [0, 2])
        assert dist[0][3] == 7
        assert dist[2][3] == 3

    def test_demo_path_via_5(self, demo):
        _, pred = shortest_paths(demo, [2])
        assert reconstruct_path(pred[2], 2, 3) == [2, 5, 3]

    def test_self_distance_zero(self, demo):
        dist, _ = shortest_paths(demo, range(demo.n))
        assert all(dist[v][v] == 0 for v in range(demo.n))

    def test_disconnected_raises(self):
        g = Graph(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(DisconnectedGraphError):
            shortest_paths(g, [0])

    def test_matches_simple_path_enumeration(self):
        for g in islice(graph_stream(seed=11, n=7, p=0.4), 12):
            dist, _ = shortest_paths(g, range(g.n))
            for a in range(g.n):
                for b in range(g.n):
                    assert dist[a][b] == brute_force_distance(g, a, b)

    def test_triangle_inequality_exhaustive(self):
        g = next(graph_stream(seed=5, n=12, p=0.3))
        dist, _ = shortest_paths(g, range(g.n))
        for a in range(g.n):
            for b in range(g.n):
                for c in range(g.n):
                    assert dist[a][c] <= dist[a][b] + dist[b][c]

    def test_predecessor_tie_break_is_smallest(self):
        # two equal-cost routes 0-1-3 and 0-2-3; node 1 must win the tie
        g = Graph(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
        _, pred = shortest_paths(g, [0])
        assert pred[0][3] == 1


class TestPairDistances:
    """`_pair_distances` equals `shortest_paths` restricted to the nodes."""

    @given(
        seed=st.integers(min_value=0, max_value=2**30),
        w_hi=st.sampled_from([1, 9]),
        halve=st.booleans(),
        delta=st.sampled_from([0, Fraction(7, 2), 50]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_shortest_paths(self, seed, w_hi, halve, delta, data):
        # w_hi = 1 gives unit weights, where ties are everywhere
        g = next(graph_stream(seed=seed, n=8, p=0.4, w_hi=w_hi))
        if halve:
            g = Graph(g.n, [(u, v, Fraction(w, 2)) for u, v, w in g.edges])
        bumped = data.draw(st.lists(st.sampled_from([(u, v) for u, v, _ in g.edges]), max_size=3, unique=True))
        adj = [dict(nbrs) for nbrs in g.adjacency]
        for u, v in bumped:
            adj[u][v] = adj[v][u] = g.adjacency[u][v] + delta
        patched = Graph(g.n, [(u, v, adj[u][v]) for u, v, _ in g.edges])
        nodes = data.draw(
            st.just(odd_nodes(g)) | st.lists(st.integers(min_value=0, max_value=g.n - 1), unique=True)
        )
        dist, _ = shortest_paths(patched, nodes)
        assert _pair_distances(adj, nodes) == tuple(tuple(dist[a][b] for b in nodes) for a in nodes)

    def test_no_nodes_and_one_pair(self, demo):
        assert _pair_distances(demo.adjacency, ()) == ()
        assert _pair_distances(demo.adjacency, (0, 3)) == ((0, 7), (7, 0))

    def test_search_stops_at_the_last_node(self):
        # on the path 0-1-2-3 the one search, from 0, ends when node 1 settles
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        read = []

        class Recording(tuple):
            def __getitem__(self, u):
                read.append(u)
                return super().__getitem__(u)

        assert _pair_distances(Recording(g.adjacency), (0, 1)) == ((0, 1), (1, 0))
        assert read == [0]


class TestViews:
    def test_no_module_level_caches(self):
        import importlib
        import pkgutil

        import postman

        for info in pkgutil.iter_modules(postman.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"postman.{info.name}")
            cached = [k for k, v in vars(module).items() if hasattr(v, "cache_clear")]
            assert cached == [], f"postman.{info.name} caches {cached}"

    def test_equal_graphs_build_their_own_views(self):
        a = Graph(3, [(0, 1, 2), (1, 2, 3)])
        b = Graph(3, [(1, 2, 3), (0, 1, 2)])
        assert a == b and hash(a) == hash(b)
        assert a.adjacency == b.adjacency and a.adjacency is not b.adjacency
        assert a.adjacency is a.adjacency and a.degrees is a.degrees

    def test_adjacency_ascending_and_weights(self):
        for g in islice(graph_stream(seed=17, n=9, p=0.4), 5):
            for u, nbrs in enumerate(g.adjacency):
                assert list(nbrs) == sorted(nbrs)
                assert len(nbrs) == g.degrees[u]
            for u, v, w in g.edges:
                assert g.weight(v, u) == w and g.adjacency[v][u] == w

    def test_edge_lookup_out_of_range(self, demo):
        assert not demo.has_edge(-1, 0) and not demo.has_edge(0, 6) and not demo.has_edge(0, 5)
        with pytest.raises(KeyError):
            demo.weight(-1, 5)

    def test_hops(self, demo):
        assert hops(demo.adjacency, 0) == {0: 0, 1: 1, 2: 1, 4: 1, 3: 2, 5: 2}
        assert hops({0: [1], 1: [0], 2: []}, 0) == {0: 0, 1: 1}


class TestHandshake:
    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=40, deadline=None)
    def test_degree_sum_twice_edges(self, seed):
        g = next(graph_stream(seed=seed, n=8, p=0.4))
        assert sum(g.degrees) == 2 * len(g.edges)
        assert len(odd_nodes(g)) % 2 == 0


class TestEnsemble:
    def test_deterministic(self):
        spec = EnsembleSpec(n=10, edge_prob=0.3, count=4, seed=7)
        a = ensemble(spec)
        b = ensemble(spec)
        assert [g.edges for g in a] == [g.edges for g in b]

    def test_all_connected_non_eulerian(self):
        spec = EnsembleSpec(n=9, edge_prob=0.35, count=25, seed=3)
        for g in ensemble(spec):
            assert is_connected(g)
            odd = odd_nodes(g)
            assert len(odd) >= 2 and len(odd) % 2 == 0

    def test_weight_range(self):
        spec = EnsembleSpec(n=8, edge_prob=0.4, count=5, seed=1, w_lo=2, w_hi=6)
        for g in ensemble(spec):
            assert all(2 <= w <= 6 for _, _, w in g.edges)

    def test_pair_guard(self):
        # 1448 nodes give 1,047,628 candidate pairs, 1449 give 1,049,076
        assert 1448 * 1447 // 2 <= MAX_PAIRS < 1449 * 1448 // 2
        assert EnsembleSpec(n=1448, edge_prob=0.5, count=0, seed=0).n == 1448
        with pytest.raises(TooLargeError, match=f"has 1049076 candidate pairs, over the pair guard {MAX_PAIRS}$"):
            EnsembleSpec(n=1449, edge_prob=0.5, count=0, seed=0)

    def test_infeasible_spec(self, monkeypatch):
        # a triangle-only space cannot fail, so force failure via attempt cap 0
        monkeypatch.setattr(graphs, "MAX_ATTEMPTS", 0)
        spec = EnsembleSpec(n=5, edge_prob=0.5, count=1, seed=0)
        with pytest.raises(InfeasibleSpecError, match=r"^no connected non-Eulerian graph in 0 attempts \(n=5, p=0.5\)$"):
            random_graph(spec, 0)

    def test_feature_row_realizable(self):
        # desk-size scan can realize the (n=14, d=4, c_max=5, c_min=1, c_1=2) row
        spec = EnsembleSpec(n=14, edge_prob=0.18, count=4000, seed=20)
        target = (4, 5, 1, 2)
        for index in range(spec.count):
            g = random_graph(spec, index)
            f = graph_features(g)
            if (f.d, f.c_max, f.c_min, f.c_1) == target:
                return
        pytest.fail(f"no graph with features {target} in {spec.count} draws")


class TestIO:
    def test_edge_list_round_trip(self, demo):
        text = write_edge_list(demo, comments=["demo"])
        assert read_edge_list(text) == demo

    def test_json_round_trip(self, demo):
        assert graph_from_json(graph_to_json(demo)) == demo

    def test_json_float_weight_is_exact(self):
        g = graph_from_json({"n": 2, "edges": [[0, 1, 1.5]]})
        assert g.edges == ((0, 1, Fraction(3, 2)),)

    def test_comments_ignored(self):
        g = read_edge_list("# hi\n2 1\n# mid\n0 1 3/2\n")
        assert g.edges == ((0, 1, Fraction(3, 2)),)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            read_edge_list("nope\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ParseError):
            read_edge_list("2 2\n0 1 1\n")
