from fractions import Fraction
from itertools import islice

import pytest

from postman.defects import (
    DEFAULT_DELTAS,
    combos_csv,
    defect_map,
    group_by_d,
    heatmap_csv,
    mmin_vs_cmax,
    scatter_csv,
)
from postman.errors import CombinationExplosionError, DisconnectedGraphError, InvalidArgumentError
from postman.exact import m_min
from postman.graphs import Graph, odd_nodes

from conftest import graph_stream, reference_defect_map


def pendant_graph():
    """Triangle with a pendant edge: node 3 has degree one."""
    return Graph(4, [(0, 1, 2), (1, 2, 3), (0, 2, 4), (2, 3, 5)])


class TestDefectMap:
    def test_delta_zero_is_base(self, demo):
        scan = defect_map(demo, deltas=[0], k=1)
        assert all(v == scan.base for v in scan.results[0].values())

    def test_degree_one_identity(self):
        g = pendant_graph()
        base = m_min(g).m_min
        scan = defect_map(g, deltas=DEFAULT_DELTAS, k=1)
        for delta in DEFAULT_DELTAS:
            assert scan.matrix(delta)[(2, 3)] == base + delta

    def test_monotone_in_delta(self, demo):
        scan = defect_map(demo, deltas=[0, 1, 2, 5, 11], k=1)
        for combo in scan.results[0]:
            values = [scan.results[d][combo] for d in scan.deltas]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_lipschitz_bound(self, demo):
        d = len(odd_nodes(demo))
        for k in (1, 2):
            scan = defect_map(demo, deltas=[3, 10], k=k)
            for delta in scan.deltas:
                for value in scan.results[delta].values():
                    assert value <= scan.base + k * delta * (d // 2)

    def test_default_delta_list(self, demo):
        scan = defect_map(demo, k=1)
        assert scan.deltas == (1, 2, 3, 10, 15, 27, 34, 50)

    def test_multi_defect_keys(self, demo):
        scan = defect_map(demo, deltas=[2], k=2)
        combos = list(scan.results[2])
        assert all(len(c) == 2 for c in combos)
        # canonical edge order within each combination
        assert all(c[0] < c[1] for c in combos)

    def test_combination_guard(self):
        g = next(graph_stream(seed=77, n=13, p=0.85))
        assert len(g.edges) > 60
        with pytest.raises(CombinationExplosionError):
            defect_map(g, deltas=[1], k=3)

    def test_disconnected_raises(self):
        g = Graph(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(DisconnectedGraphError):
            defect_map(g, deltas=[1], k=1)

    def test_deterministic(self, demo):
        a = defect_map(demo, deltas=[1, 5], k=1)
        b = defect_map(demo, deltas=[1, 5], k=1)
        assert a.results == b.results

    def test_matrix_requires_k1(self, demo):
        scan = defect_map(demo, deltas=[1], k=2)
        with pytest.raises(ValueError):
            scan.matrix(1)


def halved(g):
    """g with every weight halved: fractional weights, same shortest paths."""
    return Graph(g.n, [(u, v, Fraction(w, 2)) for u, v, w in g.edges])


def bridged_triangles():
    """Two triangles joined by the bridge (2, 3); odd nodes 2 and 3."""
    return Graph(6, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 4), (3, 4, 1), (4, 5, 2), (3, 5, 5)])


class TestReferenceDefectMap:
    """The patched-adjacency scan against a fresh Graph solved per cell."""

    DELTAS = (0, 1, Fraction(7, 2), 10)

    def assert_matches_reference(self, g, k):
        before = [dict(nbrs) for nbrs in g.adjacency]
        scan = defect_map(g, deltas=self.DELTAS, k=k)
        base, results = reference_defect_map(g, self.DELTAS, k)
        assert scan.base == base
        assert scan.results == results
        assert list(scan.results) == list(results)
        for delta in results:
            assert list(scan.results[delta]) == list(results[delta])
        assert [dict(nbrs) for nbrs in g.adjacency] == before
        return scan

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integer_weights(self, k):
        for g in islice(graph_stream(seed=20 + k, n=7, p=0.45), 4):
            self.assert_matches_reference(g, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fractional_weights(self, k):
        for g in islice(graph_stream(seed=30 + k, n=7, p=0.45), 4):
            self.assert_matches_reference(halved(g), k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_demo(self, demo, k):
        self.assert_matches_reference(demo, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bridge(self, k):
        self.assert_matches_reference(bridged_triangles(), k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_eulerian_cells_are_zero(self, k):
        g = Graph(5, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (3, 4, 1), (0, 4, 5)])
        assert not odd_nodes(g)
        scan = self.assert_matches_reference(g, k)
        assert scan.base == 0
        assert all(v == 0 for row in scan.results.values() for v in row.values())

    @pytest.mark.parametrize(
        "deltas, repeated", [((1, 1), "1"), ((1, Fraction(2, 2)), "1"), ((3, Fraction(1, 2), 3), "3")]
    )
    def test_repeated_delta_raises(self, demo, deltas, repeated):
        with pytest.raises(InvalidArgumentError, match=f"^delta {repeated} is repeated$"):
            defect_map(demo, deltas=deltas, k=1)


class TestHeatmapCsv:
    def test_structure(self, demo):
        scan = defect_map(demo, deltas=[2], k=1)
        text = heatmap_csv(scan, 2)
        lines = text.strip().splitlines()
        assert lines[0] == "," + ",".join(str(j) for j in range(6))
        assert len(lines) == 7
        # absent edge stays empty, existing edge carries a value (label column first)
        row0 = lines[1].split(",")
        assert row0[1 + 4] != ""   # edge (0,4) present
        assert row0[1 + 3] == ""   # edge (0,3) absent

    def test_symmetric_cells(self, demo):
        scan = defect_map(demo, deltas=[1], k=1)
        lines = heatmap_csv(scan, 1).strip().splitlines()
        grid = [line.split(",")[1:] for line in lines[1:]]
        for i in range(6):
            for j in range(6):
                assert grid[i][j] == grid[j][i]

    def test_combos_csv(self, demo):
        scan = defect_map(demo, deltas=[1, 2], k=2)
        lines = combos_csv(scan).strip().splitlines()
        assert lines[0] == "delta,edges,m_min"
        n_combos = len(demo.edges) * (len(demo.edges) - 1) // 2
        assert len(lines) == 1 + 2 * n_combos


class TestScatter:
    def test_singleton(self, demo):
        pts = mmin_vs_cmax([demo])
        assert len(pts) == 1
        assert pts[0].d == 4 and pts[0].m_min == 5
        assert pts[0].c_max == max(d for d in (3, 3, 3, 3, 2, 2))

    def test_unit_weight_bound(self):
        graphs = list(islice(graph_stream(seed=15, n=10, p=0.4, w_hi=1), 40))
        graphs = [g for g in graphs if odd_nodes(g)]
        for pt, g in zip(mmin_vs_cmax(graphs), graphs):
            assert pt.m_min >= pt.d // 2

    def test_grouping(self):
        graphs = [g for g in islice(graph_stream(seed=16, n=8, p=0.45, w_hi=1), 30) if odd_nodes(g)]
        pts = mmin_vs_cmax(graphs)
        groups = group_by_d(pts)
        assert sum(len(v) for v in groups.values()) == len(pts)
        assert list(groups) == sorted(groups)
        for d, members in groups.items():
            assert all(pt.d == d for pt in members)

    def test_csv(self, demo):
        text = scatter_csv(mmin_vs_cmax([demo]))
        assert text.splitlines()[0] == "index,d,c_max,m_min"
        assert text.splitlines()[1] == "0,4,3,5"
