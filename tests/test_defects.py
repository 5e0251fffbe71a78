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
from postman.errors import CombinationExplosionError, DisconnectedGraphError
from postman.exact import m_min
from postman.graphs import Graph, odd_nodes

from conftest import graph_stream


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
