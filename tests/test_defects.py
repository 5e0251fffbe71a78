import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from postman.defects import (
    DEFAULT_DELTAS,
    DefectScan,
    combos_csv,
    defect_map,
    group_by_d,
    heatmap_csv,
    mmin_vs_cmax,
    scatter_csv,
)
from postman.errors import CombinationExplosionError, DisconnectedGraphError, InvalidArgumentError
from postman import cli, graphs
from postman.exact import Matching, OddPairDistances, m_min
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
        """Same cells in the same order, each of the same value and type:
        `==` alone holds Fraction(4, 1) equal to 4."""
        before = [dict(nbrs) for nbrs in g.adjacency]
        scan = defect_map(g, deltas=self.DELTAS, k=k)
        base, results = reference_defect_map(g, self.DELTAS, k)
        assert (type(scan.base), scan.base) == (type(base), base)
        assert list(scan.results) == list(results)
        for delta in results:
            got = [(combo, type(v), v) for combo, v in scan.results[delta].items()]
            assert got == [(combo, type(v), v) for combo, v in results[delta].items()]
        reference = DefectScan(graph=g, deltas=scan.deltas, k=k, base=base, results=results)
        assert combos_csv(scan) == combos_csv(reference)
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


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name to record each call, also under every name a postman
    module binds the same function to; returns the list of calls."""
    fn = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for modname, module in list(sys.modules.items()):
        if modname == "postman" or modname.startswith("postman."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestCellKernel:
    """A scan checks one table and builds one Matching, both for the base
    solve; every cell runs one distance search and the raw pairing search."""

    @pytest.mark.parametrize("g, k", [("demo", 1), ("demo", 2), ("bridge", 2), ("halved", 3)])
    def test_one_checked_table_per_scan(self, monkeypatch, demo, g, k):
        g = {"demo": demo, "bridge": bridged_triangles(), "halved": halved(demo)}[g]
        tables = count_calls(monkeypatch, OddPairDistances, "__init__")
        matchings = count_calls(monkeypatch, Matching, "__init__")
        searches = count_calls(monkeypatch, graphs, "_pair_distances")
        scan = defect_map(g, deltas=(0, 1, Fraction(7, 2)), k=k)
        cells = sum(len(row) for row in scan.results.values())
        assert cells == 3 * len(scan.results[0])
        assert len(tables) == 1
        assert len(matchings) == 1
        assert len(searches) == 1 + cells


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


SCRIPTS = Path(__file__).parent.parent / "scripts"


def run_script(name, *args):
    path = os.pathsep.join([str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


class TestDefectStudyScript:
    """scripts/run_defect_study.py reads --deltas as `postman defects` does."""

    def run(self, deltas, out):
        return run_script("run_defect_study.py", "--deltas", deltas, "--out", out)

    def test_fractional_delta_names_its_heatmap_without_the_slash(self, tmp_path):
        proc = self.run("1,7/2", tmp_path)
        assert proc.returncode == 0, proc.stderr
        names = sorted(f.name for f in tmp_path.iterdir())
        assert "n10_d8_unit_delta_7_2.csv" in names and "n14_d4_weighted_delta_7_2.csv" in names
        assert len(names) == 6

    @pytest.mark.parametrize(
        "deltas, reason",  # the reason only names the case; the expected message is the CLI's
        [
            ("1,x", "not a number: 'x'"),
            ("1,2/0", "not a number: '2/0'"),
            ("1,1", "delta 1 is repeated"),
            ("3,6/2", "delta 3 is repeated"),
            ("1,-2", "deltas must be nonnegative"),
            (",", "need at least one delta"),
        ],
    )
    def test_refused_delta_is_one_error_line(self, capsys, tmp_path, demo, deltas, reason):
        graph = tmp_path / "demo.edgelist"
        graph.write_text(graphs.write_edge_list(demo))
        assert cli.main(["defects", str(graph), "--deltas", deltas]) == 3
        message = capsys.readouterr().err
        assert message.startswith("error: ") and len(message.splitlines()) == 1
        out = tmp_path / "out"
        proc = self.run(deltas, out)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", message)
        assert not out.exists()


class TestMminEnsembleScript:
    """scripts/run_mmin_ensemble.py refuses an argument with one error line."""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n", "2", "ensemble graphs need n >= 3"),
            ("--count", "-1", "count must be nonnegative"),
            ("--edge-prob", "1.5", "edge probability must be in (0,1)"),
        ],
    )
    def test_refused_argument_is_one_error_line(self, tmp_path, flag, value, message):
        out = tmp_path / "out"
        proc = run_script("run_mmin_ensemble.py", flag, value, "--out", out)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")
        assert not out.exists()


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
