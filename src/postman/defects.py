"""Topology probing through edge defects.

Bump the weight of every k-combination of edges by each delta, re-solve the
route-inspection problem exactly, and collect the minimum-matching weight as
a function of defect position. Single-defect scans map onto the adjacency
matrix (heatmap CSV); multi-defect scans are keyed by edge combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import CombinationExplosionError, DisconnectedGraphError, InvalidArgumentError
from .exact import OddPairDistances, m_min, minimum_matching
from .graphs import Graph, _pair_distances, graph_features, is_connected, odd_nodes
from .numbers import Number, as_exact, format_number, normalize

DEFAULT_DELTAS = (1, 2, 3, 10, 15, 27, 34, 50)
COMBINATION_GUARD_EDGES = 60  # applies to triple-defect scans

EdgePair = tuple[int, int]
Combo = tuple[EdgePair, ...]


@dataclass(frozen=True)
class DefectScan:
    """Exact minimum-matching weights under weight bumps.

    results[delta][combo] holds the weight after adding delta to every edge
    in the combo; combos are tuples of (u, v) pairs in canonical edge order.
    """

    graph: Graph
    deltas: tuple[Number, ...]
    k: int
    base: Number
    results: dict[Number, dict[Combo, Number]]

    def matrix(self, delta: Number) -> dict[EdgePair, Number]:
        """Single-defect view: edge -> weight; only defined for k=1."""
        if self.k != 1:
            raise ValueError("matrix view requires a single-defect scan")
        return {combo[0]: value for combo, value in self.results[as_exact(delta)].items()}


def defect_map(
    g: Graph,
    deltas: Sequence[Number] = DEFAULT_DELTAS,
    k: int = 1,
) -> DefectScan:
    """Exact M_min of g with every k-combination of edges bumped by each delta.

    A bump changes edge weights only, never the connectivity, the degrees or
    the odd nodes, so those are found once. Each cell patches the bumped
    weights into one copy of the adjacency, searches the odd-pair distances
    on it, re-matches the odd nodes and restores the weights.
    """
    if k not in (1, 2, 3):
        raise InvalidArgumentError("defects per configuration must be 1, 2, or 3")
    if not is_connected(g):
        raise DisconnectedGraphError("defect scan requires a connected graph")
    exact_deltas = tuple(as_exact(d) for d in deltas)
    if not exact_deltas:
        raise InvalidArgumentError("need at least one delta")
    if any(d < 0 for d in exact_deltas):
        raise InvalidArgumentError("deltas must be nonnegative")
    for i, d in enumerate(exact_deltas):
        if d in exact_deltas[:i]:
            raise InvalidArgumentError(f"delta {format_number(d)} is repeated")
    if k == 3 and len(g.edges) > COMBINATION_GUARD_EDGES:
        raise CombinationExplosionError(
            f"triple-defect scan over {len(g.edges)} edges exceeds the guard "
            f"of {COMBINATION_GUARD_EDGES}"
        )
    base = m_min(g).m_min
    odd = tuple(odd_nodes(g))
    adj = [dict(nbrs) for nbrs in g.adjacency]
    combos = list(combinations([(u, v) for u, v, _ in g.edges], k))
    results: dict[Number, dict[Combo, Number]] = {d: {} for d in exact_deltas}
    for delta in exact_deltas:
        for combo in combos:
            for u, v in combo:
                adj[u][v] = adj[v][u] = normalize(g.adjacency[u][v] + delta)
            table = OddPairDistances(nodes=odd, dist=_pair_distances(adj, odd))
            results[delta][combo] = minimum_matching(table).weight
            for u, v in combo:
                adj[u][v] = adj[v][u] = g.adjacency[u][v]
    return DefectScan(graph=g, deltas=exact_deltas, k=k, base=base, results=results)


def heatmap_csv(scan: DefectScan, delta: Number) -> str:
    """Node-by-node matrix for one delta; absent edges are empty cells."""
    cells = scan.matrix(delta)
    n = scan.graph.n
    lines = ["," + ",".join(str(j) for j in range(n))]
    for i in range(n):
        row = [str(i)]
        for j in range(n):
            key = (min(i, j), max(i, j))
            row.append(format_number(cells[key]) if i != j and key in cells else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def combos_csv(scan: DefectScan) -> str:
    """Long form: one row per (delta, edge combination)."""
    lines = ["delta,edges,m_min"]
    for delta in scan.deltas:
        for combo, value in scan.results[delta].items():
            edges = ";".join(f"{u}-{v}" for u, v in combo)
            lines.append(f"{format_number(delta)},{edges},{format_number(value)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScatterPoint:
    index: int
    d: int
    c_max: int
    m_min: Number


def mmin_vs_cmax(graphs: Iterable[Graph]) -> list[ScatterPoint]:
    """Per-graph (odd count, max degree, minimum matching weight) records."""
    points = []
    for index, g in enumerate(graphs):
        feats = graph_features(g)
        points.append(
            ScatterPoint(index=index, d=feats.d, c_max=feats.c_max, m_min=m_min(g).m_min)
        )
    return points


def group_by_d(points: Sequence[ScatterPoint]) -> dict[int, list[ScatterPoint]]:
    groups: dict[int, list[ScatterPoint]] = {}
    for pt in points:
        groups.setdefault(pt.d, []).append(pt)
    return {d: groups[d] for d in sorted(groups)}


def scatter_csv(points: Sequence[ScatterPoint]) -> str:
    lines = ["index,d,c_max,m_min"]
    for pt in points:
        lines.append(f"{pt.index},{pt.d},{pt.c_max},{format_number(pt.m_min)}")
    return "\n".join(lines) + "\n"
