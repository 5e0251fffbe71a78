"""Exact route-inspection solver.

Pipeline: collect odd-degree nodes, build the pairwise shortest-distance
table over them, minimize total matching weight over all (d-1)!! perfect
pairings, duplicate the matched shortest paths, and extract a closed circuit
from the augmented multigraph. The table and the matching carry distances
only; `augment` rebuilds one canonical shortest path per matched pair, d/2
in all, when a route is asked for. Everything is exact arithmetic and
deterministic: pairings are enumerated in canonical order, predecessor ties
go to the smaller node, and the circuit walks lowest-index neighbors first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import NotEulerianError, TooLargeError
from .graphs import (
    Graph,
    MultiGraph,
    Number,
    odd_nodes,
    reconstruct_path,
    shortest_paths,
    total_weight,
)
from .numbers import to_jsonable

# (13)!! = 135135 pairings. The mmin_ensemble benchmark solves d = 12 and d = 14
# graphs every round, and this enumeration takes nearly all of its time.
MATCHING_GUARD = 14


@dataclass(frozen=True)
class OddPairDistances:
    """Symmetric table of exact shortest distances between odd nodes.

    dist[i][j] is the distance between the i-th and j-th odd node in the
    full graph. No paths are kept: `augment` rebuilds the matched ones.
    """

    nodes: tuple[int, ...]
    dist: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        d = len(self.nodes)
        if len(self.dist) != d or any(len(row) != d for row in self.dist):
            raise ValueError("distance table must be d x d")
        for i in range(d):
            if self.dist[i][i] != 0:
                raise ValueError("diagonal distances must be zero")
            for j in range(d):
                if self.dist[i][j] != self.dist[j][i]:
                    raise ValueError("distance table must be symmetric")

    @property
    def d(self) -> int:
        return len(self.nodes)


def odd_pair_distances(g: Graph) -> OddPairDistances:
    """Exact all-pairs distances between the odd-degree nodes of g."""
    odd = odd_nodes(g)
    dist_all, _ = shortest_paths(g, odd)
    table = tuple(tuple(dist_all[a][b] for b in odd) for a in odd)
    return OddPairDistances(nodes=tuple(odd), dist=table)


def enumerate_matchings(d: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All (d-1)!! perfect pairings of indices 0..d-1, canonical order.

    The first unmatched index is paired with each larger remaining index in
    ascending order, then the rest recursively; d=0 yields one empty pairing.
    """
    if d < 0 or d % 2 == 1:
        raise ValueError("d must be a nonnegative even count")
    if d > MATCHING_GUARD:
        raise TooLargeError(f"refusing to enumerate pairings for d={d} > {MATCHING_GUARD}")

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        first = remaining[0]
        for k in range(1, len(remaining)):
            partner = remaining[k]
            rest = remaining[1:k] + remaining[k + 1:]
            for tail in rec(rest):
                yield ((first, partner),) + tail

    return rec(tuple(range(d)))


@dataclass(frozen=True)
class Matching:
    """A perfect pairing of the odd nodes and its total distance."""

    pairs: tuple[tuple[int, int], ...]          # node ids, each pair sorted
    weight: Number


@dataclass(frozen=True)
class CppSolution:
    m_min: Number
    l_t: Number
    matching: Matching
    circuit: tuple[tuple[int, int, int], ...] | None = None  # (u, v, edge id) steps

    def to_json(self) -> dict:
        out = {
            "m_min": to_jsonable(self.m_min),
            "l_t": to_jsonable(self.l_t),
            "matching": [list(p) for p in self.matching.pairs],
        }
        if self.circuit is not None:
            out["circuit"] = walk_nodes(self.circuit)
        return out


def minimum_matching(table: OddPairDistances) -> Matching:
    """Minimum-weight perfect pairing by explicit enumeration.

    Ties are broken by enumeration order, so the result is deterministic.
    """
    d = table.d
    best_pairing: tuple[tuple[int, int], ...] | None = None
    best_weight: Number | None = None
    for pairing in enumerate_matchings(d):
        w = sum((table.dist[i][j] for i, j in pairing), start=0)
        if best_weight is None or w < best_weight:
            best_weight = w
            best_pairing = pairing
    assert best_pairing is not None and best_weight is not None
    node_pairs = tuple(
        tuple(sorted((table.nodes[i], table.nodes[j]))) for i, j in best_pairing
    )
    return Matching(pairs=node_pairs, weight=best_weight)


def m_min(g: Graph) -> CppSolution:
    """Minimum extra-path weight and the closed-route length, no circuit."""
    table = odd_pair_distances(g)
    matching = minimum_matching(table)
    base = total_weight(g)
    return CppSolution(m_min=matching.weight, l_t=base + matching.weight, matching=matching)


def cpp_length(g: Graph) -> Number:
    return m_min(g).l_t


def augment(g: Graph, matching: Matching) -> MultiGraph:
    """Original edges plus one duplicate of every edge on each matched path.

    A matched pair's path is the canonical shortest path from its lower node
    (predecessor ties toward the smaller node index), rebuilt here for the
    d/2 matched pairs only.
    """
    mg = MultiGraph(g.n)
    for u, v, w in g.edges:
        mg.add_edge(u, v, w)
    _, pred = shortest_paths(g, [a for a, _ in matching.pairs])
    for a, b in matching.pairs:
        path = reconstruct_path(pred[a], a, b)
        for x, y in zip(path, path[1:]):
            mg.add_edge(x, y, g.weight(x, y))
    return mg


def euler_circuit(mg: MultiGraph) -> tuple[tuple[int, int, int], ...]:
    """Closed walk using every multigraph edge exactly once.

    Hierholzer splicing, started at the lowest-index active node, always
    leaving along the lowest-index neighbor (then lowest edge id), so the
    walk is reproducible byte for byte.
    """
    deg = mg.degrees()
    if any(d % 2 for d in deg):
        raise NotEulerianError("odd degree node present")
    if not mg.is_connected_on_edges():
        raise NotEulerianError("edges are not connected")
    if not mg.edges:
        return ()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(mg.n)]
    for eid, (u, v, _) in enumerate(mg.edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    for lst in adj:
        lst.sort()
    used = [False] * len(mg.edges)
    cursor = [0] * mg.n
    start = min(v for v, d in enumerate(deg) if d > 0)
    stack: list[tuple[int, int | None]] = [(start, None)]  # (node, edge that led here)
    trail: list[tuple[int, int]] = []
    while stack:
        v, _ = stack[-1]
        while cursor[v] < len(adj[v]) and used[adj[v][cursor[v]][1]]:
            cursor[v] += 1
        if cursor[v] < len(adj[v]):
            nxt, eid = adj[v][cursor[v]]
            used[eid] = True
            stack.append((nxt, eid))
        else:
            node, eid = stack.pop()
            if eid is not None:
                trail.append((node, eid))
    trail.reverse()
    walk = []
    here = start
    for node, eid in trail:
        walk.append((here, node, eid))
        here = node
    return tuple(walk)


def walk_nodes(walk: tuple[tuple[int, int, int], ...]) -> list[int]:
    if not walk:
        return []
    return [walk[0][0]] + [step[1] for step in walk]


def walk_length(mg: MultiGraph, walk: tuple[tuple[int, int, int], ...]) -> Number:
    return sum((mg.edges[eid][2] for _, _, eid in walk), start=0)


def solve(g: Graph, with_circuit: bool = False) -> CppSolution:
    """Full exact solution; optionally extracts the closed route."""
    sol = m_min(g)
    if not with_circuit:
        return sol
    mg = augment(g, sol.matching)
    walk = euler_circuit(mg)
    return CppSolution(m_min=sol.m_min, l_t=sol.l_t, matching=sol.matching, circuit=walk)
