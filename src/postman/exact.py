"""Exact route-inspection solver.

Pipeline: collect odd-degree nodes, build the pairwise shortest-distance
table over them, find the minimum-weight perfect pairing by a depth-first
search over the (d-1)!! pairings, duplicate the matched shortest paths, and
extract a closed circuit from the augmented multigraph. The table and the
matching carry distances only; `augment` rebuilds one canonical shortest
path per matched pair, d/2 in all, when a route is asked for. Everything is
exact arithmetic and deterministic: the search visits pairings in canonical
order and keeps the first optimum, predecessor ties go to the smaller node,
and the circuit walks lowest-index neighbors first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DisconnectedGraphError, NotEulerianError, TooLargeError
from .graphs import (
    Graph,
    MultiGraph,
    Number,
    _pair_distances,
    is_connected,
    odd_nodes,
    reconstruct_path,
    shortest_paths,
    total_weight,
)
from .numbers import to_jsonable

# (13)!! = 135135 pairings. An all-equal d = 14 table, where the search prunes
# only each pairing's last pair, takes 0.13 s (2-core x86_64 VM).
MATCHING_GUARD = 14


@dataclass(frozen=True)
class OddPairDistances:
    """Symmetric, nonnegative table of exact shortest distances between odd nodes.

    dist[i][j] is the distance between the i-th and j-th odd node in the
    full graph. No paths are kept: `augment` rebuilds the matched ones.
    """

    nodes: tuple[int, ...]
    dist: tuple[tuple[Number, ...], ...]

    def __post_init__(self):
        d = len(self.nodes)
        dist = self.dist
        if len(dist) != d or any(len(row) != d for row in dist):
            raise ValueError("distance table must be d x d")
        # entries must be >= 0: `minimum_matching` prunes on partial sums
        for i, row in enumerate(dist):
            if row[i] != 0:
                raise ValueError("diagonal distances must be zero")
            for j in range(i + 1, d):
                w = row[j]
                if w < 0 or w != dist[j][i]:
                    raise ValueError(
                        "distances must be nonnegative" if w < 0 else "distance table must be symmetric"
                    )

    @property
    def d(self) -> int:
        return len(self.nodes)


def odd_pair_distances(g: Graph) -> OddPairDistances:
    """Exact all-pairs distances between the odd-degree nodes of g."""
    if not is_connected(g):
        raise DisconnectedGraphError("shortest paths require a connected graph")
    odd = tuple(odd_nodes(g))
    return OddPairDistances(nodes=odd, dist=_pair_distances(g.adjacency, odd))


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
    """Minimum-weight perfect pairing of the table's odd nodes.

    Checks that d is even and within `MATCHING_GUARD`, runs `_min_pairing`
    on the raw table and names each pair by its nodes, lower node first.
    """
    d = table.d
    if d % 2 == 1:
        raise ValueError(f"d must be even, got {d}")
    if d > MATCHING_GUARD:
        raise TooLargeError(f"refusing to enumerate pairings for d={d} > {MATCHING_GUARD}")
    pairing, weight = _min_pairing(table.dist)
    node_pairs = tuple(
        tuple(sorted((table.nodes[i], table.nodes[j]))) for i, j in pairing
    )
    return Matching(pairs=node_pairs, weight=weight)


def _min_pairing(
    dist: tuple[tuple[Number, ...], ...],
) -> tuple[tuple[tuple[int, int], ...], Number]:
    """(pairing, weight) of a minimum-weight perfect pairing of a raw table's
    indices, by a pruned depth-first search; d must be even.

    Pairings are visited in canonical order (the lowest free index pairs with
    each later one, ascending) and summed pair by pair from 0. A branch is
    abandoned once its partial weight reaches the best total; entries are
    >= 0, so none of its completions is lower. Ties go to the first optimum.
    """
    chosen: list[tuple[int, int]] = []
    best_pairing: tuple[tuple[int, int], ...] = ()
    best_weight: Number | None = None

    def search(free: tuple[int, ...], weight: Number) -> None:
        nonlocal best_pairing, best_weight
        if not free:
            best_pairing, best_weight = tuple(chosen), weight
            return
        first, rest = free[0], free[1:]
        row = dist[first]
        for k, partner in enumerate(rest):
            w = weight + row[partner]
            if best_weight is None or w < best_weight:
                chosen.append((first, partner))
                search(rest[:k] + rest[k + 1:], w)
                chosen.pop()

    search(tuple(range(len(dist))), 0)
    return best_pairing, best_weight


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
    walk is reproducible byte for byte. The walk covers exactly its start's
    component, so it uses every edge only when the edges are connected.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(mg.n)]
    for eid, (u, v, _) in enumerate(mg.edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    if any(len(lst) % 2 for lst in adj):
        raise NotEulerianError("odd degree node present")
    if not mg.edges:
        return ()
    for lst in adj:
        lst.sort()
    used = [False] * len(mg.edges)
    cursor = [0] * mg.n
    start = min(v for v, lst in enumerate(adj) if lst)
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
    if len(trail) < len(mg.edges):
        raise NotEulerianError("edges are not connected")
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


def solve(g: Graph, with_circuit: bool = False) -> CppSolution:
    """Full exact solution; optionally extracts the closed route."""
    sol = m_min(g)
    if not with_circuit:
        return sol
    mg = augment(g, sol.matching)
    walk = euler_circuit(mg)
    return CppSolution(m_min=sol.m_min, l_t=sol.l_t, matching=sol.matching, circuit=walk)
