"""Undirected weighted graphs: representation, degree/Eulerian analysis,
exact shortest paths, breadth-first hops, random non-Eulerian ensembles, and
edge-list I/O.

Nodes are 0..n-1. Graphs are simple (no self-loops, one edge per pair) with
strictly positive exact weights; parallel edges live only in MultiGraph,
which is produced by route augmentation. A Graph derives its degree and
adjacency views once, on the instance; no module-level cache holds graphs.
"""

from __future__ import annotations

import heapq
import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DisconnectedGraphError, InfeasibleSpecError, InvalidArgumentError, ParseError, TooLargeError
from .numbers import Number, as_exact, format_number, json_int, parse_number

Edge = tuple[int, int, Number]

# A graph's node count alone sizes its views (a dict and a degree per node):
# `postman exact` on an edge list with no edges peaked at 111 MB RSS at
# n = 2**20 and 351 MB at n = 2**22.
MAX_NODES = 1 << 20

# An ensemble draw lists all n(n-1)/2 candidate pairs before `Graph` sees n,
# about 270 bytes and 2 us each at edge probability 0.5 (`postman gen --n 2000`
# peaked at 565 MB RSS in 4.0 s). 2**20 pairs is n = 1448.
MAX_PAIRS = 1 << 20

MAX_ATTEMPTS = 10_000  # rejected draws (disconnected or Eulerian) before an ensemble spec is infeasible


def _canonical_edges(n: int, edges: Iterable[Sequence]) -> tuple[Edge, ...]:
    seen = set()
    out = []
    for e in edges:
        u, v, w = operator.index(e[0]), operator.index(e[1]), as_exact(e[2])
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidArgumentError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise InvalidArgumentError(f"self-loop at node {u}")
        if w <= 0:
            raise InvalidArgumentError(f"edge ({u},{v}) has non-positive weight {w}")
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in seen:
            raise InvalidArgumentError(f"duplicate edge ({a},{b})")
        seen.add((a, b))
        out.append((a, b, w))
    out.sort(key=lambda e: (e[0], e[1]))
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Simple undirected weighted graph; immutable and hashable."""

    n: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: Iterable[Sequence]):
        if n < 1:
            raise InvalidArgumentError("graph needs at least one node")
        if n > MAX_NODES:
            raise TooLargeError(f"graph of {n} nodes exceeds node guard {MAX_NODES}")
        object.__setattr__(self, "n", operator.index(n))
        object.__setattr__(self, "edges", _canonical_edges(n, edges))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def adjacency(self) -> tuple[dict[int, Number], ...]:
        """Per node, neighbor -> weight in ascending neighbor order (the
        sorted edge tuple inserts them in that order)."""
        adj: list[dict[int, Number]] = [{} for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u][v] = w
            adj[v][u] = w
        return tuple(adj)

    def weight(self, u: int, v: int) -> Number:
        if not self.has_edge(u, v):
            raise KeyError(f"no edge ({u},{v})")
        return self.adjacency[u][v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.adjacency[u]


def odd_nodes(g: Graph) -> list[int]:
    """Nodes of odd degree, ascending; always an even count."""
    return [v for v, d in enumerate(g.degrees) if d % 2 == 1]


def hops(adj, start: int) -> dict[int, int]:
    """Breadth-first hop distance from `start` to every node it reaches.

    `adj[u]` iterates u's neighbors: a list, or a Graph's neighbor -> weight dict.
    """
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        u = frontier.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


def is_connected(g: Graph) -> bool:
    return len(hops(g.adjacency, 0)) == g.n


def is_eulerian(g: Graph) -> bool:
    """Connected with every degree even."""
    return is_connected(g) and not odd_nodes(g)


def total_weight(g: Graph) -> Number:
    return sum((w for _, _, w in g.edges), start=0)


def shortest_paths(g: Graph, sources: Iterable[int]):
    """Exact single-source shortest paths from each source.

    Returns (dist, pred): dist[s][v] is the exact distance, pred[s][v] the
    predecessor of v on one shortest path from s. Predecessor ties are broken
    toward the smaller node index so reconstructed routes are reproducible.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("shortest paths require a connected graph")
    adj = g.adjacency
    dist_all: dict[int, dict[int, Number]] = {}
    pred_all: dict[int, dict[int, int | None]] = {}
    for s in sources:
        dist: dict[int, Number] = {s: 0}
        pred: dict[int, int | None] = {s: None}
        done: set[int] = set()
        heap: list[tuple[Number, int]] = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in adj[u].items():
                nd = d + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
                elif nd == dist[v] and v not in done and pred[v] is not None and u < pred[v]:
                    pred[v] = u
        dist_all[s] = dist
        pred_all[s] = pred
    return dist_all, pred_all


def _pair_distances(
    adj: Sequence[dict[int, Number]], nodes: Sequence[int]
) -> tuple[tuple[Number, ...], ...]:
    """Exact distances among `nodes` as a symmetric tuple-of-tuples table.

    `adj` holds per-node neighbor -> weight dicts: a Graph's adjacency, or a
    defect scan's patched copy of it. The search from nodes[i] stops once
    nodes[i+1:] are settled, so the last node runs none, and no predecessors
    are kept. Tentative distances sit in a list indexed by node (None until
    reached). Weights are positive, so a distance is final when its node
    leaves the heap. The nodes must be distinct and reachable from each
    other; callers check connectivity.
    """
    d = len(nodes)
    table = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        s = nodes[i]
        wanted = {v: j for j, v in enumerate(nodes[i + 1:], start=i + 1)}
        best: list[Number | None] = [None] * len(adj)
        best[s] = 0
        heap: list[tuple[Number, int]] = [(0, s)]
        while True:
            du, u = heapq.heappop(heap)
            if du != best[u]:
                continue  # a stale entry: u was reached more cheaply since
            j = wanted.pop(u, None)
            if j is not None:
                table[i][j] = table[j][i] = du
                if not wanted:
                    break
            for v, w in adj[u].items():
                nd = du + w
                if best[v] is None or nd < best[v]:
                    best[v] = nd
                    heapq.heappush(heap, (nd, v))
    return tuple(map(tuple, table))


def reconstruct_path(pred: dict[int, int | None], source: int, target: int) -> list[int]:
    """Node sequence from source to target following predecessors."""
    path = [target]
    while path[-1] != source:
        prev = pred[path[-1]]
        if prev is None:
            raise DisconnectedGraphError(f"no path from {source} to {target}")
        path.append(prev)
    path.reverse()
    return path


class MultiGraph:
    """Undirected multigraph used as the augmented route graph."""

    def __init__(self, n: int):
        self.n = n
        self.edges: list[Edge] = []

    def add_edge(self, u: int, v: int, w: Number) -> int:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"bad multigraph edge ({u},{v})")
        a, b = (u, v) if u < v else (v, u)
        self.edges.append((a, b, as_exact(w)))
        return len(self.edges) - 1


@dataclass(frozen=True)
class GraphFeatures:
    """Degree fingerprint: odd count d, max/min degree, degree-1 count."""

    d: int
    c_max: int
    c_min: int
    c_1: int


def graph_features(g: Graph) -> GraphFeatures:
    deg = g.degrees
    return GraphFeatures(
        d=sum(1 for x in deg if x % 2 == 1),
        c_max=max(deg),
        c_min=min(deg),
        c_1=sum(1 for x in deg if x == 1),
    )


@dataclass(frozen=True)
class EnsembleSpec:
    """Random non-Eulerian ensemble: G(n, p) with rejection sampling.

    Each graph index derives its own RNG stream from the master seed, so
    generation is deterministic and order-independent. Graphs that come out
    disconnected or Eulerian are rejected; after `MAX_ATTEMPTS` rejections the
    spec is declared infeasible.
    """

    n: int
    edge_prob: float
    count: int
    seed: int
    w_lo: int = 1
    w_hi: int = 1

    def __post_init__(self):
        if self.n < 3:
            raise InvalidArgumentError("ensemble graphs need n >= 3")
        pairs = self.n * (self.n - 1) // 2
        if pairs > MAX_PAIRS:
            raise TooLargeError(
                f"ensemble of {self.n} nodes has {pairs} candidate pairs, over the pair guard {MAX_PAIRS}"
            )
        if not (0.0 < self.edge_prob < 1.0):
            raise InvalidArgumentError("edge probability must be in (0,1)")
        if not (1 <= self.w_lo <= self.w_hi):
            raise InvalidArgumentError("need 1 <= w_lo <= w_hi")
        if self.count < 0:
            raise InvalidArgumentError("count must be nonnegative")


def _sample_graph(spec: EnsembleSpec, rng: np.random.Generator) -> Graph:
    pairs = [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)]
    coins = rng.random(len(pairs))
    chosen = [p for p, c in zip(pairs, coins) if c < spec.edge_prob]
    if spec.w_lo == spec.w_hi:
        weights = [spec.w_lo] * len(chosen)
    else:
        weights = [int(x) for x in rng.integers(spec.w_lo, spec.w_hi + 1, len(chosen))]
    return Graph(spec.n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


def random_graph(spec: EnsembleSpec, index: int) -> Graph:
    """The index-th graph of the ensemble: connected and non-Eulerian."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, index)))
    for _ in range(MAX_ATTEMPTS):
        g = _sample_graph(spec, rng)
        if g.edges and is_connected(g) and odd_nodes(g):
            return g
    raise InfeasibleSpecError(
        f"no connected non-Eulerian graph in {MAX_ATTEMPTS} attempts "
        f"(n={spec.n}, p={spec.edge_prob})"
    )


# --- edge-list and JSON formats --------------------------------------------
#
# Text: first non-comment line "n m", then m lines "u v w"; '#' starts a
# comment. JSON: {"n": ..., "edges": [[u, v, w], ...]}.

def write_edge_list(g: Graph, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.n} {len(g.edges)}")
    lines.extend(f"{u} {v} {format_number(w)}" for u, v, w in g.edges)
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, Number]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError("expected header 'n m'", lineno)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ParseError("expected integer header 'n m'", lineno) from None
            continue
        if len(parts) != 3:
            raise ParseError("expected edge line 'u v w'", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", lineno) from None
        edges.append((u, v, parse_number(parts[2], lineno)))
    if header is None:
        raise ParseError("empty edge-list file")
    n, m = header
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}")
    return Graph(n, edges)


def graph_from_json(obj) -> Graph:
    """A graph from its parsed JSON object `{"n": ..., "edges": [[u, v, w], ...]}`."""
    try:
        n = json_int(obj["n"])
        edges = [(json_int(e[0]), json_int(e[1]), as_exact(e[2])) for e in obj["edges"]]
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"bad graph JSON: {exc}") from None
    return Graph(n, edges)
