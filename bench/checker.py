"""Independent answer checker for the benchmark.

Shares no code with `postman`: it parses edge lists itself, computes
all-pairs distances with Floyd-Warshall, finds minimum pairings of the
odd-degree nodes with a subset-bitmask dynamic programme, and evaluates
quadratic models exactly from their coefficients. The benchmark compares
the program's answers against these figures.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def parse_number(text: str):
    """'3' -> 3, '7/2' -> Fraction(7, 2), '1.5' -> Fraction(3, 2)."""
    value = Fraction(text.strip())
    return value.numerator if value.denominator == 1 else value


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int, object]]]:
    """(n, edges) from the 'n m' + 'u v w' text format; '#' lines are comments."""
    rows = [line.split() for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]
    if not rows or len(rows[0]) != 2:
        raise ValueError("edge list needs an 'n m' header")
    n, m = int(rows[0][0]), int(rows[0][1])
    edges = [(int(u), int(v), parse_number(w)) for u, v, w in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"header promised {m} edges, found {len(edges)}")
    return n, edges


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def odd_nodes(n: int, edges) -> list[int]:
    return [v for v, d in enumerate(degrees(n, edges)) if d % 2 == 1]


def floyd_warshall(n: int, edges) -> list[list]:
    """Exact all-pairs shortest distances; None marks unreachable pairs."""
    dist = [[None] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v, w in edges:
        if dist[u][v] is None or w < dist[u][v]:
            dist[u][v] = dist[v][u] = w
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik is None:
                continue
            row_i = dist[i]
            for j in range(n):
                dkj = row_k[j]
                if dkj is not None and (row_i[j] is None or dik + dkj < row_i[j]):
                    row_i[j] = dik + dkj
    return dist


def lowest_pairing_weights(dist, count: int = 2) -> list:
    """The `count` lowest distinct weights over all perfect pairings of 0..d-1.

    Subset-bitmask DP: the lowest set bit of a subset is paired with every
    other member in turn, and only the `count` lowest distinct totals of each
    subset are kept, which is enough to rebuild those of every superset.
    """
    d = len(dist)
    if d % 2:
        raise ValueError("need an even number of nodes to pair")
    best: dict[int, list] = {0: [0]}
    for mask in range(1, 1 << d):
        if bin(mask).count("1") % 2:
            continue
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        totals = set()
        j_bits = rest
        while j_bits:
            low = j_bits & -j_bits
            j = low.bit_length() - 1
            j_bits ^= low
            for sub in best[rest & ~low]:
                totals.add(dist[i][j] + sub)
        best[mask] = sorted(totals)[:count]
    return best[(1 << d) - 1]


def brute_force_pairing_weights(dist) -> list:
    """Every perfect pairing's weight, by explicit enumeration (test oracle)."""

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield 0
            return
        first = remaining[0]
        for k in range(1, len(remaining)):
            rest = remaining[1:k] + remaining[k + 1:]
            for tail in rec(rest):
                yield dist[first][remaining[k]] + tail

    return list(rec(tuple(range(len(dist)))))


class GraphAnswer:
    """Checker's figures for one graph: degrees, odd nodes, M_min, L_t."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = [(u, v, w) for u, v, w in edges]
        self.degrees = degrees(n, self.edges)
        self.odd = [v for v, d in enumerate(self.degrees) if d % 2 == 1]
        self.c_max = max(self.degrees)
        full = floyd_warshall(n, self.edges)
        if any(x is None for row in full for x in row):
            raise ValueError("graph is not connected")
        self.odd_dist = [[full[a][b] for b in self.odd] for a in self.odd]
        self.levels = lowest_pairing_weights(self.odd_dist, 2) if self.odd else [0]
        self.m_min = self.levels[0]
        self.l_t = sum((w for _, _, w in self.edges), 0) + self.m_min

    @property
    def d(self) -> int:
        return len(self.odd)

    @property
    def second_pairing_weight(self):
        """Second-lowest distinct pairing weight, or None if all pairings tie."""
        return self.levels[1] if len(self.levels) > 1 else None

    def bumped(self, bumps: dict[tuple[int, int], object]) -> "GraphAnswer":
        """Same graph with `bumps[(u, v)]` added to each listed edge's weight."""
        return GraphAnswer(self.n, [(u, v, w + bumps.get((u, v), 0)) for u, v, w in self.edges])


def edge_pair_bumps(answer: GraphAnswer, deltas) -> dict[tuple, object]:
    """M_min for every (delta, pair of edges) bump, keyed (delta, (e1, e2))."""
    keys = [(u, v) for u, v, _ in answer.edges]
    out = {}
    for delta in deltas:
        for combo in combinations(keys, 2):
            out[(delta, combo)] = answer.bumped({e: delta for e in combo}).m_min
    return out


class ExactQuadratic:
    """offset + sum lin_i v_i + sum_{(i,j)} quad_ij v_i v_j, evaluated exactly.

    Serves both the spin form (v = +-1) and the binary form (v = 0/1).
    Coefficients are brought to one common denominator once, so each
    evaluation is an integer sum divided by that denominator.
    """

    def __init__(self, offset, linear, quadratic: dict[tuple[int, int], object]):
        coeffs = [Fraction(offset)] + [Fraction(a) for a in linear] + [Fraction(b) for b in quadratic.values()]
        scale = 1
        for c in coeffs:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
        self.scale = scale
        self.n = len(linear)
        self.offset = int(Fraction(offset) * scale)
        self.linear = [int(Fraction(a) * scale) for a in linear]
        self.quadratic = [(i, j, int(Fraction(b) * scale)) for (i, j), b in quadratic.items()]

    def energy(self, values):
        if len(values) != self.n:
            raise ValueError(f"expected {self.n} values, got {len(values)}")
        total = self.offset
        for a, v in zip(self.linear, values):
            total += a * v
        for i, j, b in self.quadratic:
            total += b * values[i] * values[j]
        value = Fraction(total, self.scale)
        return value.numerator if value.denominator == 1 else value

