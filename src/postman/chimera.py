"""Chimera hardware graph, deterministic clique embedding, embedded-model
construction with ferromagnetic chains, spin-reversal gauges, and chain
decoding.

Qubits live on an m x m grid of 8-qubit bipartite cells. Qubit id is
8*(row*m + col) + 4*shore + k with shore 0 coupling vertically between rows
and shore 1 horizontally between columns; within a cell the two shores are
completely coupled. Logical variables map to chains of physical qubits;
physical samples are tuples over the sorted union of chain qubits.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DisconnectedEmbeddingError,
    DoesNotFitError,
    FaultOutOfRangeError,
    InvalidArgumentError,
    InvalidEmbeddingError,
    ParseError,
)
from .graphs import hops
from .numbers import Number, as_exact, normalize
from .qubo import IsingModel


@dataclass(frozen=True)
class ChimeraTopology:
    m: int
    faulty: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.m < 1:
            raise InvalidArgumentError("grid size must be at least 1")
        for q in self.faulty:
            if not (0 <= q < 8 * self.m * self.m):
                raise FaultOutOfRangeError(f"faulty qubit {q} outside 0..{8 * self.m * self.m - 1}")

    def qubit(self, row: int, col: int, shore: int, k: int) -> int:
        return 8 * (row * self.m + col) + 4 * shore + k

    @property
    def node_count(self) -> int:
        return 8 * self.m * self.m - len(self.faulty)

    def enabled(self, q: int) -> bool:
        return 0 <= q < 8 * self.m * self.m and q not in self.faulty

    def nodes(self) -> tuple[int, ...]:
        return tuple(q for q in range(8 * self.m * self.m) if q not in self.faulty)

    def couplers(self) -> tuple[tuple[int, int], ...]:
        out = []
        m = self.m
        for row in range(m):
            for col in range(m):
                for k0 in range(4):
                    a = self.qubit(row, col, 0, k0)
                    for k1 in range(4):
                        out.append((a, self.qubit(row, col, 1, k1)))
                if row + 1 < m:
                    for k in range(4):
                        out.append((self.qubit(row, col, 0, k), self.qubit(row + 1, col, 0, k)))
                if col + 1 < m:
                    for k in range(4):
                        out.append((self.qubit(row, col, 1, k), self.qubit(row, col + 1, 1, k)))
        keep = [
            (min(a, b), max(a, b))
            for a, b in out
            if self.enabled(a) and self.enabled(b)
        ]
        keep.sort()
        return tuple(keep)

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        return {q: tuple(sorted(nb)) for q, nb in _adjacency(self.nodes(), self.couplers()).items()}


def chimera_graph(m: int, faulty: Iterable[int] = ()) -> ChimeraTopology:
    return ChimeraTopology(m=m, faulty=frozenset(int(q) for q in faulty))


@dataclass(frozen=True)
class Embedding:
    """Ordered chain of physical qubits per logical variable."""

    chains: tuple[tuple[int, ...], ...]
    topology: ChimeraTopology

    @property
    def n_logical(self) -> int:
        return len(self.chains)

    def qubit_order(self) -> tuple[int, ...]:
        """Canonical physical variable order: sorted union of chain qubits."""
        return self.chain_index.qubit_order

    @cached_property
    def chain_index(self) -> "ChainIndex":
        """Chain positions and the couplers within and between chains, in one pass."""
        order = tuple(sorted(q for chain in self.chains for q in chain))
        pos = {q: i for i, q in enumerate(order)}
        owners: dict[int, set[int]] = {}
        for i, chain in enumerate(self.chains):
            for q in chain:
                owners.setdefault(q, set()).add(i)
        within: list[list[tuple[int, int]]] = [[] for _ in self.chains]
        between: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for a, b in self.topology.couplers():
            if a in owners and b in owners:
                # a < b and positions follow qubit order, so the pair stays ordered
                pair = (pos[a], pos[b])
                for i, j in {(min(x, y), max(x, y)) for x in owners[a] for y in owners[b]}:
                    (within[i] if i == j else between.setdefault((i, j), [])).append(pair)
        positions = tuple(tuple(pos[q] for q in chain) for chain in self.chains)
        pairs = {k: tuple(c) for k, c in between.items()}
        return ChainIndex(order, positions, tuple(map(tuple, within)), pairs)

    def to_json(self) -> dict:
        return {
            "m": self.topology.m,
            "faulty": sorted(self.topology.faulty),
            "chains": {str(i): list(chain) for i, chain in enumerate(self.chains)},
        }

    @staticmethod
    def from_json(obj, topology: ChimeraTopology | None = None) -> "Embedding":
        """Inverse of `to_json`; raises ParseError on a missing or ill-typed field."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict) or not isinstance(obj.get("chains"), dict) or "m" not in obj:
            raise ParseError("embedding needs a grid size 'm' and a 'chains' object")
        chains = obj["chains"]
        if set(chains) != {str(i) for i in range(len(chains))}:
            raise ParseError(f"chain keys must be '0'..'{len(chains) - 1}'")
        lists = [[obj["m"]], obj.get("faulty", []), *chains.values()]
        if any(not isinstance(v, list) or any(type(q) is not int for q in v) for v in lists):
            raise ParseError("grid size, faulty qubits and chain qubits must be integers")
        if topology is None:
            topology = chimera_graph(obj["m"], obj.get("faulty", []))
        return Embedding(tuple(tuple(chains[str(i)]) for i in range(len(chains))), topology)


@dataclass(frozen=True)
class ChainIndex:
    """Qubits are named by position in `qubit_order` (monotone in qubit id); `positions[i]`
    is chain i in its own order; `within[i]` and `between[(i, j)]` (i < j) are the sorted
    couplers inside chain i and joining chains i and j. A qubit may be in several chains."""

    qubit_order: tuple[int, ...]
    positions: tuple[tuple[int, ...], ...]
    within: tuple[tuple[tuple[int, int], ...], ...]
    between: dict[tuple[int, int], tuple[tuple[int, int], ...]]


def clique_embedding(n_logical: int, topo: ChimeraTopology) -> Embedding:
    """Deterministic triangular embedding of the complete graph K_n.

    Variables are grouped in fours; group g runs a horizontal segment along
    row g (columns 0..g, shore 1) and a vertical segment down column g
    (rows g..t-1, shore 0), meeting in the diagonal cell. Every chain has
    length ceil(n/4) + 1 and every pair of chains shares a cell, hence a
    coupler. Requires n <= 4m and a fault-free triangular region.
    """
    if n_logical < 1:
        raise InvalidArgumentError("need at least one logical variable")
    if n_logical > 4 * topo.m:
        raise DoesNotFitError(
            f"K{n_logical} needs {n_logical} > {4 * topo.m} chain slots on C{topo.m}"
        )
    t = -(-n_logical // 4)  # ceil
    chains = []
    for v in range(n_logical):
        g, k = divmod(v, 4)
        chain = [topo.qubit(g, c, 1, k) for c in range(g + 1)]
        chain += [topo.qubit(r, g, 0, k) for r in range(g, t)]
        for q in chain:
            if not topo.enabled(q):
                raise DoesNotFitError(f"required qubit {q} is faulty")
        chains.append(tuple(chain))
    return Embedding(chains=tuple(chains), topology=topo)


@dataclass(frozen=True)
class Violation:
    kind: str      # "missing-qubit" | "overlap" | "connectivity" | "coverage"
    detail: str


def validate_embedding(
    emb: Embedding,
    logical_couplers: Iterable[tuple[int, int]] = (),
) -> list[Violation]:
    """Check disjointness, chain connectivity (through the couplers inside each
    chain), and coupler coverage, all against the embedding's own topology.

    Returns the violation list (empty means valid); never raises.
    """
    violations: list[Violation] = []
    owner: dict[int, int] = {}
    for i, chain in enumerate(emb.chains):
        for q in chain:
            if not emb.topology.enabled(q):
                violations.append(Violation("missing-qubit", f"chain {i} uses disabled qubit {q}"))
            if q in owner and owner[q] != i:
                violations.append(Violation("overlap", f"qubit {q} in chains {owner[q]} and {i}"))
            owner.setdefault(q, i)
    index = emb.chain_index
    for i, positions in enumerate(index.positions):
        if not positions:
            violations.append(Violation("connectivity", f"chain {i} is empty"))
            continue
        adj = _adjacency(positions, index.within[i])
        if len(hops(adj, positions[0])) != len(adj):
            violations.append(Violation("connectivity", f"chain {i} is not connected"))
    for (i, j) in logical_couplers:
        if not (0 <= i < emb.n_logical and 0 <= j < emb.n_logical):
            violations.append(Violation("coverage", f"logical coupler ({i},{j}) out of range"))
            continue
        if not (index.within[i] if i == j else index.between.get((min(i, j), max(i, j)))):
            violations.append(Violation("coverage", f"no physical coupler joins chains {i} and {j}"))
    return violations


def _adjacency(nodes: Iterable[int], couplers: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {q: [] for q in nodes}
    for a, b in couplers:
        adj[a].append(b)
        adj[b].append(a)
    return adj


@dataclass(frozen=True)
class ChainStats:
    physical_qubits: int
    max_chain_length: int
    chains_at_max: int


def chain_stats(emb: Embedding) -> ChainStats:
    lengths = [len(c) for c in emb.chains]
    longest = max(lengths)
    return ChainStats(
        physical_qubits=sum(lengths),
        max_chain_length=longest,
        chains_at_max=sum(1 for L in lengths if L == longest),
    )


@dataclass(frozen=True)
class EccentricityStats:
    mean: float
    variance: float
    skewness: float
    kurtosis: float


def eccentricity_stats(emb: Embedding) -> EccentricityStats:
    """Hop-eccentricity moments of the embedded subgraph.

    The subgraph is induced by the union of chain qubits: its edges are the
    couplers within and between chains. Variance is the population form,
    skewness is Fisher's g1, and kurtosis is reported as excess.
    """
    index = emb.chain_index
    nodes = sorted({p for positions in index.positions for p in positions})
    adj = _adjacency(nodes, itertools.chain(*index.within, *index.between.values()))
    ecc = []
    for start in nodes:
        dist = hops(adj, start)
        if len(dist) != len(nodes):
            raise DisconnectedEmbeddingError("embedded subgraph is not connected")
        ecc.append(max(dist.values()))
    e = np.asarray(ecc, dtype=float)
    mean = float(e.mean())
    m2 = float(((e - mean) ** 2).mean())
    if m2 == 0.0:
        return EccentricityStats(mean=mean, variance=0.0, skewness=0.0, kurtosis=0.0)
    m3 = float(((e - mean) ** 3).mean())
    m4 = float(((e - mean) ** 4).mean())
    return EccentricityStats(
        mean=mean,
        variance=m2,
        skewness=m3 / m2**1.5,
        kurtosis=m4 / m2**2 - 3.0,
    )


@dataclass(frozen=True)
class EmbeddedIsing:
    """Physical model plus the bookkeeping needed to interpret its samples.

    Physical variables follow `qubit_order` (sorted union of chain qubits).
    For any configuration with unbroken chains, physical energy equals the
    logical energy of its decode plus `constant` exactly; with `model`
    swapped for its `autoscale` copy, physical energy times the factor does.
    """

    model: IsingModel
    embedding: Embedding
    qubit_order: tuple[int, ...]
    jf: Number
    scale: Number                    # largest |coefficient| of the distributed model
    chain_offsets: tuple[Number, ...]
    constant: Number


def embed_ising(logical: IsingModel, emb: Embedding, jf: Number | float) -> EmbeddedIsing:
    """Distribute a logical model over an embedding and add chain couplers.

    Logical fields split equally over each chain's qubits, and each logical
    coupling splits equally over all physical couplers between its two
    chains. Every intra-chain coupler is set to -jf * C with C the largest
    absolute distributed coefficient. The embedding must pass
    `validate_embedding` for the model's couplings.
    """
    if logical.n != emb.n_logical:
        raise InvalidEmbeddingError(
            f"model has {logical.n} variables, embedding has {emb.n_logical} chains"
        )
    problems = validate_embedding(emb, logical.couplings.keys())
    if problems:
        raise InvalidEmbeddingError("; ".join(f"{v.kind}: {v.detail}" for v in problems))
    index = emb.chain_index
    h = [Fraction(0)] * len(index.qubit_order)
    couplings: dict[tuple[int, int], Fraction] = {}
    for i, positions in enumerate(index.positions):
        share = Fraction(as_exact(logical.h[i]), len(positions))
        for p in positions:
            h[p] += share
    for (i, j), value in logical.couplings.items():
        targets = index.between[(i, j)]
        share = Fraction(as_exact(value), len(targets))
        for key in targets:
            couplings[key] = couplings.get(key, Fraction(0)) + share
    magnitudes = [abs(v) for v in h] + [abs(v) for v in couplings.values()]
    scale = max(magnitudes) if magnitudes else Fraction(0)
    jf_exact = as_exact(jf)
    chain_value = normalize(-Fraction(jf_exact) * scale)
    chain_offsets = []
    for intra in index.within:
        for key in intra:
            couplings[key] = couplings.get(key, Fraction(0)) + chain_value
        chain_offsets.append(normalize(chain_value * len(intra)))
    model = IsingModel(
        n=len(index.qubit_order),
        h=tuple(normalize(v) for v in h),
        couplings={k: normalize(v) for k, v in couplings.items()},
        offset=logical.offset,
    )
    return EmbeddedIsing(
        model=model,
        embedding=emb,
        qubit_order=index.qubit_order,
        jf=normalize(Fraction(jf_exact)),
        scale=normalize(Fraction(scale)),
        chain_offsets=tuple(chain_offsets),
        constant=normalize(sum(chain_offsets, start=Fraction(0))),
    )


def autoscale(model: IsingModel) -> tuple[IsingModel, Number]:
    """Uniformly divide by the smallest factor bringing |J| <= 1 and |h| <= 2.

    The factor is never below 1 and scaling divides the offset too, so the
    ordering of configurations (hence the argmin) is unchanged; scaled
    energy times the factor is the original energy.
    """
    factor = Fraction(1)
    for v in model.h:
        factor = max(factor, Fraction(abs(as_exact(v)), 2))
    for v in model.couplings.values():
        factor = max(factor, Fraction(abs(as_exact(v))))
    if factor == 1:
        return model, 1
    scaled = IsingModel(
        n=model.n,
        h=tuple(normalize(Fraction(as_exact(v)) / factor) for v in model.h),
        couplings={k: normalize(Fraction(as_exact(v)) / factor) for k, v in model.couplings.items()},
        offset=normalize(Fraction(as_exact(model.offset)) / factor),
    )
    return scaled, normalize(factor)


def spin_reversal(n: int, gauges: int, seed: int = 0) -> list[tuple[int, ...]]:
    """Sign vectors of `gauges` random spin-reversal gauges over n spins, gauge k
    drawn from the stream seeded by (seed, k); gauges=0 yields the identity alone."""
    if gauges < 0:
        raise InvalidArgumentError("gauge count must be nonnegative")
    if gauges == 0:
        return [(1,) * n]
    out = []
    for g_index in range(gauges):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, g_index)))
        out.append(tuple(int(v) for v in rng.integers(0, 2, n) * 2 - 1))
    return out


class DecodePolicy(enum.Enum):
    DISCARD_BROKEN = "discard"
    MAJORITY_VOTE = "majority"


def decode_chains(
    sample: Sequence[int], emb: Embedding, policy: DecodePolicy
) -> tuple[tuple[int, ...] | None, int]:
    """Collapse a physical sample (over the canonical qubit order) per chain.

    Unanimous chains take their shared value. A split chain counts as broken:
    under DISCARD_BROKEN the whole sample is rejected (returns None); under
    MAJORITY_VOTE the majority wins and exact ties take the value of the
    lowest-id physical qubit in the chain.
    """
    order = emb.qubit_order()
    if len(sample) != len(order):
        raise ValueError(f"sample has {len(sample)} spins, embedding uses {len(order)} qubits")
    logical: list[int] = []
    broken = 0
    for positions in emb.chain_index.positions:
        spins = [int(sample[p]) for p in positions]
        first = spins[0]
        if all(s == first for s in spins):
            logical.append(first)
            continue
        broken += 1
        if policy is DecodePolicy.MAJORITY_VOTE:
            total = sum(spins)
            if total > 0:
                logical.append(1)
            elif total < 0:
                logical.append(-1)
            else:
                logical.append(int(sample[min(positions)]))
    if policy is DecodePolicy.DISCARD_BROKEN and broken:
        return None, broken
    return tuple(logical), broken
