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
import math
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
    TooLargeError,
)
from .graphs import hops
from .numbers import Number, as_exact, normalize
from .qubo import IsingModel, _IntForm

MAX_GRID = 256  # an embed's couplers and chain index peaked at 128 MB RSS at m = 256, 432 MB at m = 512


@dataclass(frozen=True)
class ChimeraTopology:
    m: int
    faulty: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.m < 1:
            raise InvalidArgumentError("grid size must be at least 1")
        if self.m > MAX_GRID:
            raise TooLargeError(f"grid size {self.m} exceeds Chimera grid guard {MAX_GRID}")
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

    def coupler_array(self) -> np.ndarray:
        """Every coupler between enabled qubits as a row (a, b), a < b, rows sorted."""
        m = self.m
        cells = 8 * np.arange(m * m).reshape(m, m)
        k = np.arange(4)
        inside = (cells.reshape(-1, 1, 1) + k[:, None], cells.reshape(-1, 1, 1) + 4 + k)  # shore 0 x shore 1
        down = cells[:-1].reshape(-1, 1) + k                                              # shore 0, next row
        right = cells[:, :-1].reshape(-1, 1) + 4 + k                                      # shore 1, next column
        a = np.concatenate([np.broadcast_to(inside[0], (m * m, 4, 4)).ravel(), down.ravel(), right.ravel()])
        b = np.concatenate([np.broadcast_to(inside[1], (m * m, 4, 4)).ravel(), (down + 8 * m).ravel(), (right + 8).ravel()])
        enabled = np.ones(8 * m * m, dtype=bool)
        enabled[list(self.faulty)] = False
        keep = enabled[a] & enabled[b]
        a, b = a[keep], b[keep]
        order = np.lexsort((b, a))
        return np.stack([a[order], b[order]], axis=1)


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
        """Chain positions and the couplers within and between chains, from one
        join of the (qubit, chain) memberships with the topology's couplers."""
        lengths = [len(chain) for chain in self.chains]
        width = max(len(self.chains), 1)
        qubits = np.fromiter(itertools.chain.from_iterable(self.chains), dtype=np.int64, count=sum(lengths))
        order = np.sort(qubits)
        # a qubit listed more than once is named by its last position
        flat = (np.searchsorted(order, qubits, side="right") - 1).tolist()
        positions = tuple(tuple(flat[end - size:end]) for size, end in zip(lengths, itertools.accumulate(lengths)))
        # each (qubit, chain) membership once, sorted by qubit
        held, owner = np.divmod(np.unique(qubits * width + np.repeat(np.arange(len(self.chains)), lengths)), width)
        couplers = self.topology.coupler_array()
        # the join: for coupler (a, b), every membership of a times every one of b
        first = [np.searchsorted(held, couplers[:, end]) for end in (0, 1)]
        count = [np.searchsorted(held, couplers[:, end], side="right") - first[end] for end in (0, 1)]
        joins = count[0] * count[1]
        coupler = np.repeat(np.arange(len(couplers)), joins)
        rank = np.arange(len(coupler)) - np.repeat(np.cumsum(joins) - joins, joins)
        x = owner[first[0][coupler] + rank // count[1][coupler]]
        y = owner[first[1][coupler] + rank % count[1][coupler]]
        # sorted by chain pair (i <= j), then coupler; each (pair, coupler) once
        E = max(len(couplers), 1)
        pair, coupler = np.divmod(np.unique((np.minimum(x, y) * width + np.maximum(x, y)) * E + coupler), E)
        # a < b and positions follow qubit order, so each pair stays ordered
        pairs = (np.searchsorted(order, couplers[coupler], side="right") - 1).astype(np.intp)
        starts = np.flatnonzero(np.diff(pair, prepend=-1))
        stops = np.append(starts[1:], len(pair))
        spans = {
            divmod(key, width): slice(start, stop)
            for key, start, stop in zip(pair[starts].tolist(), starts.tolist(), stops.tolist())
        }
        return ChainIndex(tuple(order.tolist()), positions, pairs, spans)

    @cached_property
    def chain_violations(self) -> tuple["Violation", ...]:
        """The chains' missing-qubit, overlap and connectivity violations, checked once."""
        violations: list[Violation] = []
        owner: dict[int, int] = {}
        for i, chain in enumerate(self.chains):
            for q in chain:
                if not self.topology.enabled(q):
                    violations.append(Violation("missing-qubit", f"chain {i} uses disabled qubit {q}"))
                if q in owner:
                    where = f"appears twice in chain {i}" if owner[q] == i else f"in chains {owner[q]} and {i}"
                    violations.append(Violation("overlap", f"qubit {q} {where}"))
                owner.setdefault(q, i)
        index = self.chain_index
        for i, positions in enumerate(index.positions):
            if not positions:
                violations.append(Violation("connectivity", f"chain {i} is empty"))
                continue
            adj = _adjacency(positions, index.pairs[index.spans.get((i, i), slice(0, 0))].tolist())
            if len(hops(adj, positions[0])) != len(adj):
                violations.append(Violation("connectivity", f"chain {i} is not connected"))
        return tuple(violations)

    def to_json(self) -> dict:
        return {
            "m": self.topology.m,
            "faulty": sorted(self.topology.faulty),
            "chains": {str(i): list(chain) for i, chain in enumerate(self.chains)},
        }

    @staticmethod
    def from_json(obj) -> "Embedding":
        """Inverse of `to_json` on the parsed object, whose own `m` and `faulty` make the
        topology; raises ParseError on a missing or ill-typed field."""
        if not isinstance(obj, dict) or not isinstance(obj.get("chains"), dict) or "m" not in obj:
            raise ParseError("embedding needs a grid size 'm' and a 'chains' object")
        chains = obj["chains"]
        if set(chains) != {str(i) for i in range(len(chains))}:
            raise ParseError(f"chain keys must be '0'..'{len(chains) - 1}'")
        lists = [[obj["m"]], obj.get("faulty", []), *chains.values()]
        if any(not isinstance(v, list) or any(type(q) is not int for q in v) for v in lists):
            raise ParseError("grid size, faulty qubits and chain qubits must be integers")
        topology = chimera_graph(obj["m"], obj.get("faulty", []))
        return Embedding(tuple(tuple(chains[str(i)]) for i in range(len(chains))), topology)


@dataclass(frozen=True, eq=False)
class ChainIndex:
    """Qubits are named by position in `qubit_order` (monotone in qubit id); `positions[i]`
    is chain i in its own order. `pairs` holds every coupler between chain qubits as a
    row of two positions, grouped by the chains (i, j), i <= j, it joins and sorted within
    a group; `spans[(i, j)]` is that group's rows. A qubit may be in several chains, and
    then its couplers count for every chain that holds it."""

    qubit_order: tuple[int, ...]
    positions: tuple[tuple[int, ...], ...]
    pairs: np.ndarray
    spans: dict[tuple[int, int], slice]

    @cached_property
    def joined(self) -> np.ndarray:
        """i * len(positions) + j for each chain pair (i, j) of `spans`, sorted."""
        keys = np.array(list(self.spans), dtype=np.int64).reshape(-1, 2)
        return keys[:, 0] * len(self.positions) + keys[:, 1]


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
    Only coverage is checked per call, for every coupler at once in int64
    arrays; `Embedding.chain_violations` is cached.

    Returns the violation list (empty means valid), coverage in coupler order;
    never raises on couplers of two int64 indices.
    """
    violations = list(emb.chain_violations)
    n = emb.n_logical
    couplers = list(logical_couplers)
    lo, hi = np.fromiter(itertools.chain.from_iterable(couplers), dtype=np.int64).reshape(len(couplers), 2).T
    inside = (lo >= 0) & (lo < n) & (hi >= 0) & (hi < n)
    # a table over the joined pairs' codes, which lie below n**2
    joined = np.isin(np.minimum(lo, hi) * n + np.maximum(lo, hi), emb.chain_index.joined, kind="table")
    for k in np.flatnonzero(~(inside & joined)).tolist():
        i, j = couplers[k]
        if not inside[k]:
            violations.append(Violation("coverage", f"logical coupler ({i},{j}) out of range"))
        else:
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
    adj = _adjacency(nodes, index.pairs.tolist())
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

    The model is computed in integers from the logical form (scale L): every
    share is a numerator over L * lcm(chain lengths, coupler counts) *
    denominator(jf), and `_IntForm.over` reduces them to the model's form.
    Couplings keep their insertion order: the couplers between chains in
    logical-coupling order, then each chain's own couplers.
    """
    if logical.n != emb.n_logical:
        raise InvalidEmbeddingError(
            f"model has {logical.n} variables, embedding has {emb.n_logical} chains"
        )
    problems = validate_embedding(emb, logical.couplings.keys())
    if problems:
        raise InvalidEmbeddingError("; ".join(f"{v.kind}: {v.detail}" for v in problems))
    index = emb.chain_index
    form = logical.int_form
    jf_exact = Fraction(as_exact(jf))
    lengths = [len(positions) for positions in index.positions]
    # the physical couplers of each logical coupling, then those inside each chain
    groups = [index.spans[key] for key in logical.couplings]
    groups += [index.spans.get((i, i), slice(0, 0)) for i in range(emb.n_logical)]
    counts = [group.stop - group.start for group in groups]
    spread = math.lcm(*lengths, *counts[:len(logical.couplings)])
    # each field share and coupling share over L * spread
    fields = [v * (spread // size) for v, size in zip(form.linear.tolist(), lengths)]
    shares = [v * (spread // size) for v, size in zip(form.quad.tolist(), counts)]
    largest = max(map(abs, fields + shares), default=0)
    # all of them, the chain value -jf * largest too, over L * spread * denominator(jf)
    up = jf_exact.denominator
    denominator = form.scale * spread * up
    chain = -jf_exact.numerator * largest
    linear = [0] * len(index.qubit_order)
    for positions, v in zip(index.positions, fields):
        for p in positions:
            linear[p] = v * up
    quad = list(itertools.chain.from_iterable(map(itertools.repeat, [v * up for v in shares] + [chain] * emb.n_logical, counts)))
    starts = np.array([group.start for group in groups], dtype=np.intp)
    keys = index.pairs[np.repeat(starts - np.cumsum([0, *counts[:-1]]), counts) + np.arange(sum(counts))]
    physical = _IntForm.over("ising", len(linear), denominator, form.offset * spread * up, linear, keys[:, 0], keys[:, 1], quad)
    chain_value = Fraction(chain, denominator)
    return EmbeddedIsing(
        model=IsingModel._from_form(physical),
        embedding=emb,
        qubit_order=index.qubit_order,
        jf=normalize(jf_exact),
        scale=normalize(Fraction(largest, form.scale * spread)),
        chain_offsets=tuple(normalize(chain_value * size) for size in counts[len(shares):]),
        constant=normalize(chain_value * sum(counts[len(shares):])),
    )


def autoscale(model: IsingModel) -> tuple[IsingModel, Number]:
    """Uniformly divide by the smallest factor bringing |J| <= 1 and |h| <= 2.

    The factor is never below 1 and scaling divides the offset too, so the
    ordering of configurations (hence the argmin) is unchanged; scaled
    energy times the factor is the original energy. Both come from the
    model's integer form (scale L): the factor is max(1, max|h| / 2L,
    max|J| / L), and the scaled form its numerators over L * factor.
    """
    form = model.int_form
    lin, quad = form.linear.tolist(), form.quad.tolist()
    top = max(Fraction(max(map(abs, lin), default=0), 2), Fraction(max(map(abs, quad), default=0)))
    factor = max(Fraction(1), top / form.scale)
    if factor == 1:
        return model, 1
    up = factor.denominator
    scaled = _IntForm.over("ising", form.n, form.scale * factor.numerator, form.offset * up,
                           [v * up for v in lin], form.rows, form.cols, [v * up for v in quad])
    return IsingModel._from_form(scaled), normalize(factor)


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
    """Listed in output order: `tuple(DecodePolicy)` is "both"."""
    MAJORITY_VOTE = "majority"
    DISCARD_BROKEN = "discard"


def decode_chains(
    sample: Sequence[int], emb: Embedding, policy: DecodePolicy
) -> tuple[tuple[int, ...] | None, int]:
    """Collapse a physical sample (over the canonical qubit order) per chain.

    Unanimous chains take their shared value. A split chain counts as broken:
    under DISCARD_BROKEN the whole sample is rejected (returns None); under
    MAJORITY_VOTE the majority wins and exact ties take the value of the
    lowest-id physical qubit in the chain. One row of `_decode_reads`.
    """
    logical, broken = _decode_reads(np.asarray(sample, dtype=np.int8).reshape(1, -1), emb)
    broken = int(broken[0])
    if policy is DecodePolicy.DISCARD_BROKEN and broken:
        return None, broken
    return tuple(logical[0].tolist()), broken


def _decode_reads(spins: np.ndarray, emb: Embedding) -> tuple[np.ndarray, np.ndarray]:
    """Majority-vote logical spins (int8, reads x chains) and the broken-chain
    count of each read, for physical spins (reads x qubits, canonical order).

    A chain is unanimous when |sum of its spins| equals its length; otherwise
    it is broken and takes the sign of the sum, a tie the spin of its
    lowest-id qubit. The one decode of `decode_chains` and of
    `metrics.decode_sampleset`; discarding reads is the caller's part."""
    index = emb.chain_index
    if spins.shape[1] != len(index.qubit_order):
        raise ValueError(f"sample has {spins.shape[1]} spins, embedding uses {len(index.qubit_order)} qubits")
    lengths = np.array([len(positions) for positions in index.positions], dtype=np.intp)
    flat = np.fromiter(itertools.chain.from_iterable(index.positions), dtype=np.intp, count=lengths.sum())
    sums = np.add.reduceat(spins[:, flat], np.cumsum(lengths) - lengths, axis=1, dtype=np.int64)
    lowest = spins[:, [min(positions) for positions in index.positions]]
    logical = np.where(sums == 0, lowest, np.sign(sums)).astype(np.int8)
    return logical, np.count_nonzero(np.abs(sums) != lengths, axis=1)
