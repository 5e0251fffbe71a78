import itertools
from fractions import Fraction

import postman  # before numpy: the package keeps OpenBLAS to one thread, so tests may fork
import numpy as np
import pytest

from postman.chimera import DecodePolicy, EmbeddedIsing, Embedding, chimera_graph, validate_embedding
from postman.errors import InvalidEmbeddingError
from postman.exact import Matching, OddPairDistances, m_min
from postman.graphs import EnsembleSpec, Graph, random_graph
from postman.numbers import Number, as_exact, normalize, to_jsonable
from postman.qubo import IsingModel, QuboModel
from postman.samplers import SampleSet, _int_form, _native, _x_floats

# 6-node worked instance: odd nodes {0,1,2,3}, pair distances
# W01=2 W02=5 W03=7 W12=7 W13=5 W23=3, minimum matching {(0,1),(2,3)} at 5.
DEMO_EDGES = [
    (0, 1, 2),
    (0, 2, 5),
    (0, 4, 3),
    (1, 3, 5),
    (1, 4, 1),
    (2, 3, 6),
    (2, 5, 2),
    (3, 5, 1),
]

# a QUBO whose coefficients pass the 2**53 float guard, but whose energy
# counted with each coupling twice (x @ (B + B.T) @ x) passes 2**53 and rounds
# at some starts; tabu search with tenure 4, 4 restarts and seed 2 reaches
# -4 three times and -3 once
NEAR_GUARD_QUBO = QuboModel(
    dim=5, linear=(0, -3, -1, -3, 3),
    quadratic={(0, 2): 2**52, (0, 4): -1, (1, 3): 3, (1, 4): 1, (2, 3): 3, (2, 4): 1},
)


@pytest.fixture(scope="session")
def demo() -> Graph:
    return Graph(6, DEMO_EDGES)


def random_connected_graph(rng: np.random.Generator, n: int, p: float, w_hi: int = 9) -> Graph | None:
    """One draw of G(n, p) with random integer weights; None if disconnected."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, int(rng.integers(1, w_hi + 1))))
    if not edges:
        return None
    g = Graph(n, edges)
    from postman.graphs import is_connected

    return g if is_connected(g) else None


def graph_stream(seed: int, n: int, p: float, w_hi: int = 9):
    """Endless deterministic stream of connected graphs."""
    rng = np.random.default_rng(seed)
    while True:
        g = random_connected_graph(rng, n, p, w_hi)
        if g is not None:
            yield g


def ensemble(spec: EnsembleSpec) -> list[Graph]:
    """The spec's graphs 0 .. count - 1, as `postman gen` draws them."""
    return [random_graph(spec, i) for i in range(spec.count)]


def walk_length(mg, walk) -> Number:
    """Total weight of a walk's multigraph edges."""
    return sum((mg.edges[eid][2] for _, _, eid in walk), start=0)


def enumerate_matchings(d: int):
    """All (d-1)!! perfect pairings of indices 0..d-1, canonical order.

    The first unmatched index is paired with each larger remaining index in
    ascending order, then the rest recursively; d=0 yields one empty pairing.
    """

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


def reference_minimum_matching(table: OddPairDistances) -> Matching:
    """The enumeration that `exact.minimum_matching` ran before it pruned:
    every pairing summed from 0, the first strictly lowest kept."""
    best_pairing, best_weight = None, None
    for pairing in enumerate_matchings(table.d):
        w = sum((table.dist[i][j] for i, j in pairing), start=0)
        if best_weight is None or w < best_weight:
            best_weight, best_pairing = w, pairing
    pairs = tuple(tuple(sorted((table.nodes[i], table.nodes[j]))) for i, j in best_pairing)
    return Matching(pairs=pairs, weight=best_weight)


def num_quadratic(model: QuboModel) -> int:
    """The nonzero couplings of a QUBO."""
    return sum(1 for v in model.quadratic.values() if v != 0)


def graph_to_json(g: Graph) -> dict:
    """A graph in the JSON form that `graphs.graph_from_json` reads."""
    return {"n": g.n, "edges": [[u, v, to_jsonable(w)] for u, v, w in g.edges]}


def ising_to_json(m: IsingModel) -> dict:
    """An Ising model as JSON, couplings in key order; golden outputs hash it."""
    return {
        "n": m.n,
        "offset": to_jsonable(m.offset),
        "h": [to_jsonable(v) for v in m.h],
        "couplings": [[i, j, to_jsonable(v)] for (i, j), v in sorted(m.couplings.items())],
    }


def exhaustive(model) -> SampleSet:
    """Every configuration of a small model with its exact energy, sorted by
    energy: the reference for the exact searches. It evaluates through
    `SampleSet.from_configs` (exact integer products), so it shares no code
    with the float enumeration those searches run on."""
    n, values = (model.n, (-1, 1)) if isinstance(model, IsingModel) else (model.dim, (0, 1))
    return SampleSet.from_configs(model, itertools.product(values, repeat=n), {})


def levels(samples: SampleSet) -> list:
    """The distinct energies of a sample set, ascending."""
    return sorted({r.energy for r in samples.records})


def apply_gauge(model: IsingModel, gauge) -> IsingModel:
    """The model under spin-reversal gauge g in exact arithmetic (h_i -> g_i h_i,
    J_ij -> g_i g_j J_ij; an involution): the reference for gauged sampling."""
    if len(gauge) != model.n:
        raise ValueError("gauge length must match model size")
    return IsingModel(
        n=model.n,
        h=tuple(normalize(as_exact(v) * gauge[i]) for i, v in enumerate(model.h)),
        couplings={
            (i, j): normalize(as_exact(v) * gauge[i] * gauge[j])
            for (i, j), v in model.couplings.items()
        },
        offset=model.offset,
    )


def assert_same_form(form, want) -> None:
    """Two integer forms agree field by field, each array in value and dtype."""
    assert (form.kind, form.n, form.scale, form.offset) == (want.kind, want.n, want.scale, want.offset)
    for name in ("linear", "rows", "cols", "quad"):
        got, expected = getattr(form, name), getattr(want, name)
        assert got.dtype == expected.dtype, name
        assert got.tolist() == expected.tolist(), name


def unequal_k4() -> Embedding:
    """K4 in one cell with chains of lengths 3, 2, 1 and 2, listed out of qubit order;
    the chain pairs are joined by 3, 2, 3, 1, 2 and 1 couplers."""
    return Embedding(chains=((5, 0, 4), (6, 1), (2,), (7, 3)), topology=chimera_graph(1))


def reference_embed(logical: IsingModel, emb, jf) -> EmbeddedIsing:
    """`embed_ising` in Fraction arithmetic, one share at a time: the reference
    for the integer construction. Shares are added to a dict in insertion
    order (the couplers of each logical coupling, then each chain's own), and
    the model's integer form is left to `_IntForm.build`."""
    if logical.n != emb.n_logical:
        raise InvalidEmbeddingError("size mismatch")
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
        targets = index.pairs[index.spans[(i, j)]].tolist()
        share = Fraction(as_exact(value), len(targets))
        for key in map(tuple, targets):
            couplings[key] = couplings.get(key, Fraction(0)) + share
    magnitudes = [abs(v) for v in h] + [abs(v) for v in couplings.values()]
    scale = max(magnitudes) if magnitudes else Fraction(0)
    jf_exact = as_exact(jf)
    chain_value = normalize(-Fraction(jf_exact) * scale)
    chain_offsets = []
    for i in range(emb.n_logical):
        intra = index.pairs[index.spans.get((i, i), slice(0, 0))].tolist()
        for key in map(tuple, intra):
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


def reference_to_ising(q: QuboModel) -> IsingModel:
    """`to_ising` in Fraction arithmetic, one coefficient at a time: the
    reference for the change of basis in integers."""
    h = [Fraction(0)] * q.dim
    couplings: dict[tuple[int, int], Fraction] = {}
    offset = Fraction(q.offset)
    for k, a in enumerate(q.linear):
        h[k] += Fraction(a, 2)
        offset += Fraction(a, 2)
    for (k, l), b in q.quadratic.items():
        quarter = Fraction(b, 4)
        couplings[(k, l)] = normalize(quarter)
        h[k] += quarter
        h[l] += quarter
        offset += quarter
    return IsingModel(n=q.dim, h=tuple(normalize(v) for v in h), couplings=couplings, offset=normalize(offset))


def reference_autoscale(model: IsingModel):
    """`autoscale` in Fraction arithmetic, one coefficient at a time: the
    reference for the rescaling in integers."""
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


def assert_same_model(got: IsingModel, want: IsingModel) -> None:
    """Two models agree in every value and its type (int or Fraction), and in
    coupling insertion order."""
    assert got.n == want.n
    assert got.h == want.h
    assert [type(v) for v in got.h] == [type(v) for v in want.h]
    assert list(got.couplings.items()) == list(want.couplings.items())
    assert [type(v) for v in got.couplings.values()] == [type(v) for v in want.couplings.values()]
    assert (got.offset, type(got.offset)) == (want.offset, type(want.offset))


def reference_decode_chains(sample, emb, policy: DecodePolicy):
    """`decode_chains` as a loop over chains and spins: the reference for the
    array decode."""
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


def reference_decode_sampleset(physical: SampleSet, emb, logical_model, policy: DecodePolicy):
    """`metrics.decode_sampleset` one record at a time through `reference_decode_chains`."""
    configs: list[tuple[int, ...]] = []
    rejected = broken_reads = 0
    for r in physical.records:
        logical, broken = (None, 0) if r.config is None else reference_decode_chains(r.config, emb, policy)
        if broken:
            broken_reads += r.multiplicity
        if logical is None:
            rejected += r.multiplicity
        else:
            configs.extend([logical] * r.multiplicity)
    meta = {**physical.metadata, "decode_policy": policy.value}
    out = SampleSet.from_configs(logical_model, configs, meta, rejected=rejected)
    total = physical.total_reads
    return out, (broken_reads / total if total else 0.0)


def reference_tabu(model, tenure=10, max_restarts=20, seed=0, moves=None):
    """The move loop that `samplers.tabu_search` ran before its moves were cut
    to a few numpy calls: the reference for its records and metadata. Two
    things differ from that loop. The tabu clock is held as Python ints
    (dtype object), so that a tenure past int64 is read as it is. The energy
    leaves out the offset and its start takes each coupling once, so that
    every energy is exact while the coefficients pass `_x_floats`. When
    `moves` is a list, each move appends (variable, kind, ties): kind is
    "free" for a non-tabu flip, "aspiration" for a tabu flip that beats the
    best energy so far and "all tabu" for the fallback; ties counts the
    allowed flips at the minimum."""
    form = _int_form(model)
    n = form.n
    _, lin_i, B = _x_floats(form)
    stagnation_limit = 50 * n
    Bsym = B + B.T
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed,)))
    global_best = np.inf
    bests: list[np.ndarray] = []
    for _ in range(max_restarts):
        x = rng.integers(0, 2, n).astype(np.float64)
        f = Bsym @ x
        energy = lin_i @ x + x @ B @ x
        delta = (1.0 - 2.0 * x) * (lin_i + f)
        tabu_until = np.zeros(n, dtype=object)
        it = 0
        best_x = x.copy()
        best_e = energy
        since_improve = 0
        while since_improve < stagnation_limit:
            it += 1
            cand = energy + delta
            allowed = (tabu_until < it) | (cand < global_best)
            if allowed.any():
                masked = np.where(allowed, cand, np.inf)
            else:
                masked = cand
            k = int(np.argmin(masked))
            if moves is not None:
                kind = "all tabu" if not allowed.any() else "free" if tabu_until[k] < it else "aspiration"
                moves.append((k, kind, int(np.count_nonzero(masked == masked[k]))))
            sign = 1.0 - 2.0 * x[k]  # +1 when flipping 0 -> 1
            energy += delta[k]
            x[k] += sign
            f += Bsym[:, k] * sign
            delta = (1.0 - 2.0 * x) * (lin_i + f)
            tabu_until[k] = it + tenure
            global_best = min(global_best, energy)
            if energy < best_e:
                best_e = energy
                best_x = x.copy()
                since_improve = 0
            else:
                since_improve += 1
        bests.append(_native(best_x.astype(np.int64), form.kind))
    meta = {
        "sampler": "tabu_search",
        "seed": seed,
        "tenure": tenure,
        "max_restarts": max_restarts,
        "stagnation_limit": stagnation_limit,
        "reads": max_restarts,
    }
    return SampleSet.from_configs(form, bests, meta)


def reference_defect_map(g: Graph, deltas, k: int):
    """The per-cell rebuild that `defects.defect_map` ran before it patched
    one adjacency: a new Graph per (delta, combo) cell, solved through
    `m_min`. Returns the base weight and the results, keyed like the scan's."""
    exact_deltas = tuple(as_exact(d) for d in deltas)
    combos = list(itertools.combinations([(u, v) for u, v, _ in g.edges], k))
    results = {d: {} for d in exact_deltas}
    for delta in exact_deltas:
        for combo in combos:
            bumped = Graph(g.n, [(u, v, w + delta if (u, v) in combo else w) for u, v, w in g.edges])
            results[delta][combo] = m_min(bumped).m_min
    return m_min(g).m_min, results
